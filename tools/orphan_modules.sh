#!/bin/sh
# Orphan-module lint: every header under src/ must be included by at least
# one file under src/, bench/ or examples/ other than its own .cc.  A module
# that only its own tests reach is dead code; wire it into a real path or
# delete it together with its tests.  There is deliberately no allowlist.
#
# Usage: orphan_modules.sh [source-root]   (default: the parent of tools/)
set -eu

cd "${1:-$(dirname "$0")/..}"

orphans=0
for header in $(find src -name '*.h' | sort); do
  own_cc="${header%.h}.cc"
  if ! grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
         "#include \"${header#src/}\"" src bench examples |
       grep -qvxF "$own_cc"; then
    echo "orphan module: $header"
    orphans=$((orphans + 1))
  fi
done

if [ "$orphans" -ne 0 ]; then
  echo "$orphans header(s) under src/ are reached by no src/, bench/ or" \
       "examples/ file" >&2
  exit 1
fi
echo "no orphan modules under src/"
