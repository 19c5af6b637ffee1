#!/usr/bin/env python3
"""Determinism check for the benchmark driver.

    python3 perfbench/check_determinism.py [--seed N]

Builds the driver (as run.py does), then requires that
  * two runs of each workload with one seed print identical modelled
    numbers and per-layer counts;
  * a traced round reproduces the untraced round's numbers (the driver
    itself fails a run whose rounds disagree);
  * rack_waves prints identical numbers, sim_gbps and solve counts
    included, with 1 and 2 fluid solver threads.
Exits 0 when all hold, 1 otherwise.
"""
import argparse
import subprocess
import sys

import run


def model(binary, workload, seed, *extra):
    """Runs two rounds and returns the first round's modelled numbers."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--rounds", "2", "--print-model", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    numbers = {}
    for line in proc.stderr.splitlines():
        if line.startswith("model "):
            _, name, value = line.split()
            numbers[name] = value
    if not numbers:
        raise SystemExit(f"{' '.join(cmd)}: no modelled numbers printed")
    return numbers


def compare(label, a, b):
    diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for name in diff:
        print(f"{label}: {name} {a.get(name)} != {b.get(name)}")
    print(f"{label}: {'ok' if not diff else 'DIFFERENT'} ({len(a)} numbers)")
    return not diff


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.SEEDS["default"])
    args = parser.parse_args()
    binary = run.build()
    ok = True
    for workload in run.WORKLOADS:
        first = model(binary, workload, args.seed, "--trace", "0")
        again = model(binary, workload, args.seed, "--trace", "1")
        ok &= compare(f"{workload} replay", first, again)
    one = model(binary, "rack_waves", args.seed, "--trace", "0",
                "--threads", "1")
    two = model(binary, "rack_waves", args.seed, "--trace", "0",
                "--threads", "2")
    ok &= compare("rack_waves threads 1 vs 2", one, two)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
