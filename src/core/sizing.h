// Shared-region sizing (§5 "Sizing the shared regions").
//
// The paper frames the private/shared split as a periodically solved global
// optimization: maximize local accesses while prioritizing high-value
// applications, without letting remote servers monopolise anyone's local
// memory.  SizingOptimizer implements a greedy solver over per-server
// demand declarations:
//
//   1. Reserve each server's private floor (its own non-pool working set —
//      oversizing the shared region must not evict local workloads).
//   2. Satisfy each server's pool demand from its *own* shared region first:
//      those bytes become local accesses, the whole point of an LMP.
//   3. Place overflow demand on peers with slack, highest priority first,
//      most-slack peer first (overflow is remote wherever it lands, so the
//      tie-break only balances headroom).
//   4. If capacity is short, shed lowest-priority demand and report it.
//
// The resulting plan is applied through Server::ResizeShared; shrinks that
// would strand live data are deferred (kept at current size) rather than
// forced — migration drains frames first in a real deployment.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "common/units.h"

namespace lmp::core {

struct ServerDemand {
  cluster::ServerId server = 0;
  Bytes private_demand = 0;  // bytes the server's own processes need
  Bytes pool_demand = 0;     // bytes of pool memory its apps want
  double priority = 1.0;     // higher = served first under pressure
};

struct SizingPlan {
  struct Entry {
    cluster::ServerId server = 0;
    Bytes shared_bytes = 0;
    Bytes expected_local = 0;   // pool demand served from its own region
    Bytes expected_remote = 0;  // pool demand served by peers
  };
  std::vector<Entry> entries;
  Bytes unmet_demand = 0;  // shed because the deployment is too small

  // Aggregate expected local-access fraction across served demand.
  double LocalFraction() const;
};

// What SizingOptimizer::Apply actually did.  Deferred shrinks are reported
// structurally — which server, how far it is from the plan, and how many
// bytes of live frames stand in the way — so a control loop can schedule
// the drain that unblocks them instead of guessing from a bare count.
struct SizingApplyResult {
  struct DeferredShrink {
    cluster::ServerId server = 0;
    Bytes current_bytes = 0;   // size the server was left at
    Bytes target_bytes = 0;    // size the plan wanted
    Bytes stranded_bytes = 0;  // allocated bytes in the would-be-removed tail
    bool crashed = false;      // skipped because the server is down
  };
  int applied = 0;  // resizes that landed
  std::vector<DeferredShrink> deferred;

  int deferred_count() const { return static_cast<int>(deferred.size()); }
};

class SizingOptimizer {
 public:
  // `total_memory` per server comes from the cluster; demands from the
  // caller's monitoring.  Every server must appear in `demands`.  Ties
  // break in input order: among equal priorities the earlier demand places
  // its overflow first, and among peers with equal slack the earlier one
  // takes it.  Callers that want a fixed plan pass a fixed order.
  static SizingPlan Solve(const cluster::Cluster& cluster,
                          std::vector<ServerDemand> demands);

  // Applies a plan.  Per-server shrink failures (live frames in the way)
  // and crashed servers leave that server at its current size; each such
  // deferral is reported with the stranded byte count a drain must move.
  static SizingApplyResult Apply(cluster::Cluster& cluster,
                                 const SizingPlan& plan);
};

}  // namespace lmp::core
