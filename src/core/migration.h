// MigrationEngine — locality balancing (§5).
//
// The paper's challenge: NUMA balancing unmaps pages to sample accesses,
// which is too slow for an LMP; instead accesses are profiled (our
// AccessTracker stands in for performance counters / access bits) and a
// policy periodically migrates hot remote segments toward their dominant
// accessor.  Migration is worthwhile when the recent remote traffic a move
// would convert to local traffic exceeds the one-time copy cost by a
// configurable factor.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"
#include "core/pool_manager.h"

namespace lmp::core {

struct MigrationConfig {
  // A segment is a candidate only when one server generates at least this
  // share of its recent traffic...
  double dominance_threshold = 0.55;
  // ...and that traffic (decayed bytes) exceeds the copy cost by this
  // factor.  >1 means "the move pays for itself within one half-life".
  double benefit_factor = 1.0;
  // Cap per balancing round, so one round cannot saturate the fabric.
  int max_migrations_per_round = 8;
  // Rack scope: when scope_limit > scope_first, a round only moves
  // segments whose dominant accessor AND current home both fall in
  // [scope_first, scope_limit) — rack-local balancing that never crosses
  // the spine.  Cross-rack moves are the hierarchical coordinator's to
  // grant, not the balancer's to take.  Default (0, 0) is unscoped.
  cluster::ServerId scope_first = 0;
  cluster::ServerId scope_limit = 0;
};

struct MigrationRoundStats {
  int candidates = 0;
  int migrated = 0;
  int skipped_capacity = 0;
  Bytes bytes_moved = 0;
};

class MigrationEngine {
 public:
  MigrationEngine(PoolManager* manager, MigrationConfig config = {});

  // One balancing round at simulated time `now`.  Appends executed
  // migrations to `records` (optional) and returns round statistics.
  // Capacity misses and busy segments are counted, not errors; anything
  // else (a corrupt segment map, a crashed destination) propagates.
  StatusOr<MigrationRoundStats> RunOnce(
      SimTime now, std::vector<MigrationRecord>* records = nullptr);

  const MigrationConfig& config() const { return config_; }

 private:
  PoolManager* manager_;
  MigrationConfig config_;
};

// A segment whose frames block a shared-region shrink (it holds at least
// one frame in the tail the resize would remove).
struct DrainVictim {
  SegmentId seg = kInvalidSegment;
  Bytes size = 0;
  double heat = 0;  // decayed traffic at selection time
  // From the segment's allocation cohort: pinned victims sort last and
  // drains skip them (their cohort opted out of being moved).
  bool pinned = false;
  double priority = 1.0;  // tenant priority; low drains first
};

// The active segments blocking a shrink of `server` to `target_bytes`:
// mobile before pinned, then lowest tenant priority, then coldest (they
// are the cheapest to lose locality on).  Empty when the shrink is already
// possible.
std::vector<DrainVictim> BlockedResidents(PoolManager& manager,
                                          cluster::ServerId server,
                                          Bytes target_bytes, SimTime now);

// The live server in [first, limit), other than `source`, with the most
// free shared bytes, provided they fit `bytes`; lowest id on ties.  Empty
// when no such server has room.
std::optional<cluster::ServerId> MostFreePeer(const cluster::Cluster& cluster,
                                              cluster::ServerId first,
                                              cluster::ServerId limit,
                                              cluster::ServerId source,
                                              Bytes bytes);

// What PlaceDrainVictims did.  `moves` holds the migrations and
// compactions in the order they ran; they stand even when the placement
// stopped early.
struct DrainPlacement {
  std::vector<MigrationRecord> moves;
  Status status;  // OK, or the error that stopped the placement
  // Set when no destination had room for this victim (status is then
  // kOutOfMemory).
  SegmentId unplaced = kInvalidSegment;
};

// Moves every mobile segment blocking a shrink of `server` to
// `target_bytes` out of the way (§5: a blocked sizing shrink lands after a
// drain).  Pinned victims are skipped; so are busy ones (kFailedPrecondition
// from the move), which the caller's retry picks up.  Each victim goes,
// best first, to:
//  1. its dominant accessor, when that is a live peer in [first, limit)
//     with room — the drain then doubles as a locality migration;
//  2. free frames below the cut on `server` itself (CompactSegment) — right
//     when the drainer IS the dominant accessor (an exiled segment would
//     be hauled back by the next balancing round), or when the shrink is
//     blocked by fragmentation alone;
//  3. MostFreePeer in [first, limit).
// The shrink itself is the caller's: this only clears the tail.
DrainPlacement PlaceDrainVictims(PoolManager& manager,
                                 cluster::ServerId server, Bytes target_bytes,
                                 SimTime now, cluster::ServerId first,
                                 cluster::ServerId limit);

}  // namespace lmp::core
