#include "core/migration.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {

MigrationEngine::MigrationEngine(PoolManager* manager, MigrationConfig config)
    : manager_(manager), config_(config) {
  LMP_CHECK(manager != nullptr);
}

StatusOr<MigrationRoundStats> MigrationEngine::RunOnce(
    SimTime now, std::vector<MigrationRecord>* records) {
  MigrationRoundStats stats;

  struct Candidate {
    SegmentId seg;
    cluster::ServerId dst;
    double score;  // projected traffic converted to local, net of copy cost
  };
  std::vector<Candidate> candidates;

  const bool scoped = config_.scope_limit > config_.scope_first;
  const AccessTracker& tracker = manager_->access_tracker();
  manager_->segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kActive) return;
    AccessTracker::DominantAccessor dom;
    if (!tracker.Dominant(info.id, now, &dom)) return;
    if (dom.share < config_.dominance_threshold) return;
    // Already local to the dominant accessor?
    if (!info.home.is_pool() && info.home.server == dom.server) return;
    if (scoped) {
      if (dom.server < config_.scope_first ||
          dom.server >= config_.scope_limit) {
        return;
      }
      if (info.home.is_pool() || info.home.server < config_.scope_first ||
          info.home.server >= config_.scope_limit) {
        return;  // homed off-rack: a pull grant's job, not this round's
      }
    }
    const double copy_cost = static_cast<double>(info.size);
    if (dom.bytes < config_.benefit_factor * copy_cost) return;
    candidates.push_back(Candidate{info.id, dom.server,
                                   dom.bytes - copy_cost});
  });

  stats.candidates = static_cast<int>(candidates.size());
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });

  for (const Candidate& c : candidates) {
    if (stats.migrated >= config_.max_migrations_per_round) break;
    auto rec_or = manager_->MigrateSegment(c.seg, c.dst);
    if (!rec_or.ok()) {
      if (IsOutOfMemory(rec_or.status())) {
        ++stats.skipped_capacity;
        continue;
      }
      // A segment that started migrating/replicating between scoring and
      // execution is skipped this round, not a failure.
      if (IsFailedPrecondition(rec_or.status())) continue;
      return rec_or.status();
    }
    ++stats.migrated;
    stats.bytes_moved += rec_or->bytes;
    if (records != nullptr) records->push_back(rec_or.value());
  }
  if (trace::TraceCollector* t = manager_->trace(); t != nullptr) {
    t->Instant(trace::Category::kMigration, "migration_round", now,
               {trace::Arg("candidates", stats.candidates),
                trace::Arg("migrated", stats.migrated),
                trace::Arg("bytes", stats.bytes_moved),
                trace::Arg("skipped_capacity", stats.skipped_capacity)});
  }
  return stats;
}

std::vector<DrainVictim> BlockedResidents(PoolManager& manager,
                                          cluster::ServerId server,
                                          Bytes target_bytes, SimTime now) {
  // The shrink is blocked by segments holding frames in the region being
  // removed (the allocator trims from the tail).  Those — and only those —
  // must leave.
  const std::uint64_t target_frames = mem::FramesForBytes(
      target_bytes, manager.cluster().server(server).frame_size());
  std::vector<DrainVictim> residents;
  const Location here = Location::OnServer(server);
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.home != here || info.state != SegmentState::kActive) return;
    auto runs_or = manager.local_map(here).RunsOf(info.id);
    if (!runs_or.ok()) return;
    for (const mem::FrameRun& run : runs_or.value()) {
      if (run.end() > target_frames) {
        residents.push_back(DrainVictim{
            info.id, info.size,
            manager.access_tracker().TotalBytes(info.id, now),
            info.mobility == mem::Mobility::kPinned, info.priority});
        return;
      }
    }
  });
  // Mobile cohorts first, then cheapest tenants, then coldest.  Tie-break
  // on segment id: ForEach order is hash-map order, and the drain sequence
  // feeds deterministic traces.
  std::sort(residents.begin(), residents.end(),
            [](const DrainVictim& a, const DrainVictim& b) {
              return std::tie(a.pinned, a.priority, a.heat, a.seg) <
                     std::tie(b.pinned, b.priority, b.heat, b.seg);
            });
  return residents;
}

std::optional<cluster::ServerId> MostFreePeer(const cluster::Cluster& cluster,
                                              cluster::ServerId first,
                                              cluster::ServerId limit,
                                              cluster::ServerId source,
                                              Bytes bytes) {
  std::optional<cluster::ServerId> best;
  Bytes best_free = 0;
  for (cluster::ServerId id = first; id < limit; ++id) {
    if (id == source || cluster.server(id).crashed()) continue;
    const Bytes free = cluster.server(id).shared_allocator().free_bytes();
    if (free >= bytes && free > best_free) {
      best = id;
      best_free = free;
    }
  }
  return best;
}

DrainPlacement PlaceDrainVictims(PoolManager& manager,
                                 cluster::ServerId server, Bytes target_bytes,
                                 SimTime now, cluster::ServerId first,
                                 cluster::ServerId limit) {
  const cluster::Cluster& cluster = manager.cluster();
  DrainPlacement placed;
  for (const DrainVictim& v :
       BlockedResidents(manager, server, target_bytes, now)) {
    if (v.pinned) continue;
    std::optional<cluster::ServerId> dest;
    AccessTracker::DominantAccessor dom;
    if (manager.access_tracker().Dominant(v.seg, now, &dom) &&
        dom.server != server && dom.server >= first && dom.server < limit &&
        !cluster.server(dom.server).crashed() &&
        cluster.server(dom.server).shared_allocator().free_bytes() >=
            v.size) {
      dest = dom.server;
    }
    if (!dest.has_value()) {
      auto rec_or = manager.CompactSegment(v.seg, target_bytes);
      if (rec_or.ok()) {
        if (rec_or->bytes > 0) placed.moves.push_back(*rec_or);
        continue;
      }
      if (IsFailedPrecondition(rec_or.status())) continue;  // busy
      // No room below the cut.
      dest = MostFreePeer(cluster, first, limit, server, v.size);
    }
    if (!dest.has_value()) {
      placed.status = OutOfMemoryError("no server can absorb a drain victim");
      placed.unplaced = v.seg;
      return placed;
    }
    auto rec_or = manager.MigrateSegment(v.seg, *dest);
    if (!rec_or.ok()) {
      if (IsFailedPrecondition(rec_or.status())) continue;  // busy
      placed.status = rec_or.status();
      return placed;
    }
    placed.moves.push_back(*rec_or);
  }
  return placed;
}

}  // namespace lmp::core
