// Tests for PlaceDrainVictims — the migrate-then-shrink path that makes
// blocked sizing shrinks eventually land.
#include <gtest/gtest.h>

#include "core/migration.h"
#include "core/sizing.h"

namespace lmp::core {
namespace {

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(4);
  config.server_shared_memory = MiB(4);
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

class DrainTest : public ::testing::Test {
 protected:
  DrainTest() : cluster_(Config()), manager_(&cluster_) {}

  // Clears the blockers of a shrink of `server` to `target` anywhere in
  // the cluster, then applies the shrink; `status` reports the first
  // failure of the two.
  DrainPlacement Drain(cluster::ServerId server, Bytes target) {
    DrainPlacement placed =
        PlaceDrainVictims(manager_, server, target, 0, 0, 4);
    if (placed.status.ok()) {
      placed.status = cluster_.server(server).ResizeShared(target);
    }
    return placed;
  }

  cluster::Cluster cluster_;
  PoolManager manager_;
};

TEST_F(DrainTest, EmptyServerShrinksWithoutMigration) {
  const DrainPlacement placed = Drain(1, MiB(1));
  ASSERT_TRUE(placed.status.ok());
  EXPECT_TRUE(placed.moves.empty());
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(1));
}

TEST_F(DrainTest, ResidentSegmentsMigrateOutThenShrink) {
  // Fill server 0's region so frames reach the tail.
  auto buf = manager_.Allocate(MiB(3), 0);
  ASSERT_TRUE(buf.ok());
  std::vector<std::byte> data(MiB(3), std::byte{0x42});
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());

  const DrainPlacement placed = Drain(0, MiB(1));
  ASSERT_TRUE(placed.status.ok()) << placed.status;
  EXPECT_FALSE(placed.moves.empty());
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(1));

  // Data intact at its new home; same buffer id.
  std::vector<std::byte> out(MiB(3));
  ASSERT_TRUE(manager_.Read(1, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
  auto frac = manager_.LocalFraction(*buf, 0);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 0.0);  // fully evicted
}

TEST_F(DrainTest, ColdSegmentsLeaveBeforeHotOnes) {
  // Two segments on server 0; make the second hot.
  auto cold = manager_.Allocate(MiB(1), 0);
  auto hot = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(cold.ok() && hot.ok());
  const auto hot_seg = manager_.Describe(*hot)->segments[0];
  manager_.access_tracker().RecordAccess(hot_seg, 0, double(MiB(8)), 0);

  // Target still fits one of them: only the blocked tail must leave; the
  // hot segment occupies the tail (allocated second), but among evicted
  // candidates cold-first ordering governs when both block.
  ASSERT_TRUE(Drain(0, MiB(1)).status.ok());
  // The hot segment sat in the tail, so it had to go regardless; verify
  // capacity met and everything still readable.
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(1));
  std::vector<std::byte> out(16);
  EXPECT_TRUE(manager_.Read(0, *cold, 0, out).ok());
  EXPECT_TRUE(manager_.Read(0, *hot, 0, out).ok());
}

TEST_F(DrainTest, PinnedResidentsBlockTheDrain) {
  AllocOptions pinned;
  pinned.preferred = cluster::ServerId{0};
  pinned.locus = "tenant/latency";
  pinned.mobility = mem::Mobility::kPinned;
  auto buf = manager_.Allocate(MiB(2), pinned);
  ASSERT_TRUE(buf.ok());
  // The pinned resident must not be selected as a drain victim, and with
  // nothing else to move the shrink cannot reach its target.
  const DrainPlacement placed = Drain(0, MiB(1));
  EXPECT_TRUE(placed.moves.empty());
  EXPECT_TRUE(IsFailedPrecondition(placed.status));
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
}

TEST_F(DrainTest, FailsWhenPeersFull) {
  // Fill every peer completely.
  for (int s = 1; s < 4; ++s) {
    ASSERT_TRUE(manager_.Allocate(MiB(4),
                                  static_cast<cluster::ServerId>(s)).ok());
  }
  auto buf = manager_.Allocate(MiB(3), 0);
  ASSERT_TRUE(buf.ok());
  const DrainPlacement placed = Drain(0, MiB(1));
  EXPECT_TRUE(IsOutOfMemory(placed.status));
  EXPECT_EQ(placed.unplaced, manager_.Describe(*buf)->segments[0]);
  // Server keeps its old size; data untouched.
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
}

TEST_F(DrainTest, SizingDeferThenDrainConverges) {
  // The full loop: optimizer shrinks a loaded server, Apply defers, the
  // drain completes it.
  auto buf = manager_.Allocate(MiB(3), 2);
  ASSERT_TRUE(buf.ok());
  SizingPlan plan;
  plan.entries.push_back({2, MiB(1), 0, 0});
  const SizingApplyResult deferred = SizingOptimizer::Apply(cluster_, plan);
  EXPECT_EQ(deferred.deferred_count(), 1);
  EXPECT_EQ(deferred.deferred[0].server, 2u);
  EXPECT_GT(deferred.deferred[0].stranded_bytes, 0u);
  EXPECT_EQ(cluster_.server(2).shared_bytes(), MiB(4));

  ASSERT_TRUE(Drain(2, MiB(1)).status.ok());
  EXPECT_EQ(cluster_.server(2).shared_bytes(), MiB(1));
  EXPECT_EQ(SizingOptimizer::Apply(cluster_, plan).deferred_count(), 0);
}

TEST_F(DrainTest, VictimGoesToItsDominantAccessor) {
  // Server 2 reads the segment; the peers all have equal room, so only
  // the dominant-accessor rule sends it to 2 rather than to server 1.
  auto buf = manager_.Allocate(MiB(3), 0);
  ASSERT_TRUE(buf.ok());
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  manager_.access_tracker().RecordAccess(seg, 2, double(MiB(8)), 0);

  const DrainPlacement placed = Drain(0, MiB(1));
  ASSERT_TRUE(placed.status.ok()) << placed.status;
  ASSERT_EQ(placed.moves.size(), 1u);
  EXPECT_EQ(placed.moves[0].to, Location::OnServer(2));
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(1));
  auto frac = manager_.LocalFraction(*buf, 2);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);
}

TEST_F(DrainTest, FragmentedShrinkIsFixedByCompaction) {
  // [hole][kept][tail]: 2 MiB live in a 4 MiB region, but the tail
  // segment sits past a 2 MiB cut.  Packing it into the hole is enough;
  // no byte needs to leave the server.
  auto hole = manager_.Allocate(MiB(1), 0);
  auto kept = manager_.Allocate(MiB(1), 0);
  auto tail = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(hole.ok() && kept.ok() && tail.ok());
  std::vector<std::byte> data(MiB(1), std::byte{0x5a});
  ASSERT_TRUE(manager_.Write(0, *tail, 0, data).ok());
  ASSERT_TRUE(manager_.Free(*hole).ok());

  const DrainPlacement placed = Drain(0, MiB(2));
  ASSERT_TRUE(placed.status.ok()) << placed.status;
  ASSERT_EQ(placed.moves.size(), 1u);
  EXPECT_EQ(placed.moves[0].from, Location::OnServer(0));
  EXPECT_EQ(placed.moves[0].to, Location::OnServer(0));
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(2));
  for (int s = 1; s < 4; ++s) {
    EXPECT_EQ(cluster_.server(s).shared_allocator().used_frames(), 0u);
  }
  std::vector<std::byte> out(MiB(1));
  ASSERT_TRUE(manager_.Read(0, *tail, 0, out).ok());
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace lmp::core
