// Tests for the shared-region sizing optimizer (§5).
#include <gtest/gtest.h>

#include "core/sizing.h"

namespace lmp::core {
namespace {

cluster::ClusterConfig Config(Bytes per_server = GiB(24)) {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = per_server;
  config.server_shared_memory = 0;  // sizing decides
  config.frame_size = MiB(1);
  return config;
}

ServerDemand Demand(cluster::ServerId s, Bytes priv, Bytes pool,
                    double priority = 1.0) {
  return ServerDemand{s, priv, pool, priority};
}

TEST(SizingTest, SelfServeWhenEverythingFits) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(8), GiB(10)), Demand(1, GiB(8), GiB(10)),
                Demand(2, GiB(8), GiB(10)), Demand(3, GiB(8), GiB(10))});
  EXPECT_EQ(plan.unmet_demand, 0u);
  EXPECT_DOUBLE_EQ(plan.LocalFraction(), 1.0);
  for (const auto& e : plan.entries) {
    EXPECT_EQ(e.shared_bytes, GiB(10));
    EXPECT_EQ(e.expected_local, GiB(10));
    EXPECT_EQ(e.expected_remote, 0u);
  }
}

TEST(SizingTest, PrivateFloorIsRespected) {
  cluster::Cluster cluster(Config());
  // Server 0 wants more pool memory than its slack allows.
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(20), GiB(10)), Demand(1, GiB(4), 0),
                Demand(2, GiB(4), 0), Demand(3, GiB(4), 0)});
  // Own slack is 4 GiB; the remaining 6 GiB must land on peers.
  const auto& e0 = plan.entries[0];
  EXPECT_EQ(e0.expected_local, GiB(4));
  EXPECT_EQ(e0.expected_remote, GiB(6));
  EXPECT_EQ(plan.unmet_demand, 0u);
  // No peer's shared region may eat into its private floor.
  for (std::size_t i = 1; i < plan.entries.size(); ++i) {
    EXPECT_LE(plan.entries[i].shared_bytes, GiB(20));
  }
}

TEST(SizingTest, OverflowGoesToPeerWithMostSlack) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(24), GiB(8)),   // no slack at all
                Demand(1, GiB(20), 0),        // 4 slack
                Demand(2, GiB(8), 0),         // 16 slack
                Demand(3, GiB(16), 0)});      // 8 slack
  EXPECT_EQ(plan.entries[0].expected_remote, GiB(8));
  EXPECT_EQ(plan.entries[2].shared_bytes, GiB(8));  // most slack took it
}

TEST(SizingTest, OverflowTieGoesToTheEarlierPeerInInputOrder) {
  cluster::Cluster cluster(Config());
  // Servers 3 and 1 have equal slack; 3 comes first in the input, so it
  // takes the overflow even though its id is higher.
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(24), GiB(8)),   // no slack at all
                Demand(3, GiB(8), 0),         // 16 slack
                Demand(1, GiB(8), 0),         // 16 slack
                Demand(2, GiB(20), 0)});      // 4 slack
  ASSERT_EQ(plan.entries[1].server, 3u);
  EXPECT_EQ(plan.entries[1].shared_bytes, GiB(8));
  EXPECT_EQ(plan.entries[2].shared_bytes, 0u);
}

TEST(SizingTest, ShedsLowestPriorityUnderPressure) {
  cluster::Cluster cluster(Config(GiB(8)));
  // Total slack: 4 servers x 8 = 32; demands total 40 => 8 shed.
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, 0, GiB(20), /*priority=*/2.0),
                Demand(1, 0, GiB(20), /*priority=*/1.0),
                Demand(2, 0, 0), Demand(3, 0, 0)});
  EXPECT_EQ(plan.unmet_demand, GiB(8));
  // High-priority demand fully served.
  EXPECT_EQ(plan.entries[0].expected_local +
            plan.entries[0].expected_remote, GiB(20));
  EXPECT_EQ(plan.entries[1].expected_local +
            plan.entries[1].expected_remote, GiB(12));
}

TEST(SizingTest, LocalFractionReflectsPlacement) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(20), GiB(8)), Demand(1, GiB(4), 0),
                Demand(2, GiB(4), 0), Demand(3, GiB(4), 0)});
  // 4 of 8 local.
  EXPECT_NEAR(plan.LocalFraction(), 0.5, 1e-9);
}

TEST(SizingTest, ApplyResizesServers) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, GiB(8), GiB(10)), Demand(1, GiB(8), GiB(4)),
                Demand(2, GiB(8), 0), Demand(3, GiB(8), 0)});
  const SizingApplyResult result = SizingOptimizer::Apply(cluster, plan);
  EXPECT_EQ(result.deferred_count(), 0);
  EXPECT_EQ(result.applied, 4);
  EXPECT_EQ(cluster.server(0).shared_bytes(), GiB(10));
  EXPECT_EQ(cluster.server(1).shared_bytes(), GiB(4));
  EXPECT_EQ(cluster.server(2).shared_bytes(), 0u);
}

TEST(SizingTest, ApplyDefersBlockedShrink) {
  cluster::ClusterConfig config = Config();
  config.server_shared_memory = GiB(24);
  cluster::Cluster cluster(config);
  // Live frames occupy the region; shrinking to zero must be deferred.
  ASSERT_TRUE(cluster.server(1)
                  .shared_allocator()
                  .Allocate(mem::AllocRequest::Of(10))
                  .ok());
  SizingPlan plan;
  plan.entries.push_back({0, 0, 0, 0});
  plan.entries.push_back({1, 0, 0, 0});
  const SizingApplyResult result = SizingOptimizer::Apply(cluster, plan);
  EXPECT_EQ(result.deferred_count(), 1);
  EXPECT_EQ(cluster.server(0).shared_bytes(), 0u);
  EXPECT_EQ(cluster.server(1).shared_bytes(), GiB(24));
}

// Regression: a deferred shrink must say WHICH server it skipped and how
// many bytes of live frames blocked it, not just bump a counter.
TEST(SizingTest, ApplyReportsDeferredShrinkStructurally) {
  cluster::ClusterConfig config = Config();
  config.server_shared_memory = GiB(24);
  cluster::Cluster cluster(config);
  // 10 frames x 1 MiB live on server 1; shrinking to 4 MiB strands the
  // 6 frames above the new boundary (first-fit packs from frame 0).
  ASSERT_TRUE(cluster.server(1)
                  .shared_allocator()
                  .Allocate(mem::AllocRequest::Of(10))
                  .ok());
  SizingPlan plan;
  plan.entries.push_back({1, MiB(4), 0, 0});
  const SizingApplyResult result = SizingOptimizer::Apply(cluster, plan);
  ASSERT_EQ(result.deferred_count(), 1);
  EXPECT_EQ(result.applied, 0);
  const auto& d = result.deferred[0];
  EXPECT_EQ(d.server, 1u);
  EXPECT_EQ(d.current_bytes, GiB(24));
  EXPECT_EQ(d.target_bytes, MiB(4));
  EXPECT_EQ(d.stranded_bytes, MiB(6));
  EXPECT_FALSE(d.crashed);
}

TEST(SizingTest, ApplySkipsCrashedServers) {
  cluster::Cluster cluster(Config());
  ASSERT_TRUE(cluster.server(2).Crash().ok());
  SizingPlan plan;
  plan.entries.push_back({2, GiB(4), 0, 0});
  const SizingApplyResult result = SizingOptimizer::Apply(cluster, plan);
  ASSERT_EQ(result.deferred_count(), 1);
  EXPECT_TRUE(result.deferred[0].crashed);
  EXPECT_EQ(result.deferred[0].server, 2u);
}

TEST(SizingTest, EmptyDemandsYieldEmptyPlan) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(cluster, {});
  EXPECT_TRUE(plan.entries.empty());
  EXPECT_DOUBLE_EQ(plan.LocalFraction(), 1.0);
}

// The §4.5 flexibility story as a sizing problem: a 96 GiB working set
// fits only if every server contributes its whole DRAM.
TEST(SizingTest, FlexibilityEnablesFullPooling) {
  cluster::Cluster cluster(Config());
  auto plan = SizingOptimizer::Solve(
      cluster, {Demand(0, 0, GiB(96)), Demand(1, 0, 0), Demand(2, 0, 0),
                Demand(3, 0, 0)});
  EXPECT_EQ(plan.unmet_demand, 0u);
  Bytes total_shared = 0;
  for (const auto& e : plan.entries) total_shared += e.shared_bytes;
  EXPECT_EQ(total_shared, GiB(96));
}

}  // namespace
}  // namespace lmp::core
