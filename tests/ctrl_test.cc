// Tests for the lmp::ctrl control plane: demand estimation (attribution +
// EWMA smoothing), closed-loop sizing convergence to a fixed point,
// drain-backed shrinks that land after their priced flows retire, and the
// admission controller's admit/queue/reject/preempt/promote lifecycle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/pool_manager.h"
#include "core/sizing.h"
#include "ctrl/admission.h"
#include "ctrl/controller.h"
#include "ctrl/demand_estimator.h"
#include "sim/fluid.h"

namespace lmp::ctrl {
namespace {

cluster::ClusterConfig Config(Bytes per_server = MiB(8)) {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = per_server;
  config.server_shared_memory = per_server;
  config.frame_size = KiB(64);
  config.with_backing = true;
  return config;
}

// ---------------------------------------------------------- DemandEstimator

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
  }
  cluster::Cluster cluster_;
  core::PoolManager manager_;
};

TEST_F(EstimatorTest, UntouchedSegmentsAttributeToHome) {
  ASSERT_TRUE(manager_.Allocate(MiB(2), 1).ok());
  DemandEstimator est(&manager_);
  const auto demands = est.Estimate(0);
  ASSERT_EQ(demands.size(), 4u);
  EXPECT_EQ(demands[0].pool_demand, 0u);
  EXPECT_EQ(demands[1].pool_demand, MiB(2));
  EXPECT_EQ(demands[1].server, 1u);
}

TEST_F(EstimatorTest, AttributionFollowsDominantAccessor) {
  auto buf = manager_.Allocate(MiB(2), 1);
  ASSERT_TRUE(buf.ok());
  const std::vector<core::SegmentId> segments =
      manager_.Describe(*buf)->segments;
  for (const core::SegmentId seg : segments) {
    manager_.access_tracker().RecordAccess(seg, 2, double(MiB(16)), 0);
  }
  DemandEstimator est(&manager_);
  const auto demands = est.Estimate(0);
  EXPECT_EQ(demands[1].pool_demand, 0u);
  EXPECT_EQ(demands[2].pool_demand, MiB(2));
}

TEST_F(EstimatorTest, EwmaSmoothsDemandSteps) {
  EstimatorConfig config;
  config.time_constant = Milliseconds(10);
  DemandEstimator est(&manager_, config);
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  // First observation seeds the EWMA directly.
  EXPECT_EQ(est.Estimate(0)[0].pool_demand, MiB(2));
  // Demand doubles; one time-constant later the estimate sits strictly
  // between the old and new raw values.
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  const Bytes mid = est.Estimate(Milliseconds(10))[0].pool_demand;
  EXPECT_GT(mid, MiB(2));
  EXPECT_LT(mid, MiB(4));
  // Far in the future the estimate has converged to the new level.
  EXPECT_EQ(est.Estimate(Milliseconds(500))[0].pool_demand, MiB(4));
}

TEST_F(EstimatorTest, HeadroomFactorOverprovisions) {
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  EstimatorConfig config;
  config.headroom_factor = 1.5;
  DemandEstimator est(&manager_, config);
  EXPECT_EQ(est.Estimate(0)[0].pool_demand, MiB(3));
}

TEST_F(EstimatorTest, LeaseDemandRidesOnTopAndClears) {
  DemandEstimator est(&manager_);
  est.SetLeaseDemand(2, MiB(1));
  EXPECT_EQ(est.Estimate(0)[2].pool_demand, MiB(1));
  est.ClearLeaseDemands();
  EXPECT_EQ(est.Estimate(Milliseconds(1000))[2].pool_demand, 0u);
}

TEST_F(EstimatorTest, ObservedLocalFractionWeighsTraffic) {
  DemandEstimator est(&manager_);
  EXPECT_DOUBLE_EQ(est.ObservedLocalFraction(0), 1.0);  // no traffic yet
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  const auto seg = manager_.Describe(*buf)->segments[0];
  manager_.access_tracker().RecordAccess(seg, 0, 300.0, 0);  // local
  manager_.access_tracker().RecordAccess(seg, 1, 100.0, 0);  // remote
  EXPECT_DOUBLE_EQ(est.ObservedLocalFraction(0), 0.75);
}

// --------------------------------------------------------- SizingController

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
    manager_.set_metrics(&metrics_);
  }

  // Heap-built: the controller registers `this`-capturing callbacks at
  // construction, so it must never move.
  std::unique_ptr<SizingController> MakeController(ControllerConfig config) {
    auto controller = std::make_unique<SizingController>(
        SizingController::Bindings{.sim = &sim_, .manager = &manager_},
        config);
    controller->set_metrics(&metrics_);
    return controller;
  }

  sim::FluidSimulator sim_;
  cluster::Cluster cluster_;
  core::PoolManager manager_;
  MetricsRegistry metrics_;
};

TEST_F(ControllerTest, SteadyDemandConvergesToFixedPoint) {
  // Static demand: 4 MiB homed on server 0, 2 MiB on server 1.  The loop
  // must reach the solved sizes and then stop issuing resizes entirely.
  ASSERT_TRUE(manager_.Allocate(MiB(4), 0).ok());
  ASSERT_TRUE(manager_.Allocate(MiB(2), 1).ok());

  ControllerConfig config;
  config.period = Milliseconds(1);
  config.cooldown = Milliseconds(2);
  config.min_step = KiB(64);
  config.horizon = Milliseconds(20);
  config.estimator.time_constant = Milliseconds(2);
  auto controller = MakeController(config);
  controller->Start();
  sim_.Run();

  EXPECT_GE(controller->stats().epochs, 10u);
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(2));
  EXPECT_EQ(cluster_.server(2).shared_bytes(), 0u);  // idle: no provision
  EXPECT_EQ(controller->stats().last_unmet_demand, 0u);
  EXPECT_EQ(controller->pending_drains(), 0);

  // Total actuation is bounded by the one-way distance from the initial
  // layout (4×8 MiB shared) to the fixed point — no oscillation allowed.
  EXPECT_LE(controller->stats().resize_bytes, MiB(32));

  // Fixed point: further epochs change nothing.
  const std::uint64_t grows = controller->stats().grows;
  const std::uint64_t shrinks = controller->stats().shrinks;
  const Bytes moved = controller->stats().resize_bytes;
  for (int i = 0; i < 3; ++i) controller->RunEpochNow();
  EXPECT_EQ(controller->stats().grows, grows);
  EXPECT_EQ(controller->stats().shrinks, shrinks);
  EXPECT_EQ(controller->stats().resize_bytes, moved);
}

TEST_F(ControllerTest, BlockedShrinkDrainsAndLands) {
  // 6 MiB lives on server 0 but every byte is wanted by server 1: the
  // solver zeroes server 0's region, the resident frames block the shrink,
  // and the drain must move them out and then land the deferred resize.
  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 3; ++i) {
    auto buf = manager_.Allocate(MiB(2), 0);
    ASSERT_TRUE(buf.ok());
    buffers.push_back(*buf);
    std::vector<std::byte> data(MiB(2), std::byte{static_cast<unsigned char>(
                                            0x10 + i)});
    ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 1, double(MiB(32)), 0);
    }
  }

  ControllerConfig config;
  config.period = Milliseconds(1);
  config.cooldown = Milliseconds(2);
  config.min_step = KiB(64);
  config.horizon = Milliseconds(20);
  config.run_migration = false;  // only the drain may move segments
  config.estimator.time_constant = Milliseconds(1);
  auto controller = MakeController(config);
  controller->Start();
  sim_.Run();

  const ControllerStats& stats = controller->stats();
  EXPECT_GE(stats.shrinks_deferred, 1u);
  EXPECT_GE(stats.drains_started, 1u);
  EXPECT_GE(stats.drains_completed, 1u);
  EXPECT_EQ(stats.drains_failed, 0u);
  EXPECT_GE(stats.drain_bytes, MiB(6));
  EXPECT_EQ(controller->pending_drains(), 0);

  // The shrink landed and the working set now sits on its consumer.
  EXPECT_EQ(cluster_.server(0).shared_bytes(), 0u);
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(6));
  for (int i = 0; i < 3; ++i) {
    std::vector<std::byte> out(MiB(2));
    ASSERT_TRUE(manager_.Read(1, buffers[i], 0, out).ok());
    EXPECT_EQ(out[0], std::byte{static_cast<unsigned char>(0x10 + i)});
    auto frac = manager_.LocalFraction(buffers[i], 1);
    ASSERT_TRUE(frac.ok());
    EXPECT_DOUBLE_EQ(*frac, 1.0);
  }
  EXPECT_EQ(metrics_.Counter("ctrl.drains_completed"), stats.drains_completed);
}

TEST_F(ControllerTest, DrainWithNowhereToGoFailsAndKeepsTheSize) {
  // Servers 1-3 are full with their own data.  Server 0 holds two 2 MiB
  // buffers that server 1 reads; a 6 MiB private floor leaves server 0
  // room for just one of them, so the solver cuts its region to 2 MiB.
  // The tail buffer cannot go to server 1 (full), below the cut (the
  // other buffer is there) or to any peer (all full): the drain fails.
  for (cluster::ServerId s = 1; s < 4; ++s) {
    ASSERT_TRUE(manager_.Allocate(MiB(8), s).ok());
  }
  for (int i = 0; i < 2; ++i) {
    auto buf = manager_.Allocate(MiB(2), 0);
    ASSERT_TRUE(buf.ok());
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 1, double(MiB(32)), 0);
    }
  }

  ControllerConfig config;
  config.min_step = KiB(64);
  config.run_migration = false;
  auto controller = MakeController(config);
  controller->estimator().SetPrivateFloor(0, MiB(6));
  trace::TraceCollector collector;
  controller->set_trace(&collector);
  controller->RunEpochNow();

  const ControllerStats& stats = controller->stats();
  EXPECT_EQ(stats.shrinks_deferred, 1u);
  EXPECT_EQ(stats.drains_failed, 1u);
  EXPECT_EQ(stats.drains_started, 0u);
  EXPECT_EQ(stats.drain_bytes, 0u);
  EXPECT_EQ(controller->pending_drains(), 0);
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(8));
  EXPECT_NE(collector.ToChromeJson().find(
                R"({"name":"drain_oom","cat":"ctrl","ph":"i")"),
            std::string::npos);
}

TEST_F(ControllerTest, HysteresisIgnoresSubStepJitter) {
  ASSERT_TRUE(manager_.Allocate(MiB(4), 0).ok());
  ControllerConfig config;
  config.min_step = MiB(16);  // larger than any delta in this cluster
  auto controller = MakeController(config);
  controller->RunEpochNow();
  EXPECT_EQ(controller->stats().grows, 0u);
  EXPECT_EQ(controller->stats().shrinks, 0u);
  EXPECT_GE(controller->stats().skipped_small, 1u);
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(8));  // untouched
}

TEST_F(ControllerTest, CooldownDampsBackToBackResizes) {
  auto buf = manager_.Allocate(MiB(4), 0);
  ASSERT_TRUE(buf.ok());
  ControllerConfig config;
  config.cooldown = Milliseconds(1000);
  config.min_step = KiB(64);
  config.run_migration = false;
  auto controller = MakeController(config);
  controller->RunEpochNow();  // first epoch resizes freely
  const std::uint64_t first = controller->stats().grows +
                              controller->stats().shrinks;
  EXPECT_GE(first, 1u);
  // A millisecond later demand moves to server 1 — but every server is
  // still resting, so the epoch must not actuate.
  sim_.ScheduleAt(Milliseconds(1), [&](SimTime now) {
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 1, double(MiB(32)), now);
    }
    controller->RunEpochNow();
  });
  sim_.Run();
  EXPECT_EQ(controller->stats().grows + controller->stats().shrinks, first);
  EXPECT_GE(controller->stats().skipped_cooldown, 1u);
}

// ------------------------------------------------------ AdmissionController

TEST(AdmissionTest, AdmitQueueRejectLifecycle) {
  MetricsRegistry metrics;
  AdmissionController adm(MiB(10));
  adm.set_metrics(&metrics);

  EXPECT_FALSE(adm.RequestAdmission({"zero", 0, 1.0, {}}).ok());
  // Larger than the deployment can ever serve: rejected outright.
  EXPECT_TRUE(IsOutOfMemory(
      adm.RequestAdmission({"whale", MiB(11), 1.0, {}}).status()));
  EXPECT_EQ(adm.stats().rejected, 1u);

  auto a = adm.RequestAdmission({"a", MiB(4), 1.0, 0});
  auto b = adm.RequestAdmission({"b", MiB(5), 1.0, 1});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->state, LeaseState::kActive);
  EXPECT_EQ(b->state, LeaseState::kActive);
  EXPECT_EQ(adm.active_bytes(), MiB(9));
  EXPECT_EQ(adm.headroom(), MiB(1));

  // Fits the deployment but not the current headroom: parked.
  auto c = adm.RequestAdmission({"c", MiB(2), 1.0, 2});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->state, LeaseState::kQueued);
  EXPECT_EQ(adm.queued_bytes(), MiB(2));

  // Demand is attributed to each lease's preferred server.
  const auto by_server = adm.DemandByServer();
  ASSERT_EQ(by_server.size(), 2u);
  EXPECT_EQ(by_server[0], (std::pair<cluster::ServerId, Bytes>{0, MiB(4)}));
  EXPECT_EQ(by_server[1], (std::pair<cluster::ServerId, Bytes>{1, MiB(5)}));

  EXPECT_TRUE(IsNotFound(adm.Release(999)));
  ASSERT_TRUE(adm.Release(a->id).ok());
  // The freed 4 MiB promotes the queued lease.
  EXPECT_EQ(adm.Get(c->id)->state, LeaseState::kActive);
  EXPECT_EQ(adm.stats().promoted, 1u);
  EXPECT_TRUE(IsFailedPrecondition(adm.Release(a->id)));  // double release
}

TEST(AdmissionTest, AllocOptionsCarryTenantIdentity) {
  MetricsRegistry metrics;
  AdmissionController adm(MiB(10));
  adm.set_metrics(&metrics);

  TenantSpec spec;
  spec.name = "latency";
  spec.bytes = MiB(6);
  spec.priority = 2.0;
  spec.preferred = cluster::ServerId{3};
  spec.mobility = mem::Mobility::kPinned;
  auto lease = adm.RequestAdmission(spec);
  ASSERT_TRUE(lease.ok());
  ASSERT_EQ(lease->state, LeaseState::kActive);

  // Active lease: the attribution server, the per-tenant locus, and the
  // spec's mobility/priority flow into frame placement.
  const core::AllocOptions options = adm.AllocOptionsFor(*lease);
  EXPECT_EQ(options.preferred, std::optional<cluster::ServerId>(3));
  EXPECT_EQ(options.locus, "tenant/latency");
  EXPECT_EQ(options.mobility, mem::Mobility::kPinned);
  EXPECT_EQ(options.priority, 2.0);

  // Queued lease: no attribution point yet, the spec's preference stands.
  auto parked = adm.RequestAdmission({"batch", MiB(8), 1.0, {}});
  ASSERT_TRUE(parked.ok());
  ASSERT_EQ(parked->state, LeaseState::kQueued);
  const core::AllocOptions queued = adm.AllocOptionsFor(*parked);
  EXPECT_EQ(queued.preferred, std::nullopt);
  EXPECT_EQ(queued.locus, "tenant/batch");
  EXPECT_EQ(queued.mobility, mem::Mobility::kMobile);
}

TEST(AdmissionTest, HigherPriorityPreemptsCheapestActive) {
  MetricsRegistry metrics;
  AdmissionController adm(MiB(10));
  adm.set_metrics(&metrics);
  auto low_old = adm.RequestAdmission({"low-old", MiB(4), 1.0, {}});
  auto low_new = adm.RequestAdmission({"low-new", MiB(5), 1.0, {}});
  ASSERT_TRUE(low_old.ok() && low_new.ok());

  // 4 MiB at priority 5 needs 3 MiB beyond headroom; the most recently
  // admitted low-priority lease is the cheapest victim.
  auto high = adm.RequestAdmission({"high", MiB(4), 5.0, {}});
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->state, LeaseState::kActive);
  EXPECT_EQ(adm.Get(low_new->id)->state, LeaseState::kQueued);
  EXPECT_EQ(adm.Get(low_old->id)->state, LeaseState::kActive);
  EXPECT_EQ(adm.stats().preempted, 1u);

  // Another priority-5 request may evict the remaining priority-1 lease
  // (still strictly lower) but never its priority-5 peer.
  auto peer = adm.RequestAdmission({"peer", MiB(4), 5.0, {}});
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(peer->state, LeaseState::kActive);
  EXPECT_EQ(adm.Get(low_old->id)->state, LeaseState::kQueued);
  EXPECT_EQ(adm.Get(high->id)->state, LeaseState::kActive);
  EXPECT_EQ(adm.stats().preempted, 2u);

  // With only priority-5 leases left active, an equal-priority request has
  // nothing to preempt: it queues.
  auto third = adm.RequestAdmission({"third", MiB(4), 5.0, {}});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->state, LeaseState::kQueued);
  EXPECT_EQ(adm.stats().preempted, 2u);
}

TEST(AdmissionTest, CapacityShrinkShedsThenRegrowthPromotes) {
  MetricsRegistry metrics;
  AdmissionController adm(MiB(10));
  adm.set_metrics(&metrics);
  auto a = adm.RequestAdmission({"a", MiB(4), 2.0, {}});
  auto b = adm.RequestAdmission({"b", MiB(5), 1.0, {}});
  ASSERT_TRUE(a.ok() && b.ok());

  // A crash (or organic growth) shrinks lease capacity under the active
  // set: the lowest-priority lease is shed.
  adm.UpdateHeadroom(MiB(6), 0);
  EXPECT_EQ(adm.Get(a->id)->state, LeaseState::kActive);
  EXPECT_EQ(adm.Get(b->id)->state, LeaseState::kQueued);

  // Organic demand eats into headroom the same way.
  adm.UpdateHeadroom(MiB(10), MiB(7));
  EXPECT_EQ(adm.Get(a->id)->state, LeaseState::kQueued);

  // Capacity returns: both come back, highest priority first.
  adm.UpdateHeadroom(MiB(10), 0);
  EXPECT_EQ(adm.Get(a->id)->state, LeaseState::kActive);
  EXPECT_EQ(adm.Get(b->id)->state, LeaseState::kActive);
  EXPECT_GE(adm.stats().promoted, 2u);
}

TEST_F(ControllerTest, AdmissionLeasesFeedTheSizingLoop) {
  // A lease admitted through the controller's admission front door becomes
  // demand the next epoch actuates: the lease's server grows a region.
  ControllerConfig config;
  config.min_step = KiB(64);
  config.cooldown = 0;  // every epoch in this test runs at t=0
  auto controller = MakeController(config);
  // Fresh cluster: every region starts at 8 MiB, first epoch shrinks the
  // idle ones to zero.
  controller->RunEpochNow();
  EXPECT_EQ(cluster_.server(2).shared_bytes(), 0u);

  auto lease = controller->admission().RequestAdmission(
      {"tenant", MiB(3), 1.0, cluster::ServerId{2}});
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(lease->state, LeaseState::kActive);
  EXPECT_EQ(lease->server, 2u);
  controller->RunEpochNow();
  EXPECT_EQ(cluster_.server(2).shared_bytes(), MiB(3));

  // Release: the demand evaporates and the region is reclaimed.
  ASSERT_TRUE(controller->admission().Release(lease->id).ok());
  controller->RunEpochNow();
  EXPECT_EQ(cluster_.server(2).shared_bytes(), 0u);
}

}  // namespace
}  // namespace lmp::ctrl
