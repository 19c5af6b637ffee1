// Request-level op engine tests: state machines advance only on simulator
// completions, every hop and lock round trip costs simulated time, and the
// async B+tree driver agrees with the tree's synchronous surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baselines/logical.h"
#include "common/metrics.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "workloads/pool_btree.h"

namespace lmp::ops {
namespace {

using baselines::LogicalDeployment;
using workloads::PoolBtree;

cluster::ClusterConfig SmallBackedConfig() {
  cluster::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.cores_per_server = 4;
  cfg.server_total_memory = MiB(64);
  cfg.server_shared_memory = MiB(64);
  cfg.with_backing = true;
  return cfg;
}

struct Harness {
  Harness()
      : deploy(fabric::LinkProfile::Link0(), SmallBackedConfig()),
        engine(&deploy.simulator(), &deploy.topology(), &deploy.manager(),
               MakeOptions(&metrics)) {}

  static OpEngine::Options MakeOptions(MetricsRegistry* registry) {
    OpEngine::Options opts;
    opts.metrics = registry;
    return opts;
  }

  MetricsRegistry metrics;
  LogicalDeployment deploy;
  OpEngine engine;
};

TEST(OpEngineTest, ReadOpCostsSimTimeAndRecordsLatency) {
  Harness h;
  auto buf = h.deploy.manager().Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());

  std::vector<OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results.push_back(r); });
  h.engine.Submit(OpKind::kGet, /*server=*/1, /*core=*/0,
                  [&](OpEngine::Op& op) {
                    h.engine.Read(op, *buf, 0, KiB(4), [&](OpEngine::Op& o) {
                      h.engine.Finish(o);
                    });
                  });
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].hops, 1);
  EXPECT_GT(results[0].finish_time, results[0].submit_time);
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_GT(hist->p50(), 0u);
  EXPECT_EQ(h.metrics.Counter("ops.completed"), 1u);
  EXPECT_EQ(h.metrics.Counter("ops.hops"), 1u);
}

TEST(OpEngineTest, StepsNeverRunInsideSubmit) {
  Harness h;
  bool step_ran = false;
  h.engine.Submit(OpKind::kOther, 0, 0, [&](OpEngine::Op& op) {
    step_ran = true;
    h.engine.Finish(op);
  });
  EXPECT_FALSE(step_ran);  // deferred through the timer wheel
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_TRUE(step_ran);
}

TEST(OpEngineTest, ClosedLoopKeepsThousandsOfOpsInFlight) {
  Harness h;
  auto buf = h.deploy.manager().Allocate(MiB(4), 0);
  ASSERT_TRUE(buf.ok());

  const int kTotal = 1000;
  const int kWindow = 64;
  int submitted = 0;
  auto submit_one = [&] {
    const auto server = static_cast<cluster::ServerId>(submitted % 4);
    const Bytes offset = static_cast<Bytes>(submitted % 512) * KiB(4);
    ++submitted;
    h.engine.Submit(OpKind::kGet, server, 0, [&, offset](OpEngine::Op& op) {
      h.engine.Read(op, *buf, offset, KiB(4), [&](OpEngine::Op& o) {
        h.engine.Finish(o);
      });
    });
  };
  h.engine.set_on_complete([&](const OpResult&) {
    if (submitted < kTotal) submit_one();
  });
  for (int i = 0; i < kWindow; ++i) submit_one();
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_EQ(h.engine.completed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(h.engine.failed(), 0u);
  EXPECT_EQ(h.engine.in_flight(), 0u);
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(kTotal));
}

TEST(OpEngineTest, UnresolvableAccessFailsTheOp) {
  Harness h;
  std::vector<OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results.push_back(r); });
  h.engine.Submit(OpKind::kGet, 0, 0, [&](OpEngine::Op& op) {
    h.engine.Read(op, core::BufferId{9999}, 0, KiB(4),
                  [&](OpEngine::Op& o) {
                    ADD_FAILURE() << "step ran for unresolvable access";
                    h.engine.Finish(o);
                  });
  });
  ASSERT_TRUE(h.engine.Drain().ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(h.engine.failed(), 1u);
}

// Satellite 3's engine-level counterpart: two contending writers serialize,
// and the loser's wait is visible sim time (lock_spins > 0, nonzero
// latency), not a free same-instant spin loop.
TEST(OpEngineTest, ContendingAcquiresSerializeWithMeasuredWait) {
  Harness h;
  core::CoherentRegion region(/*size=*/64, /*granularity=*/8,
                              /*num_hosts=*/4);
  core::DistributedLock lock(&region, 0);
  const SimTime hold = Microseconds(5);

  std::map<OpId, OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results[r.id] = r; });

  auto locked_op = [&](cluster::ServerId server) {
    return h.engine.Submit(
        OpKind::kPut, server, 0, [&](OpEngine::Op& op) {
          h.engine.Acquire(op, &lock, [&](OpEngine::Op& o1) {
            h.engine.Delay(o1, hold, [&](OpEngine::Op& o2) {
              h.engine.Release(o2, &lock, [&](OpEngine::Op& o3) {
                h.engine.Finish(o3);
              });
            });
          });
        });
  };
  const OpId a = locked_op(0);
  const OpId b = locked_op(1);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results.count(a) && results.count(b));
  EXPECT_TRUE(results[a].status.ok());
  EXPECT_TRUE(results[b].status.ok());
  // Both ops were submitted at the same instant; the winner holds for
  // `hold`, so the loser must spin and finish strictly later.
  const OpResult& first =
      results[a].finish_time < results[b].finish_time ? results[a]
                                                      : results[b];
  const OpResult& second =
      results[a].finish_time < results[b].finish_time ? results[b]
                                                      : results[a];
  EXPECT_GT(second.lock_spins, 0);
  EXPECT_GT(first.finish_time, first.submit_time);
  EXPECT_GE(second.finish_time, first.finish_time + hold);
  EXPECT_GE(h.metrics.Counter("ops.lock_spins"), 1u);
  EXPECT_FALSE(lock.IsHeld());
}

TEST(OpEngineTest, WedgedLockFailsAfterMeasuredSpins) {
  Harness h2;
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(3));  // wedged peer

  OpEngine::Options opts;
  opts.metrics = &h2.metrics;
  opts.max_lock_spins = 7;
  OpEngine engine(&h2.deploy.simulator(), &h2.deploy.topology(),
                  &h2.deploy.manager(), opts);
  std::vector<OpResult> results;
  engine.set_on_complete([&](const OpResult& r) { results.push_back(r); });
  engine.Submit(OpKind::kPut, 0, 0, [&](OpEngine::Op& op) {
    engine.Acquire(op, &lock, [&](OpEngine::Op& o) {
      ADD_FAILURE() << "acquired a wedged lock";
      engine.Finish(o);
    });
  });
  ASSERT_TRUE(engine.Drain().ok());

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(IsUnavailable(results[0].status));
  EXPECT_EQ(results[0].lock_spins, 7);
  // The timeout took max_lock_spins round trips of sim time, not zero.
  EXPECT_GE(results[0].finish_time - results[0].submit_time,
            7 * engine.lock_rtt());
}

// An op that finishes with a continuation still parked frees its slot; the
// next op reuses the slot, and the stale continuation must be dropped
// instead of running on the new tenant.
TEST(OpEngineTest, StaleTimerIsIgnoredOnAReusedSlot) {
  Harness h;
  const OpEngine::Op* first_slot = nullptr;
  bool stale_ran = false;
  std::vector<OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results.push_back(r); });
  const OpId first = h.engine.Submit(OpKind::kGet, 0, 0, [&](OpEngine::Op& op) {
    first_slot = &op;
    h.engine.Delay(op, 1000, [&](OpEngine::Op&) { stale_ran = true; });
    h.engine.Finish(op);  // the delay above is still pending
  });
  ASSERT_TRUE(h.engine.Drain().ok());
  ASSERT_EQ(results.size(), 1u);

  const OpId second =
      h.engine.Submit(OpKind::kPut, 1, 0, [&](OpEngine::Op& op) {
        EXPECT_EQ(&op, first_slot);  // the freed slot is reused
        // The stale delay fires at t = 1000, inside this one.
        h.engine.Delay(op, 5000, [&](OpEngine::Op& o) { h.engine.Finish(o); });
      });
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_FALSE(stale_ran);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, first);
  EXPECT_EQ(results[1].id, second);
  EXPECT_EQ(results[1].kind, OpKind::kPut);
  EXPECT_DOUBLE_EQ(results[1].finish_time - results[1].submit_time, 5000);
  EXPECT_EQ(h.engine.in_flight(), 0u);
}

// More op ids than a 16-bit slot index could name, through a small window,
// so slots are reused thousands of times over.
TEST(OpEngineTest, DrainsMoreThan64kOpsThroughReusedSlots) {
  Harness h;
  constexpr int kTotal = 70000;
  constexpr int kWindow = 8;
  int submitted = 0;
  std::set<const OpEngine::Op*> slots;
  std::function<void()> submit_one = [&] {
    ++submitted;
    h.engine.Submit(OpKind::kOther, 0, 0, [&](OpEngine::Op& op) {
      slots.insert(&op);
      h.engine.Delay(op, 10, [&](OpEngine::Op& o) { h.engine.Finish(o); });
    });
  };
  h.engine.set_on_complete([&](const OpResult&) {
    if (submitted < kTotal) submit_one();
  });
  for (int i = 0; i < kWindow; ++i) submit_one();
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_EQ(h.engine.submitted(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(h.engine.completed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(h.engine.in_flight(), 0u);
  EXPECT_LE(slots.size(), static_cast<std::size_t>(kWindow) + 1);
  EXPECT_EQ(h.metrics.Counter("ops.completed"),
            static_cast<std::uint64_t>(kTotal));
  EXPECT_FALSE(h.metrics.Has("ops.errors"));  // created on first error only
  const Histogram* hist = h.metrics.FindHistogram("ops.op");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(kTotal));
}

// --- BtreeOpDriver ----------------------------------------------------------

TEST(BtreeOpsTest, AsyncGetsMatchSynchronousTree) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.Insert(0, k * 7, k * 7 + 1).ok());
  }
  ASSERT_GT(tree.height(), 1);  // splits happened: real pointer chases

  BtreeOpDriver driver(&h.engine, &tree, /*num_hosts=*/4);
  int checked = 0;
  for (std::uint64_t k = 0; k < 300; k += 17) {
    driver.SubmitGet(static_cast<cluster::ServerId>(k % 4), 0, k * 7,
                     [&, k](StatusOr<std::uint64_t> v) {
                       ASSERT_TRUE(v.ok());
                       EXPECT_EQ(*v, k * 7 + 1);
                       ++checked;
                     });
  }
  driver.SubmitGet(1, 0, 999999,
                   [&](StatusOr<std::uint64_t> v) {
                     EXPECT_TRUE(IsNotFound(v.status()));
                     ++checked;
                   });
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(checked, 19);

  // Every async get paid one priced hop per tree level.
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 18u);  // misses are not successes
  EXPECT_GT(hist->p50(), 0u);
  EXPECT_GE(h.metrics.Counter("ops.hops"),
            19u * static_cast<std::uint64_t>(tree.height()));
}

TEST(BtreeOpsTest, AsyncScanMatchesSynchronousScan) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(tree.Insert(0, k * 3, k).ok());
  }
  auto expected = tree.Scan(0, 100, 50);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 50u);

  BtreeOpDriver driver(&h.engine, &tree, 4);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  driver.SubmitScan(2, 0, 100, 50,
                    [&](const auto& rows) { got = rows; });
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(got, *expected);
  const Histogram* hist = h.metrics.FindHistogram("ops.scan");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
}

TEST(BtreeOpsTest, AsyncPutsVisibleToSyncLookupAndSerialized) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;

  BtreeOpDriver::Options dopts;
  dopts.lock_stripes = 1;  // force every writer onto one lock
  BtreeOpDriver driver(&h.engine, &tree, 4, dopts);
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  const OpId a = driver.SubmitPut(0, 0, 42, 1000);
  const OpId b = driver.SubmitPut(1, 0, 43, 2000);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results[a].status.ok());
  ASSERT_TRUE(results[b].status.ok());
  auto v42 = tree.Lookup(0, 42);
  auto v43 = tree.Lookup(0, 43);
  ASSERT_TRUE(v42.ok());
  ASSERT_TRUE(v43.ok());
  EXPECT_EQ(*v42, 1000u);
  EXPECT_EQ(*v43, 2000u);
  // One writer held the single stripe while the other spun: the loser's
  // wait is measured sim time.
  EXPECT_GT(results[a].lock_spins + results[b].lock_spins, 0);
  EXPECT_NE(results[a].finish_time, results[b].finish_time);
  const Histogram* hist = h.metrics.FindHistogram("ops.put");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
}

TEST(BtreeOpsTest, GetPaysMoreHopsAsTheTreeDeepens) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 2048, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  BtreeOpDriver driver(&h.engine, &tree, 4);

  ASSERT_TRUE(tree.Insert(0, 1, 1).ok());
  int shallow_hops = 0;
  h.engine.set_on_complete(
      [&](const OpResult& r) { shallow_hops = r.hops; });
  driver.SubmitGet(0, 0, 1);
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(shallow_hops, 1);  // root-leaf tree: one hop

  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Insert(0, k, k).ok());
  }
  ASSERT_GE(tree.height(), 3);
  int deep_hops = 0;
  h.engine.set_on_complete([&](const OpResult& r) { deep_hops = r.hops; });
  driver.SubmitGet(0, 0, 1);
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(deep_hops, tree.height());
}

}  // namespace
}  // namespace lmp::ops
