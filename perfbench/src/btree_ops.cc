// btree_ops: a closed-loop Zipf get/put/scan mix on a pool-resident B+tree.
//
// Set-up builds a four-server logical deployment with real backing stores,
// preloads a PoolBtree arena, slices it into segments and homes every
// other segment on a peer server.  The measured phase drives a fixed
// number of ops from server 0 through ops::BtreeOpDriver while a churn
// timer keeps rotating segments between server 0 and its peers, so the
// arena stays half remote.  Every node access is a tiny priced flow, so this
// workload is dominated by sim event bookkeeping, the op engine and
// PoolManager span resolution; solves are trivially small.
//
// Output check: after the loop drains, every key read through the
// synchronous PoolBtree API (and one full ordered scan) must equal a
// std::map reference that applies each put at its completion.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/logical.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/pool_manager.h"
#include "driver.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "workloads/pool_btree.h"

namespace perfbench {
namespace {

using namespace lmp;

constexpr int kServers = 4;
constexpr int kCores = 4;
constexpr Bytes kServerMem = MiB(32);
constexpr std::uint32_t kArenaNodes = 8192;  // 4 MiB of 512-byte nodes
constexpr std::uint64_t kKeys = 40000;
constexpr std::uint64_t kKeyStride = 7;
constexpr int kSlices = 32;
constexpr int kOps = 48000;
constexpr int kWindow = 64;  // outstanding ops of the closed loop
constexpr int kScanRows = 16;
constexpr std::uint64_t kScrambleSeed = 0x5ca1ab1e;
constexpr SimTime kChurnPeriod = Microseconds(2);
// Zipf-hot keys make puts queue on their stripe lock; the spin bound is
// set high enough that a put waits instead of failing.
constexpr int kLockStripes = 1024;
constexpr int kMaxLockSpins = 1 << 20;

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.cores_per_server = kCores;
  config.server_total_memory = kServerMem;
  config.server_shared_memory = kServerMem;
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

std::vector<core::SegmentId> Segments(core::PoolManager& manager,
                                      core::BufferId buffer) {
  auto info = manager.Describe(buffer);
  LMP_CHECK(info.ok());
  return info->segments;
}

bool HomedOn(core::PoolManager& manager, core::SegmentId seg,
             cluster::ServerId server) {
  const core::SegmentInfo* info = manager.segment_map().Find(seg);
  return info != nullptr && !info->home.is_pool() &&
         info->home.server == server;
}

}  // namespace

RoundResult RunBtreeOps(const RunConfig& config, Tracer& tracer) {
  RoundResult result;
  RoundClock clock;
  MetricsRegistry registry;

  std::unique_ptr<baselines::LogicalDeployment> deploy;
  {
    Span span(tracer, SpanName::kMemDeployBuild);
    deploy = std::make_unique<baselines::LogicalDeployment>(
        fabric::LinkProfile::Link0(), Config());
  }
  sim::FluidSimulator& sim = deploy->simulator();
  sim.set_threads(config.threads);
  if (tracer.on()) tracer.WatchSolver(sim);
  core::PoolManager& manager = deploy->manager();
  manager.set_metrics(&registry);

  ops::OpEngine::Options options;
  options.metrics = &registry;
  options.max_lock_spins = kMaxLockSpins;
  ops::OpEngine engine(&sim, &deploy->topology(), &manager, options);
  auto tree_or = workloads::PoolBtree::Create(&manager, kArenaNodes, 0);
  LMP_CHECK(tree_or.ok());
  workloads::PoolBtree& tree = *tree_or;
  ops::BtreeOpDriver::Options driver_options;
  driver_options.lock_stripes = kLockStripes;
  ops::BtreeOpDriver driver(&engine, &tree, kServers, driver_options);

  std::map<std::uint64_t, std::uint64_t> reference;
  {
    Span span(tracer, SpanName::kWorkloadsPreload);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      LMP_CHECK_OK(tree.Insert(0, k * kKeyStride, k));
      reference[k * kKeyStride] = k;
    }
  }
  const Bytes arena_bytes =
      static_cast<Bytes>(kArenaNodes) * workloads::PoolBtree::kNodeBytes;
  for (int i = 1; i < kSlices; ++i) {
    LMP_CHECK_OK(manager.SplitSegmentAt(
        tree.buffer(), arena_bytes / kSlices * static_cast<Bytes>(i)));
  }
  const std::vector<core::SegmentId> initial = Segments(manager, tree.buffer());
  for (std::size_t i = 1; i < initial.size(); i += 2) {
    const auto dst =
        static_cast<cluster::ServerId>(1 + (i / 2) % (kServers - 1));
    LMP_CHECK(manager.MigrateSegment(initial[i], dst).ok());
  }

  // Zipf ranks map through a fixed permutation (a scrambled Zipf, as in
  // YCSB), so the hot keys spread over the arena instead of piling into its
  // first leaves.  The permutation is part of the workload; the seed draws
  // the request stream.
  std::vector<std::uint64_t> rank_to_key(kKeys);
  std::iota(rank_to_key.begin(), rank_to_key.end(), 0);
  Rng scramble(kScrambleSeed);
  scramble.Shuffle(rank_to_key);
  Rng rng(config.seed);
  ZipfGenerator zipf(kKeys, 0.99, config.seed ^ 0x5eedull);
  Rng churn_rng(config.seed ^ 0xc0ffeeull);
  clock.SetupDone(result);

  // Measured phase -----------------------------------------------------------
  std::vector<double> get_us;
  std::vector<double> put_us;
  get_us.reserve(kOps);
  put_us.reserve(kOps);
  std::unordered_map<ops::OpId, std::pair<std::uint64_t, std::uint64_t>>
      pending_puts;
  std::uint64_t hops = 0;
  std::uint64_t put_spins = 0;
  std::uint64_t op_errors = 0;
  std::uint64_t migrations = 0;
  int submitted = 0;
  int completed = 0;

  std::function<void()> submit_one = [&] {
    const std::uint64_t key = rank_to_key[zipf.Next()] * kKeyStride;
    const int mix = static_cast<int>(rng.NextBounded(100));
    const int core = submitted % kCores;
    ++submitted;
    Span span(tracer, SpanName::kOpsSubmit);
    if (mix < 50) {
      driver.SubmitGet(0, core, key);
    } else if (mix < 85) {
      const std::uint64_t value = rng.NextBounded(1ull << 40);
      const ops::OpId id = driver.SubmitPut(0, core, key, value);
      pending_puts.emplace(id, std::make_pair(key, value));
    } else {
      driver.SubmitScan(0, core, key, kScanRows);
    }
  };
  engine.set_on_complete([&](const ops::OpResult& op) {
    Span span(tracer, SpanName::kDriverCallback);
    ++completed;
    hops += static_cast<std::uint64_t>(op.hops);
    const double us =
        static_cast<double>(op.finish_time - op.submit_time) / 1e3;
    if (!op.status.ok()) ++op_errors;
    if (op.kind == ops::OpKind::kGet) get_us.push_back(us);
    if (op.kind == ops::OpKind::kPut) {
      put_us.push_back(us);
      put_spins += static_cast<std::uint64_t>(op.lock_spins);
      auto it = pending_puts.find(op.id);
      LMP_CHECK(it != pending_puts.end());
      // Stripe locks serialise puts to one key, so completion order is
      // the order the tree applied them in.
      if (op.status.ok()) reference[it->second.first] = it->second.second;
      pending_puts.erase(it);
    }
    if (submitted < kOps) submit_one();
  });

  // Churn: each period sends the longest-local segment to a random peer
  // and brings the longest-remote one home, so over a run every segment
  // spends about half its time local wherever the hot keys sit.
  std::deque<core::SegmentId> local;
  std::deque<core::SegmentId> remote;
  for (std::size_t i = 0; i < initial.size(); ++i) {
    (i % 2 == 0 ? local : remote).push_back(initial[i]);
  }
  std::function<void(SimTime)> churn = [&](SimTime) {
    Span span(tracer, SpanName::kDriverCallback);
    if (completed >= kOps) return;
    const auto dst = static_cast<cluster::ServerId>(
        1 + churn_rng.NextBounded(kServers - 1));
    const core::SegmentId out = local.front();
    const core::SegmentId in = remote.front();
    local.pop_front();
    remote.pop_front();
    for (const auto& [seg, to] :
         {std::pair{out, dst}, std::pair{in, cluster::ServerId{0}}}) {
      Span migrate(tracer, SpanName::kCoreMigrate);
      ++migrations;
      (void)manager.MigrateSegment(seg, to);  // a busy segment may refuse
    }
    (HomedOn(manager, out, 0) ? local : remote).push_back(out);
    (HomedOn(manager, in, 0) ? local : remote).push_back(in);
    sim.ScheduleAfter(kChurnPeriod, churn);
  };
  sim.ScheduleAfter(kChurnPeriod, churn);

  for (int i = 0; i < kWindow; ++i) submit_one();
  const DriveStats drive = DriveSim(sim, tracer);
  clock.MeasuredDone(result);

  // Output check ------------------------------------------------------------
  std::uint64_t mismatches = 0;
  if (completed != kOps || engine.in_flight() != 0) {
    std::fprintf(stderr, "btree_ops: %d of %d ops completed\n", completed,
                 kOps);
    mismatches += static_cast<std::uint64_t>(kOps - completed);
  }
  for (const auto& [key, value] : reference) {
    auto got = tree.Lookup(0, key);
    if (!got.ok() || *got != value) ++mismatches;
  }
  auto rows = tree.Scan(0, 0, reference.size() + 1);
  if (!rows.ok() || rows->size() != reference.size() ||
      !std::equal(rows->begin(), rows->end(), reference.begin(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first && a.second == b.second;
                  })) {
    ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "btree_ops: %llu reference mismatches\n",
                 static_cast<unsigned long long>(mismatches));
  }

  result.units = completed;
  result.attempted = static_cast<std::uint64_t>(kOps) + reference.size();
  result.failed = op_errors + mismatches;

  const fabric::Topology& topo = deploy->topology();
  const double dram_bytes = DramBytesServed(sim, topo);
  const double sim_s = static_cast<double>(sim.now()) / 1e9;
  auto& model = result.model;
  model["sim_get_p50_us"] = Percentile(get_us, 0.50);
  model["sim_get_p99_us"] = Percentile(get_us, 0.99);
  model["sim_put_p50_us"] = Percentile(put_us, 0.50);
  model["sim_put_p99_us"] = Percentile(put_us, 0.99);
  model["sim_gbps"] = dram_bytes / sim_s / 1e9;
  model["local_fraction"] = sim.BytesServed(topo.dram(0)) / dram_bytes;
  AddSolverCounts(sim, drive, result.units, result);
  model["ops.submit.count"] = submitted;
  model["ops.hops_per_op"] = static_cast<double>(hops) / result.units;
  model["ops.lock_spins_per_put"] =
      put_us.empty() ? 0
                     : static_cast<double>(put_spins) /
                           static_cast<double>(put_us.size());
  model["ops.errors"] = static_cast<double>(op_errors);
  model["core.migrate.count"] = static_cast<double>(migrations);
  model["mem.alloc.free_runs"] = FreeRunCount(deploy->cluster());
  if (tracer.on()) AddSpanLayerValues(tracer, sim, drive, result);
  return result;
}

}  // namespace perfbench
