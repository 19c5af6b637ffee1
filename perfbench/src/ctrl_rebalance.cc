// ctrl_rebalance: hierarchical control epochs through a demand shift and
// a replicated rack failure.
//
// Set-up builds a three-rack logical deployment with real backing stores
// behind an oversubscribed spine, fills every tenant buffer with a seeded
// pattern and replicates it (replicas land on racks 1 and 2, since rack 0
// is the fullest).  The measured phase runs a tenant consumer that touches
// its whole hot set once per tick (the controller's demand signal) and
// issues priced reads and writes of seeded sizes at a steady rate,
// round-robin over the 256 KiB slices of its hot buffers.  At the
// shift the consumer moves to rack 1 and server 0 claims most of its DRAM
// back; later rack 0 fails (a chaos::FaultPlan).  The driver runs every
// HierController epoch itself from its own sim timer, so each is timed;
// the controller's own period is set past the horizon, which leaves only
// the fault listener's out-of-band epochs to it.  Host time goes to event
// bookkeeping for the tenant traffic, control epochs, drain attempts and
// failover, and set-up to zero-filling and copying real backing stores;
// the fluid solver does little.
//
// Output check: no segment is lost, no tenant access finds its data
// unavailable, and every tenant buffer reads back its pattern through
// PoolManager::Read at the end.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "baselines/logical.h"
#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "ctrl/demand_estimator.h"
#include "ctrl/hier/hier_controller.h"
#include "driver.h"

namespace perfbench {
namespace {

using namespace lmp;

constexpr int kRacks = 3;
constexpr int kPerRack = 3;
constexpr int kServers = kRacks * kPerRack;
constexpr Bytes kServerMem = MiB(32);
constexpr Bytes kBufferBytes = MiB(2);
constexpr Bytes kSliceBytes = KiB(256);
constexpr std::uint64_t kSlicesPerBuffer = kBufferBytes / kSliceBytes;
constexpr int kHotBuffers = 8;
constexpr int kColdBuffers = 4;
constexpr int kBallastPerServer = 6;  // on servers 1 and 2
constexpr cluster::ServerId kConsumerAfterShift = 3;  // rack 1

constexpr SimTime kEpoch = Milliseconds(2);
constexpr SimTime kTick = Milliseconds(1);
constexpr SimTime kShift = Milliseconds(20);
constexpr SimTime kFail = Milliseconds(100);
constexpr SimTime kEnd = Milliseconds(600);
constexpr int kGetsPerTick = 12;
constexpr int kPutsPerTick = 6;
constexpr Bytes kGetBytes = KiB(128);  // mean size; each access is drawn
constexpr Bytes kPutBytes = KiB(32);   // from [mean/2, 3*mean/2)

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.server_total_memory = kServerMem;
  config.server_shared_memory = kServerMem;
  config.frame_size = KiB(64);
  config.with_backing = true;
  return config;
}

// Word `i` of tenant buffer `b` under `seed`.
std::uint64_t PatternWord(std::uint64_t seed, std::size_t b, std::size_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (b << 32) + i;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void FillPattern(std::uint64_t seed, std::size_t b,
                 std::vector<std::uint64_t>& words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = PatternWord(seed, b, i);
  }
}

// One priced tenant access: a flow per located span, done when the last
// one drains.
struct Access {
  SimTime issued = 0;
  int outstanding = 0;
  bool write = false;
};

}  // namespace

RoundResult RunCtrlRebalance(const RunConfig& config, Tracer& tracer) {
  RoundResult result;
  RoundClock clock;
  MetricsRegistry registry;

  std::unique_ptr<baselines::LogicalDeployment> deploy;
  {
    Span span(tracer, SpanName::kMemDeployBuild);
    deploy = std::make_unique<baselines::LogicalDeployment>(
        fabric::LinkProfile::Link1(), Config());
  }
  sim::FluidSimulator& sim = deploy->simulator();
  sim.set_threads(config.threads);
  if (tracer.on()) tracer.WatchSolver(sim);
  fabric::Topology& topo = deploy->topology();
  topo.AssignRackShards(kPerRack);
  topo.ProvisionSpine(topo.link().bandwidth / 4);
  core::PoolManager& manager = deploy->manager();
  manager.set_metrics(&registry);
  manager.access_tracker().set_half_life(Milliseconds(20));

  // Tenant buffers: the hot set and a cold set on server 0, ballast
  // tenants on servers 1 and 2.  All of them are filled and replicated.
  std::vector<core::BufferId> buffers;
  std::vector<cluster::ServerId> owners;  // each buffer's writer
  std::vector<core::BufferId> hot;
  auto allocate = [&](cluster::ServerId server) {
    auto buf = manager.Allocate(kBufferBytes, server);
    LMP_CHECK(buf.ok());
    buffers.push_back(*buf);
    owners.push_back(server);
    return *buf;
  };
  for (int i = 0; i < kHotBuffers; ++i) hot.push_back(allocate(0));
  for (int i = 0; i < kColdBuffers; ++i) allocate(0);
  for (int i = 0; i < kBallastPerServer; ++i) {
    allocate(1);
    allocate(2);
  }
  std::vector<std::uint64_t> words(kBufferBytes / sizeof(std::uint64_t));
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    FillPattern(config.seed, b, words);
    LMP_CHECK_OK(manager.Write(
        owners[b], buffers[b], 0,
        std::as_bytes(std::span<const std::uint64_t>(words))));
  }
  // Hot buffers move in 256 KiB segments, so a spine grant smaller than a
  // whole buffer can still pull part of it.
  for (const core::BufferId buf : hot) {
    for (Bytes at = kSliceBytes; at < kBufferBytes; at += kSliceBytes) {
      LMP_CHECK_OK(manager.SplitSegmentAt(buf, at));
    }
  }
  core::ReplicationManager replication(&manager, /*replication_factor=*/2);
  for (const core::BufferId buf : buffers) {
    LMP_CHECK_OK(replication.ProtectBuffer(buf));
  }

  chaos::FaultInjector injector(chaos::FaultInjector::Bindings{
      .sim = &sim, .topology = &topo, .manager = &manager});
  injector.set_metrics(&registry);
  chaos::FaultPlan plan;
  plan.RackFailAt(kFail, {0, 1, 2});
  LMP_CHECK_OK(injector.SchedulePlan(plan));

  ctrl::hier::HierConfig hc;
  hc.period = kEnd * 1000;  // never fires: the driver runs the epochs
  hc.global_every = 2;
  hc.rack.min_step = MiB(1);
  hc.rack.cooldown = Milliseconds(4);
  hc.rack.estimator.time_constant = Milliseconds(5);
  hc.rack.estimator.headroom_factor = 1.25;
  ctrl::hier::HierController hier(
      ctrl::hier::HierController::Bindings{.sim = &sim,
                                           .manager = &manager,
                                           .topology = &topo,
                                           .injector = &injector},
      hc);
  hier.set_metrics(&registry);
  for (int s = 0; s < kPerRack; ++s) {
    hier.rack_of(static_cast<cluster::ServerId>(s))
        .sizing()
        .estimator()
        .SetPrivateFloor(static_cast<cluster::ServerId>(s), MiB(4));
  }
  ctrl::DemandEstimator meter(&manager);
  Rng rng(config.seed);
  clock.SetupDone(result);

  // Measured phase -----------------------------------------------------------
  std::vector<double> get_us;
  std::vector<double> put_us;
  std::uint64_t accesses = 0;
  std::uint64_t unavailable = 0;
  auto issue = [&](cluster::ServerId accessor, bool write, SimTime now) {
    // Accesses visit the hot slices round-robin; the seed draws each
    // access's size and offset within its slice.
    const std::uint64_t slot = accesses++ % (hot.size() * kSlicesPerBuffer);
    const core::BufferId buf = hot[slot / kSlicesPerBuffer];
    const Bytes mean = write ? kPutBytes : kGetBytes;
    const Bytes len = mean / 2 + rng.NextBounded(mean);
    const Bytes offset =
        slot % kSlicesPerBuffer * kSliceBytes +
        rng.NextBounded((kSliceBytes - len) / KiB(4) + 1) * KiB(4);
    const int core = static_cast<int>(rng.NextBounded(4));
    auto spans = manager.Spans(buf, offset, len);
    if (!spans.ok()) {
      ++unavailable;
      return;
    }
    auto access = std::make_shared<Access>();
    access->issued = now;
    access->write = write;
    access->outstanding = static_cast<int>(spans->size());
    for (const core::LocatedSpan& span : *spans) {
      const auto home = static_cast<fabric::ServerIndex>(span.location.server);
      const auto path = home == accessor
                            ? topo.LocalPath(accessor, core)
                            : topo.RemotePath(accessor, core, home);
      sim.StartFlow(static_cast<double>(span.bytes), path,
                    [&, access](sim::FlowId f, SimTime t) {
                      (void)sim.ReleaseRecord(f);
                      if (--access->outstanding > 0) return;
                      const double us =
                          static_cast<double>(t - access->issued) / 1e3;
                      (access->write ? put_us : get_us).push_back(us);
                    });
    }
  };
  for (SimTime t = 0; t < kEnd; t += kTick) {
    sim.ScheduleAt(t, [&](SimTime now) {
      Span span(tracer, SpanName::kDriverCallback);
      const cluster::ServerId accessor = now < kShift ? 0 : kConsumerAfterShift;
      // The controller's demand signal: the consumer's working set, every
      // hot byte once per tick (as access counters sampled per tick would
      // report it).  It does not depend on the seed, so neither do the
      // controller's decisions.
      for (const core::BufferId buf : hot) {
        auto spans = manager.Spans(buf, 0, kBufferBytes);
        if (!spans.ok()) continue;
        for (const core::LocatedSpan& piece : *spans) {
          manager.access_tracker().RecordAccess(
              piece.segment, accessor, static_cast<double>(piece.bytes), now);
        }
      }
      // The tick's priced accesses start evenly spaced across it.
      constexpr int kPerTick = kGetsPerTick + kPutsPerTick;
      for (int i = 0; i < kPerTick; ++i) {
        const bool write = i % 3 == 2;
        sim.ScheduleAfter(kTick * i / kPerTick,
                          [&, accessor, write](SimTime at) {
                            issue(accessor, write, at);
                          });
      }
    });
  }
  // The shift: server 0's own application wants most of its DRAM back.
  sim.ScheduleAt(kShift, [&](SimTime) {
    hier.rack_of(0).sizing().estimator().SetPrivateFloor(0, MiB(24));
  });
  std::vector<double> samples;  // observed local fraction after each epoch
  int epochs = 0;
  for (SimTime t = kEpoch; t < kEnd; t += kEpoch) {
    sim.ScheduleAt(t, [&](SimTime now) {
      Span span(tracer, SpanName::kDriverCallback);
      {
        Span epoch(tracer, SpanName::kCtrlEpoch);
        hier.RunEpochNow();
      }
      ++epochs;
      samples.push_back(meter.ObservedLocalFraction(now));
    });
  }
  bool stop = false;
  sim.ScheduleAt(kEnd, [&stop](SimTime) { stop = true; });
  hier.Start();
  const DriveStats drive = DriveSim(sim, tracer, &stop);
  hier.Stop();
  clock.MeasuredDone(result);

  // Output check ------------------------------------------------------------
  std::uint64_t drains_started = 0, drains_completed = 0, drains_failed = 0;
  Bytes drain_bytes = 0, resize_bytes = 0;
  for (int r = 0; r < hier.num_racks(); ++r) {
    const ctrl::ControllerStats& st = hier.rack(r).sizing().stats();
    drains_started += st.drains_started;
    drains_completed += st.drains_completed;
    drains_failed += st.drains_failed;
    drain_bytes += st.drain_bytes;
    resize_bytes += st.resize_bytes;
  }
  const chaos::ChaosReport chaos_report = injector.report();
  std::uint64_t bad_buffers = 0;
  std::vector<std::uint64_t> expected(words.size());
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    Status read;
    {
      Span span(tracer, SpanName::kCoreReadback);
      read = manager.Read(
          kConsumerAfterShift, buffers[b], 0,
          std::as_writable_bytes(std::span<std::uint64_t>(words)), kEnd);
    }
    FillPattern(config.seed, b, expected);
    if (!read.ok() || words != expected) ++bad_buffers;
  }
  // Drains that fail leave data where it was; they are a controller cost
  // (ctrl.drains_failed), not an output error.
  const std::uint64_t failed =
      static_cast<std::uint64_t>(chaos_report.segments_lost) + bad_buffers +
      unavailable;
  if (failed > 0) {
    std::fprintf(stderr,
                 "ctrl_rebalance: %d segments lost, %llu buffers read back "
                 "wrong, %llu accesses unavailable\n",
                 chaos_report.segments_lost,
                 static_cast<unsigned long long>(bad_buffers),
                 static_cast<unsigned long long>(unavailable));
  }

  result.units = static_cast<double>(epochs) * kRacks;
  result.attempted = buffers.size() + accesses;
  result.failed = failed;

  // Epochs from the rack failure until the observed local fraction comes
  // within 2% of its final value and stays there.
  const double final_local = samples.back();
  const auto fail_idx = static_cast<std::size_t>(kFail / kEpoch) - 1;
  std::size_t converge = 0;
  for (std::size_t i = samples.size(); i-- > fail_idx;) {
    if (samples[i] < final_local - 0.02) {
      converge = i + 1 - fail_idx;
      break;
    }
  }

  const double dram_bytes = DramBytesServed(sim, topo);
  const ctrl::hier::HierStats& hs = hier.stats();
  auto& model = result.model;
  model["sim_get_p50_us"] = Percentile(get_us, 0.50);
  model["sim_get_p99_us"] = Percentile(get_us, 0.99);
  model["sim_put_p50_us"] = Percentile(put_us, 0.50);
  model["sim_put_p99_us"] = Percentile(put_us, 0.99);
  model["sim_gbps"] = dram_bytes / (static_cast<double>(sim.now()) / 1e9) / 1e9;
  model["local_fraction"] = final_local;
  AddSolverCounts(sim, drive, result.units, result);
  model["ctrl.epoch.count"] = epochs;
  model["ctrl.global_rounds"] = static_cast<double>(hs.global_rounds);
  model["ctrl.oob_resolves"] = static_cast<double>(hs.oob_resolves);
  model["ctrl.pull_grants"] = static_cast<double>(hs.pull_grants);
  model["ctrl.drains_started"] = static_cast<double>(drains_started);
  model["ctrl.drains_completed"] = static_cast<double>(drains_completed);
  model["ctrl.drains_failed"] = static_cast<double>(drains_failed);
  model["ctrl.drain_mib"] = static_cast<double>(drain_bytes) / kMiB;
  model["ctrl.resize_mib"] = static_cast<double>(resize_bytes) / kMiB;
  model["ctrl.spine_mib"] = static_cast<double>(hier.SpineBytesMoved()) / kMiB;
  model["ctrl.converge_epochs"] = static_cast<double>(converge);
  model["chaos.segments_lost"] = chaos_report.segments_lost;
  model["chaos.segments_rebuilt"] = chaos_report.segments_rebuilt;
  model["chaos.max_ttr_us"] =
      static_cast<double>(chaos_report.max_time_to_redundancy) / 1e3;
  model["mem.alloc.free_runs"] = FreeRunCount(deploy->cluster());
  if (tracer.on()) {
    AddSpanLayerValues(tracer, sim, drive, result);
    result.layer["core.readback.ns_per_mib"] =
        static_cast<double>(tracer.stat(SpanName::kCoreReadback).total_ns) /
        (static_cast<double>(buffers.size() * kBufferBytes) / kMiB);
  }
  return result;
}

}  // namespace perfbench
