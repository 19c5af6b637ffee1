// rack_waves: batched waves of rack-local flows over a few thousand
// servers in racks of 128, each rack a solver shard.
//
// Set-up builds the logical topology and generates every flow from the
// seed.  Each flow is a read (a core pulling from its own or a rack peer's
// DRAM) or a write (a DMA push into a rack peer, or a local store).  The
// measured phase starts one batched wave per interval, so almost all host
// time is the fluid simulator: Step bookkeeping over some 100 000 active
// flows, ProgressiveFill over each rack's flows and the sharded EndBatch
// solve.  The op engine, PoolManager, allocators and controllers are
// never touched.
//
// Output check: every flow completes, and each resource's BytesServed
// equals the bytes of the completed flows whose paths cross it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "driver.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace perfbench {
namespace {

using namespace lmp;

constexpr int kServers = 2048;
constexpr int kPerRack = 128;
constexpr int kCores = 14;
constexpr int kWaves = 6;
constexpr int kFlowsPerServer = 10;
constexpr SimTime kWaveInterval = Microseconds(250);
constexpr int kLocalFlows = 2;  // of each server's flows per wave
constexpr int kWriteFlows = 3;

struct FlowSpec {
  double bytes;
  std::uint32_t src;
  std::uint32_t dst;  // == src for a local access
  std::uint16_t core;
  std::uint8_t wave;
  bool write;
};

std::vector<sim::ResourceId> PathOf(const fabric::Topology& topo,
                                    const FlowSpec& f) {
  if (f.src == f.dst) return topo.LocalPath(f.src, f.core);
  return f.write ? topo.DmaRemotePath(f.src, f.dst)
                 : topo.RemotePath(f.src, f.core, f.dst);
}

}  // namespace

RoundResult RunRackWaves(const RunConfig& config, Tracer& tracer) {
  RoundResult result;
  RoundClock clock;

  sim::FluidSimulator sim;
  sim.set_threads(config.threads);
  if (tracer.on()) tracer.WatchSolver(sim);
  sim.set_record_retention(sim::RecordRetention::kDropCompleted);
  std::unique_ptr<fabric::Topology> topo;
  {
    Span span(tracer, SpanName::kFabricTopologyBuild);
    topo = std::make_unique<fabric::Topology>(fabric::Topology::MakeLogical(
        &sim, kServers, fabric::LinkProfile::Link1()));
    topo->AssignRackShards(kPerRack);
  }

  // Within one wave every server runs the same flow pattern, so flows
  // finish in a few tied batches that re-rate every rack at once (one shard
  // task per rack) instead of one event per flow.  The seed picks each
  // wave's flow size (within 10% of 2 MB) and each rack's ring offset.
  Rng rng(config.seed);
  std::vector<FlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(kWaves) * kServers * kFlowsPerServer);
  for (int w = 0; w < kWaves; ++w) {
    const double bytes = 1.9e6 + static_cast<double>(rng.NextBounded(200001));
    for (int rack_base = 0; rack_base < kServers; rack_base += kPerRack) {
      const int offset = 1 + static_cast<int>(rng.NextBounded(kPerRack - 1));
      for (int s = rack_base; s < rack_base + kPerRack; ++s) {
        const auto peer = static_cast<std::uint32_t>(
            rack_base + (s - rack_base + offset) % kPerRack);
        for (int i = 0; i < kFlowsPerServer; ++i) {
          FlowSpec f;
          f.bytes = bytes;
          f.src = static_cast<std::uint32_t>(s);
          f.dst = i < kLocalFlows ? f.src : peer;
          f.core = static_cast<std::uint16_t>(i % kCores);
          f.wave = static_cast<std::uint8_t>(w);
          f.write = i >= kFlowsPerServer - kWriteFlows;
          flows.push_back(f);
        }
      }
    }
  }
  std::vector<SimTime> done_at(flows.size(), -1);
  clock.SetupDone(result);

  // Measured phase -----------------------------------------------------------
  const std::size_t per_wave =
      static_cast<std::size_t>(kServers) * kFlowsPerServer;
  for (int w = 0; w < kWaves; ++w) {
    sim.ScheduleAt(w * kWaveInterval, [&, w](SimTime) {
      sim.BeginBatch();
      for (std::size_t i = w * per_wave; i < (w + 1) * per_wave; ++i) {
        const std::vector<sim::ResourceId> path = PathOf(*topo, flows[i]);
        SimTime* slot = &done_at[i];
        Span span(tracer, SpanName::kSimStartFlow);
        sim.StartFlow(flows[i].bytes, path,
                      [slot](sim::FlowId, SimTime t) { *slot = t; });
      }
      Span span(tracer, SpanName::kSimEndBatch);
      sim.EndBatch();
    });
  }
  const DriveStats drive = DriveSim(sim, tracer);
  clock.MeasuredDone(result);

  // Output check ------------------------------------------------------------
  std::uint64_t incomplete = 0;
  std::vector<double> expected;  // by resource id, from the flow specs
  std::vector<double> get_us;
  std::vector<double> put_us;
  double total_bytes = 0;
  double local_bytes = 0;
  SimTime last_done = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (done_at[i] < 0) {
      ++incomplete;
      continue;
    }
    for (const sim::ResourceId r : PathOf(*topo, f)) {
      if (r >= expected.size()) expected.resize(r + 1, 0.0);
      expected[r] += f.bytes;
    }
    const double us =
        static_cast<double>(done_at[i] - f.wave * kWaveInterval) / 1e3;
    (f.write ? put_us : get_us).push_back(us);
    total_bytes += f.bytes;
    if (f.src == f.dst) local_bytes += f.bytes;
    last_done = std::max(last_done, done_at[i]);
  }
  std::uint64_t unbalanced = 0;
  for (sim::ResourceId r = 0; r < expected.size(); ++r) {
    const double served = sim.BytesServed(r);
    if (std::abs(served - expected[r]) > 1e-9 * std::max(1.0, expected[r])) {
      ++unbalanced;
    }
  }
  if (incomplete + unbalanced > 0) {
    std::fprintf(stderr,
                 "rack_waves: %llu flows incomplete, %llu resources with "
                 "unbalanced bytes\n",
                 static_cast<unsigned long long>(incomplete),
                 static_cast<unsigned long long>(unbalanced));
  }

  result.units = static_cast<double>(flows.size() - incomplete);
  result.attempted = flows.size();
  result.failed = incomplete + unbalanced;

  const double dram_bytes = DramBytesServed(sim, *topo);
  auto& model = result.model;
  model["sim_get_p50_us"] = Percentile(get_us, 0.50);
  model["sim_get_p99_us"] = Percentile(get_us, 0.99);
  model["sim_put_p50_us"] = Percentile(put_us, 0.50);
  model["sim_put_p99_us"] = Percentile(put_us, 0.99);
  model["sim_gbps"] = dram_bytes / (static_cast<double>(last_done) / 1e9) / 1e9;
  model["local_fraction"] = local_bytes / total_bytes;
  AddSolverCounts(sim, drive, result.units, result);
  if (tracer.on()) AddSpanLayerValues(tracer, sim, drive, result);
  return result;
}

}  // namespace perfbench
