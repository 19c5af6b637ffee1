#include "driver.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kSimStep: return "sim.step";
    case SpanName::kSimEndBatch: return "sim.end_batch";
    case SpanName::kSimStartFlow: return "sim.start_flow";
    case SpanName::kOpsSubmit: return "ops.submit";
    case SpanName::kCoreMigrate: return "core.migrate";
    case SpanName::kCoreReadback: return "core.readback";
    case SpanName::kCtrlEpoch: return "ctrl.epoch";
    case SpanName::kWorkloadsPreload: return "workloads.preload";
    case SpanName::kMemDeployBuild: return "mem.deploy_build";
    case SpanName::kFabricTopologyBuild: return "fabric.topology_build";
    case SpanName::kDriverCallback: return "driver.callback";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_utime) + Seconds(usage.ru_stime);
}

double SysCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return Seconds(usage.ru_stime);
}

double RssMib() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tracer::Begin(SpanName name) {
  std::int32_t record = -1;
  const std::uint64_t start = NowNs();
  if (records_.size() < kMaxRecords) {
    record = static_cast<std::int32_t>(records_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{start, 0, parent, name});
  }
  stack_.push_back(Open{name, start, SolveNs(), 0, 0, record});
}

void Tracer::End() {
  const std::uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  const std::uint64_t solve = SolveNs() - open.solve_start_ns;
  const std::uint64_t covered =
      open.child_ns + (solve - std::min(solve, open.child_solve_ns));
  Stat& stat = stats_[static_cast<int>(open.name)];
  stat.total_ns += duration;
  stat.self_ns += duration > covered ? duration - covered : 0;
  stat.samples_ns.push_back(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(duration, UINT32_MAX)));
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].end_ns = end;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    stack_.back().child_solve_ns += solve;
  }
}

std::uint64_t Tracer::SpanCount() const {
  std::uint64_t count = 0;
  for (const Stat& stat : stats_) count += stat.samples_ns.size();
  return count;
}

void Tracer::WatchSolver(lmp::sim::FluidSimulator& sim) {
  sim.set_solver_timing(true);
  solve_ns_ = &sim.solver_stats().solve_ns;
}

void Tracer::ResetStats() {
  for (Stat& stat : stats_) stat = Stat{};
  solve_ns_ = nullptr;
}

bool Tracer::WriteRecords(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\n", i, SpanNameText(r.name),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns), r.parent);
  }
  return std::fclose(f) == 0;
}

RoundClock::RoundClock()
    : start_ns_(NowNs()), cpu0_(CpuSeconds()), sys0_(SysCpuSeconds()) {}

void RoundClock::SetupDone(RoundResult& result) {
  setup_end_ns_ = NowNs();
  result.setup_s = static_cast<double>(setup_end_ns_ - start_ns_) * 1e-9;
  result.setup_sys_s = SysCpuSeconds() - sys0_;
  result.rss_after_setup_mib = RssMib();
}

void RoundClock::MeasuredDone(RoundResult& result) {
  result.measured_s = static_cast<double>(NowNs() - setup_end_ns_) * 1e-9;
  result.cpu_s = CpuSeconds() - cpu0_;
}

DriveStats DriveSim(lmp::sim::FluidSimulator& sim, Tracer& tracer,
                    const bool* stop) {
  DriveStats stats;
  if (!tracer.on()) {
    while ((stop == nullptr || !*stop) && sim.Step()) ++stats.steps;
    return stats;
  }
  for (;;) {
    if (stop != nullptr && *stop) break;
    tracer.Begin(SpanName::kSimStep);
    const bool stepped = sim.Step();
    tracer.End();
    if (!stepped) break;
    ++stats.steps;
    stats.records_peak = std::max<std::uint64_t>(stats.records_peak,
                                                 sim.record_count());
  }
  return stats;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Percentile(std::vector<std::uint32_t>& values, double p) {
  std::vector<double> copy(values.begin(), values.end());
  return Percentile(copy, p);
}

void AddSpanLayerValues(const Tracer& tracer,
                        const lmp::sim::FluidSimulator& sim,
                        const DriveStats& drive, RoundResult& result) {
  auto& layer = result.layer;
  auto total = [&](SpanName name) {
    return static_cast<double>(tracer.stat(name).total_ns);
  };
  auto pct = [&](SpanName name, double p) {
    std::vector<std::uint32_t> samples = tracer.stat(name).samples_ns;
    return Percentile(samples, p);
  };
  const Tracer::Stat& step = tracer.stat(SpanName::kSimStep);
  layer["sim.step.ns_p50"] = pct(SpanName::kSimStep, 0.50);
  layer["sim.step.ns_p99"] = pct(SpanName::kSimStep, 0.99);
  layer["sim.step.self_ns"] = static_cast<double>(step.self_ns);
  layer["sim.solve.ns"] = static_cast<double>(sim.solver_stats().solve_ns);
  layer["sim.end_batch.ns"] = total(SpanName::kSimEndBatch);
  layer["sim.start_flow.ns"] = total(SpanName::kSimStartFlow);
  layer["ops.submit.ns"] = total(SpanName::kOpsSubmit);
  layer["core.migrate.ns_p50"] = pct(SpanName::kCoreMigrate, 0.50);
  layer["core.migrate.ns_p99"] = pct(SpanName::kCoreMigrate, 0.99);
  layer["ctrl.epoch.ns_p50"] = pct(SpanName::kCtrlEpoch, 0.50);
  layer["ctrl.epoch.ns_p99"] = pct(SpanName::kCtrlEpoch, 0.99);
  layer["workloads.preload.ns"] = total(SpanName::kWorkloadsPreload);
  layer["mem.deploy_build.ns"] = total(SpanName::kMemDeployBuild);
  layer["fabric.topology_build.ns"] = total(SpanName::kFabricTopologyBuild);
  layer["mem.rss_after_setup_mib"] = result.rss_after_setup_mib;
  layer["sim.records.peak"] = static_cast<double>(drive.records_peak);
}

void AddSolverCounts(const lmp::sim::FluidSimulator& sim,
                     const DriveStats& drive, double units,
                     RoundResult& result) {
  const lmp::sim::SolverStats& st = sim.solver_stats();
  auto& model = result.model;
  model["sim.step.count"] = static_cast<double>(drive.steps);
  model["sim.events_per_op"] =
      units > 0 ? static_cast<double>(drive.steps) / units : 0;
  model["sim.solve.calls"] = static_cast<double>(st.recompute_calls);
  model["sim.solve.flows_touched"] = static_cast<double>(st.flows_touched);
  model["sim.solve.flows_per_call"] =
      st.recompute_calls > 0 ? static_cast<double>(st.flows_touched) /
                                   static_cast<double>(st.recompute_calls)
                             : 0;
  model["sim.solve.full_solves"] = static_cast<double>(st.full_solves);
  model["sim.solve.shard_tasks"] = static_cast<double>(st.shard_tasks);
}

double DramBytesServed(const lmp::sim::FluidSimulator& sim,
                       const lmp::fabric::Topology& topo) {
  double bytes = 0;
  for (int s = 0; s < topo.num_servers(); ++s) {
    bytes += sim.BytesServed(
        topo.dram(static_cast<lmp::fabric::ServerIndex>(s)));
  }
  return bytes;
}

double FreeRunCount(lmp::cluster::Cluster& cluster) {
  std::size_t runs = 0;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    runs += cluster.server(static_cast<lmp::cluster::ServerId>(s))
                .shared_allocator()
                .free_run_count();
  }
  return static_cast<double>(runs);
}

}  // namespace perfbench
