// Benchmark driver: runs one workload for a fixed host time and prints one
// JSON result line.
//
//   lmp_perfbench --workload btree_ops|rack_waves|ctrl_rebalance
//                 --seed N --seconds S --trace 0|1
//                 [--threads N] [--rounds N] [--spans-out PATH]
//                 [--print-model]
//
// The run repeats rounds (set-up, measured phase, output check) until
// --seconds have passed and at least kMinRounds rounds ran; --rounds N
// runs exactly N.  With --trace 0 the result holds the end-to-end metrics:
// set-up time is the median over rounds, throughput and CPU time the best
// round, modelled numbers come from the first round, and every later round
// must reproduce them exactly.  With
// --trace 1 rounds alternate untraced and traced; the result holds the
// per-layer metrics of the traced rounds plus the tracing overhead (traced
// over untraced throughput), and --spans-out receives the kept spans.
// --print-model lists the first round's modelled numbers on stderr.
//
// Exit code 0 only when every output check passed.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "driver.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr double kMaxRunSeconds = 150;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"host_ops_per_s", "1/s"},
    {"cpu_s", "s"},             {"peak_rss_mib", "MiB"},
    {"sim_get_p50_us", "us"},   {"sim_get_p99_us", "us"},
    {"sim_put_p50_us", "us"},   {"sim_put_p99_us", "us"},
    {"sim_gbps", "GB/s"},       {"local_fraction", "ratio"},
};

// Every workload prints every per-layer metric; a layer a workload does
// not reach reads 0.
const Metric kPerLayer[] = {
    {"sim.step.count", "count"},
    {"sim.step.ns_p50", "ns"},
    {"sim.step.ns_p99", "ns"},
    {"sim.step.self_ns", "ns"},
    {"sim.events_per_op", "ratio"},
    {"sim.solve.ns", "ns"},
    {"sim.solve.calls", "count"},
    {"sim.solve.flows_touched", "count"},
    {"sim.solve.flows_per_call", "ratio"},
    {"sim.solve.full_solves", "count"},
    {"sim.solve.shard_tasks", "count"},
    {"sim.end_batch.ns", "ns"},
    {"sim.start_flow.ns", "ns"},
    {"sim.records.peak", "count"},
    {"ops.submit.count", "count"},
    {"ops.submit.ns", "ns"},
    {"ops.hops_per_op", "ratio"},
    {"ops.lock_spins_per_put", "ratio"},
    {"ops.errors", "count"},
    {"workloads.preload.ns", "ns"},
    {"core.migrate.count", "count"},
    {"core.migrate.ns_p50", "ns"},
    {"core.migrate.ns_p99", "ns"},
    {"core.readback.ns_per_mib", "ns/MiB"},
    {"mem.deploy_build.ns", "ns"},
    {"mem.rss_after_setup_mib", "MiB"},
    {"mem.cpu_sys_s", "s"},
    {"mem.alloc.free_runs", "count"},
    {"ctrl.epoch.count", "count"},
    {"ctrl.epoch.ns_p50", "ns"},
    {"ctrl.epoch.ns_p99", "ns"},
    {"ctrl.global_rounds", "count"},
    {"ctrl.oob_resolves", "count"},
    {"ctrl.pull_grants", "count"},
    {"ctrl.drains_started", "count"},
    {"ctrl.drains_completed", "count"},
    {"ctrl.drains_failed", "count"},
    {"ctrl.drain_mib", "MiB"},
    {"ctrl.resize_mib", "MiB"},
    {"ctrl.spine_mib", "MiB"},
    {"ctrl.converge_epochs", "count"},
    {"chaos.segments_lost", "count"},
    {"chaos.segments_rebuilt", "count"},
    {"chaos.max_ttr_us", "us"},
    {"fabric.topology_build.ns", "ns"},
    {"trace.overhead", "ratio"},
    {"trace.spans", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;  // 0: the workload's default
  int rounds = 0;   // 0: run for --seconds
  std::string spans_out;
  bool print_model = false;
};

template <typename T>
bool ParseNumber(std::string_view text, T& out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--print-model") {
      args.print_model = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string_view value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, args.seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, args.seconds) && args.seconds > 0;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--threads") {
      ok = ParseNumber(value, args.threads) && args.threads >= 1;
    } else if (flag == "--rounds") {
      ok = ParseNumber(value, args.rounds) && args.rounds >= 1;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  return !args.workload.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void PrintNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  std::printf("%.17g", value);
}

void PrintMetric(bool& first, const Metric& metric, double value) {
  std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", metric.name);
  PrintNumber(value);
  std::printf(", \"unit\": \"%s\"}", metric.unit);
  first = false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lmp_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--threads N] [--rounds N] [--spans-out PATH] "
                 "[--print-model]\n");
    return 2;
  }
  std::function<RoundResult(const RunConfig&, Tracer&)> run;
  int default_threads = 1;
  if (args.workload == "btree_ops") {
    run = RunBtreeOps;
  } else if (args.workload == "rack_waves") {
    run = RunRackWaves;
    default_threads = 2;
  } else if (args.workload == "ctrl_rebalance") {
    run = RunCtrlRebalance;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunConfig config;
  config.seed = args.seed;
  config.threads = args.threads > 0 ? args.threads : default_threads;
  Tracer tracer;

  std::vector<RoundResult> untraced_rounds;
  std::vector<RoundResult> traced_rounds;
  RoundResult first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::uint64_t start_ns = NowNs();
  const int min_rounds = args.trace ? 2 * kMinRounds : kMinRounds;
  for (int round = 0;; ++round) {
    const double elapsed = static_cast<double>(NowNs() - start_ns) * 1e-9;
    if (args.rounds > 0 ? round >= args.rounds
                        : (round >= min_rounds && elapsed >= args.seconds) ||
                              elapsed >= kMaxRunSeconds) {
      break;
    }
    const bool traced = args.trace && round % 2 == 1;
    tracer.set_on(traced);
    tracer.ResetStats();
    RoundResult result = run(config, tracer);
    attempted += result.attempted;
    failed += result.failed;
    if (round == 0) {
      first = result;
    } else if (result.model != first.model) {
      std::fprintf(stderr, "round %d: modelled numbers differ from round 0\n",
                   round);
      ++failed;
    }
    if (traced) {
      result.layer["trace.spans"] = static_cast<double>(tracer.SpanCount());
      traced_rounds.push_back(std::move(result));
    } else {
      untraced_rounds.push_back(std::move(result));
    }
  }

  if (args.print_model) {
    for (const auto& [name, value] : first.model) {
      std::fprintf(stderr, "model %s %.17g\n", name.c_str(), value);
    }
  }
  if (!args.spans_out.empty() && !tracer.WriteRecords(args.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    ++failed;
  }

  auto median_of = [](const std::vector<RoundResult>& rounds,
                      const std::function<double(const RoundResult&)>& f) {
    std::vector<double> values;
    for (const RoundResult& r : rounds) values.push_back(f(r));
    return Median(values);
  };
  // Every round does the same work, so the spread between rounds is the
  // shared host slowing some of them down: throughput and CPU time come
  // from the best round.
  auto best_ops_per_s = [](const std::vector<RoundResult>& rounds) {
    double best = 0;
    for (const RoundResult& r : rounds) {
      best = std::max(best, r.units / r.measured_s);
    }
    return best;
  };
  auto least_cpu_s = [](const std::vector<RoundResult>& rounds) {
    double least = rounds.empty() ? 0 : rounds.front().cpu_s;
    for (const RoundResult& r : rounds) least = std::min(least, r.cpu_s);
    return least;
  };

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed));
  bool first_metric = true;
  if (!args.trace) {
    for (const Metric& m : kEndToEnd) {
      const std::string_view name = m.name;
      double value = 0;
      if (name == "setup_s") {
        value = median_of(untraced_rounds,
                          [](const RoundResult& r) { return r.setup_s; });
      } else if (name == "host_ops_per_s") {
        value = best_ops_per_s(untraced_rounds);
      } else if (name == "cpu_s") {
        value = least_cpu_s(untraced_rounds);
      } else if (name == "peak_rss_mib") {
        value = PeakRssMib();
      } else {
        value = first.model.at(m.name);
      }
      PrintMetric(first_metric, m, value);
    }
  } else {
    for (const Metric& m : kPerLayer) {
      double value = 0;
      const std::string_view name = m.name;
      if (name == "trace.overhead") {
        value = best_ops_per_s(traced_rounds) / best_ops_per_s(untraced_rounds);
      } else if (name == "mem.cpu_sys_s") {
        // Only the first round faults its backing stores in; later rounds
        // reuse the freed heap.
        value = first.setup_sys_s;
      } else if (auto it = first.model.find(m.name); it != first.model.end()) {
        value = it->second;
      } else {
        value = median_of(traced_rounds, [&m](const RoundResult& r) {
          auto found = r.layer.find(m.name);
          return found == r.layer.end() ? 0.0 : found->second;
        });
      }
      PrintMetric(first_metric, m, value);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
