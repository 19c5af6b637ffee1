// Shared pieces of the benchmark driver: run configuration, the per-round
// result, host-clock phase timing and the span tracer.
//
// Every workload runs as a sequence of rounds.  A round builds its own
// deployment (the set-up phase), drives a fixed, seeded amount of
// simulated work (the measured phase) and then checks the outputs.  The
// modelled numbers of a round depend only on the seed, so every round of a
// run must reproduce them exactly; host times vary from round to round.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  int threads = 1;  // fluid solver threads
};

// Names of the spans the driver records around its calls into each layer.
enum class SpanName : std::uint8_t {
  kSimStep,
  kSimEndBatch,
  kSimStartFlow,
  kOpsSubmit,
  kCoreMigrate,
  kCoreReadback,
  kCtrlEpoch,
  kWorkloadsPreload,
  kMemDeployBuild,
  kFabricTopologyBuild,
  kDriverCallback,  // driver code run from a sim timer or completion hook
  kCount,
};
const char* SpanNameText(SpanName name);

// Host-clock spans kept in memory.  Each span has a name, start, end and
// parent.  A span's self time is its duration minus the time its child
// spans cover and minus the fluid solver's own time inside it (read from
// the simulator's solver timing), so solver work is never charged to the
// driver call or Step that triggered it.  Disabled tracers cost one branch
// per span.
class Tracer {
 public:
  struct Stat {
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint32_t> samples_ns;  // per-span durations
  };
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void Begin(SpanName name);
  void End();
  // Starts solver-time accounting against `sim` (which must outlive the
  // round) and turns its solver timing on.
  void WatchSolver(lmp::sim::FluidSimulator& sim);

  const Stat& stat(SpanName name) const {
    return stats_[static_cast<int>(name)];
  }
  // Clears the per-round statistics and the watched simulator; kept
  // records survive.
  void ResetStats();

  // Spans ended since the last ResetStats.
  std::uint64_t SpanCount() const;
  // Writes the kept spans (the first kMaxRecords of the run) as
  // tab-separated text: index, name, start_ns, end_ns, parent.
  bool WriteRecords(const std::string& path) const;

 private:
  struct Record {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  // index of the parent's record, -1 at the root
    SpanName name;
  };
  struct Open {
    SpanName name;
    std::uint64_t start_ns;
    std::uint64_t solve_start_ns;
    std::uint64_t child_ns;        // covered by child spans
    std::uint64_t child_solve_ns;  // solver time inside child spans
    std::int32_t record;  // -1 when the record was dropped
  };
  static constexpr std::size_t kMaxRecords = 1u << 18;

  std::uint64_t SolveNs() const {
    return solve_ns_ == nullptr ? 0 : *solve_ns_;
  }

  bool on_ = false;
  const std::uint64_t* solve_ns_ = nullptr;
  std::vector<Open> stack_;
  Stat stats_[static_cast<int>(SpanName::kCount)];
  std::vector<Record> records_;
};

class Span {
 public:
  Span(Tracer& tracer, SpanName name)
      : tracer_(tracer.on() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

std::uint64_t NowNs();
double CpuSeconds();     // user + sys of the whole process
double SysCpuSeconds();  // sys only
double RssMib();         // resident set now
double PeakRssMib();     // resident set high-water mark

// What one round reports.
struct RoundResult {
  double setup_s = 0;
  double measured_s = 0;
  double cpu_s = 0;        // user + sys over set-up and measured phase
  double setup_sys_s = 0;  // sys over set-up
  double rss_after_setup_mib = 0;
  double units = 0;  // work items completed in the measured phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Modelled results and layer counts: a function of the seed alone.
  std::map<std::string, double> model;
  // Host-clock layer values, filled on traced rounds only.
  std::map<std::string, double> layer;
};

// Brackets the phases of one round on the host clock.
class RoundClock {
 public:
  RoundClock();
  void SetupDone(RoundResult& result);
  void MeasuredDone(RoundResult& result);

 private:
  std::uint64_t start_ns_;
  double cpu0_;
  double sys0_;
  std::uint64_t setup_end_ns_ = 0;
};

// Steps `sim` until its event queue drains, or until `*stop` turns true.
// On traced rounds each Step is a span.
struct DriveStats {
  std::uint64_t steps = 0;
  std::uint64_t records_peak = 0;
};
DriveStats DriveSim(lmp::sim::FluidSimulator& sim, Tracer& tracer,
                    const bool* stop = nullptr);

// Nearest-rank percentile of `values` (which it sorts); 0 when empty.
double Percentile(std::vector<double>& values, double p);
double Percentile(std::vector<std::uint32_t>& values, double p);

// Adds the host-clock layer values every traced round reports from the
// tracer: per-span totals and per-call percentiles.
void AddSpanLayerValues(const Tracer& tracer,
                        const lmp::sim::FluidSimulator& sim,
                        const DriveStats& drive, RoundResult& result);

// Adds the solver's counters to the modelled numbers (they are
// deterministic and identical for every thread count).
void AddSolverCounts(const lmp::sim::FluidSimulator& sim,
                     const DriveStats& drive, double units,
                     RoundResult& result);

// Bytes served by every server's DRAM: each data path ends at one.
double DramBytesServed(const lmp::sim::FluidSimulator& sim,
                       const lmp::fabric::Topology& topo);
// Free runs summed over every server's shared-region allocator.
double FreeRunCount(lmp::cluster::Cluster& cluster);

RoundResult RunBtreeOps(const RunConfig& config, Tracer& tracer);
RoundResult RunRackWaves(const RunConfig& config, Tracer& tracer);
RoundResult RunCtrlRebalance(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
