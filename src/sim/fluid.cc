#include "sim/fluid.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "sim/solver_pool.h"

namespace lmp::sim {
namespace {

// Flows with fewer remaining bytes than this are considered complete;
// protects against double round-off never quite reaching zero.
constexpr double kByteEpsilon = 1e-6;
constexpr SimTime kTimeEpsilon = 1e-9;

constexpr ResourceId kNoResource = std::numeric_limits<ResourceId>::max();
constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

// Flows whose remaining duration is at most TieLimit(min) complete in the
// same event as the shortest one.  Monotone in `min`, which is what lets
// Step take the tie set in the same pass that finds the minimum.
SimTime TieLimit(SimTime min) { return min + (min * 1e-9 + kTimeEpsilon); }

}  // namespace

FluidSimulator::FluidSimulator() = default;
FluidSimulator::~FluidSimulator() = default;

ResourceId FluidSimulator::AddResource(std::string name,
                                       BytesPerSec capacity) {
  LMP_CHECK(capacity > 0) << "resource " << name << " needs capacity > 0";
  resources_.push_back(Resource{std::move(name), capacity, 0, 0, 0});
  flows_at_.emplace_back();
  headroom_.push_back(0);
  unfrozen_.push_back(0);
  res_epoch_.push_back(0);
  resource_shard_.push_back(kNoShard);
  return static_cast<ResourceId>(resources_.size() - 1);
}

Status FluidSimulator::SetCapacity(ResourceId id, BytesPerSec capacity) {
  if (id >= resources_.size()) {
    return InvalidArgumentError("no such resource");
  }
  if (capacity <= 0) return InvalidArgumentError("capacity must be > 0");
  // The utilization EWMA is already folded up to now_ at the old capacity
  // (AdvanceTo folds every resource), so the elapsed window keeps the
  // capacity it ran at.
  resources_[id].capacity = capacity;
  if (in_batch_) {
    batch_seed_.push_back(id);
    return Status::Ok();
  }
  seed_res_.clear();
  seed_res_.push_back(id);
  SolveSeeded();
  return Status::Ok();
}

BytesPerSec FluidSimulator::capacity(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].capacity;
}

const std::string& FluidSimulator::ResourceName(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].name;
}

double FluidSimulator::Utilization(ResourceId id) const {
  assert(id < resources_.size());
  const Resource& r = resources_[id];
  return r.capacity > 0 ? r.rate_sum / r.capacity : 0.0;
}

double FluidSimulator::SmoothedUtilization(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].smoothed_util;  // folded up to now_ already
}

void FluidSimulator::SetResourceShard(ResourceId id, ShardId shard) {
  LMP_CHECK(id < resources_.size()) << "no such resource";
  LMP_CHECK(shard != kNoShard) << "reserved shard id";
  LMP_CHECK(active_.empty()) << "assign shards before starting flows";
  resource_shard_[id] = shard;
  if (shard >= shard_cross_flows_.size()) {
    shard_cross_flows_.resize(shard + 1, 0);
    shard_task_.resize(shard + 1, 0);
    shard_task_epoch_.resize(shard + 1, 0);
  }
}

ShardId FluidSimulator::resource_shard(ResourceId id) const {
  assert(id < resources_.size());
  return resource_shard_[id];
}

void FluidSimulator::set_threads(int n) {
  LMP_CHECK(n >= 1) << "thread count must be >= 1";
  threads_ = n;
  pool_.reset();
  if (n > 1) pool_ = std::make_unique<SolverPool>(n);
}

FluidSimulator::Flow* FluidSimulator::AllocFlow() {
  if (free_flows_ != nullptr) {
    Flow* flow = free_flows_;
    free_flows_ = flow->next_free;
    flow->next_free = nullptr;
    return flow;
  }
  if (flow_slots_used_ % kFlowChunk == 0) {
    flow_chunks_.push_back(std::make_unique<Flow[]>(kFlowChunk));
  }
  return &flow_chunks_.back()[flow_slots_used_++ % kFlowChunk];
}

void FluidSimulator::FreeFlow(Flow* flow) {
  flow->on_done = nullptr;  // drop the callback's captures now
  flow->next_free = free_flows_;
  free_flows_ = flow;
}

void FluidSimulator::FinishRecord(FlowId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return;
  it->second.done = true;
  it->second.end = now_;
  if (flow_duration_hist_ != nullptr) {
    flow_duration_hist_->Record(
        static_cast<std::uint64_t>(now_ - it->second.start));
  }
  if (trace_ != nullptr) {
    trace_->End(trace::Category::kFlow, "flow", id, now_);
  }
}

void FluidSimulator::set_metrics(MetricsRegistry* registry) {
  flow_duration_hist_ =
      registry == nullptr
          ? nullptr
          : &registry->GetHistogram("fluid.flow_duration_ns");
}

FlowId FluidSimulator::StartFlow(double bytes,
                                 const std::vector<ResourceId>& path,
                                 FlowCallback on_done, double weight) {
  const FlowId id = next_flow_id_++;
  records_[id] = FlowRecord{now_, now_, bytes, false};

  LMP_CHECK(weight > 0) << "flow weight must be positive";
  for (ResourceId r : path) {
    LMP_CHECK(r < resources_.size()) << "flow references unknown resource";
  }
  if (trace_ != nullptr) {
    trace_->Begin(trace::Category::kFlow, "flow", id, now_,
                  {trace::Arg("bytes", bytes),
                   trace::Arg("hops", static_cast<std::uint64_t>(path.size())),
                   trace::Arg("weight", weight)});
  }

  if (bytes <= kByteEpsilon || path.empty()) {
    // Degenerate flow: completes instantly.  The record is final here, but
    // the callback is deferred through a zero-delay timer so it cannot
    // re-enter the simulator (start flows, query records) mid-StartFlow.
    FinishRecord(id);
    for (ResourceId r : path) resources_[r].bytes_served += bytes;
    if (on_done) {
      ScheduleAt(now_, [this, id, cb = std::move(on_done)](SimTime t) {
        cb(id, t);
        if (retention_ == RecordRetention::kDropCompleted) records_.erase(id);
      });
    } else if (retention_ == RecordRetention::kDropCompleted) {
      records_.erase(id);
    }
    return id;
  }

  Flow& flow = *AllocFlow();
  flow.id = id;
  flow.remaining = bytes;
  flow.rate = 0;
  flow.path.assign(path.begin(), path.end());  // reuses the slot's capacity
  flow.weight = weight;
  flow.on_done = std::move(on_done);
  flow.visit_epoch = 0;
  active_.push_back(&flow);  // ids are monotonic: stays in id order
  IndexFlow(flow);
  if (in_batch_) {
    batch_seed_.insert(batch_seed_.end(), path.begin(), path.end());
    return id;
  }
  seed_res_.clear();
  seed_res_.insert(seed_res_.end(), path.begin(), path.end());
  SolveSeeded();
  return id;
}

void FluidSimulator::BeginBatch() {
  LMP_CHECK(!in_batch_) << "BeginBatch inside an open batch";
  in_batch_ = true;
  batch_seed_.clear();
}

void FluidSimulator::EndBatch() {
  LMP_CHECK(in_batch_) << "EndBatch without BeginBatch";
  in_batch_ = false;
  if (batch_seed_.empty()) return;
  std::swap(seed_res_, batch_seed_);
  batch_seed_.clear();
  SolveSeeded();
}

void FluidSimulator::IndexFlow(Flow& flow) {
  // Ids are issued monotonically, so push_back keeps each per-resource
  // index sorted; one entry per path occurrence mirrors the solver's
  // per-occurrence accounting.
  for (ResourceId r : flow.path) {
    flows_at_[r].push_back(FlowEntry{flow.id, &flow});
  }
  UpdateShardCrossings(flow.path, +1);
}

void FluidSimulator::UnindexFlow(const Flow& flow) {
  for (ResourceId r : flow.path) {
    auto& entries = flows_at_[r];
    const auto cmp = [](const FlowEntry& e, const FlowEntry& v) {
      return e.id < v.id;
    };
    auto [lo, hi] = std::equal_range(entries.begin(), entries.end(),
                                     FlowEntry{flow.id, nullptr}, cmp);
    entries.erase(lo, hi);
    // A full solve would leave an idle resource at exactly 0; doing it
    // here lets RecomputeAll visit loaded resources only.
    if (entries.empty()) resources_[r].rate_sum = 0;
  }
  UpdateShardCrossings(flow.path, -1);
}

void FluidSimulator::UpdateShardCrossings(const std::vector<ResourceId>& path,
                                          int delta) {
  if (shard_cross_flows_.empty()) return;  // no shards assigned
  // Collect the distinct shards on the path (paths are a handful of hops;
  // a linear dedupe beats any set).  A flow confined to one shard closes
  // nothing; any other mix — two shards, or a shard plus unsharded
  // resources — holds every shard it touches open until the flow retires.
  path_shards_.clear();
  bool touches_unsharded = false;
  for (ResourceId r : path) {
    const ShardId s = resource_shard_[r];
    if (s == kNoShard) {
      touches_unsharded = true;
      continue;
    }
    if (std::find(path_shards_.begin(), path_shards_.end(), s) ==
        path_shards_.end()) {
      path_shards_.push_back(s);
    }
  }
  if (path_shards_.empty()) return;  // fully unsharded: spill-only
  if (path_shards_.size() == 1 && !touches_unsharded) return;  // internal
  for (ShardId s : path_shards_) {
    if (delta > 0) {
      ++shard_cross_flows_[s];
    } else {
      LMP_CHECK(shard_cross_flows_[s] > 0) << "cross-flow underflow";
      --shard_cross_flows_[s];
    }
  }
}

void FluidSimulator::ScheduleAt(SimTime when, TimerCallback cb) {
  LMP_CHECK(when + kTimeEpsilon >= now_) << "timer scheduled in the past";
  timers_.push_back(Timer{std::max(when, now_), next_timer_seq_++,
                          std::move(cb)});
  std::push_heap(timers_.begin(), timers_.end(),
                 [](const Timer& a, const Timer& b) { return b < a; });
}

void FluidSimulator::ScheduleAfter(SimTime delay, TimerCallback cb) {
  ScheduleAt(now_ + delay, std::move(cb));
}

void FluidSimulator::ProgressiveFill(std::vector<Work>& work,
                                     const std::vector<ResourceId>& comp_res,
                                     std::vector<double>& headroom,
                                     std::vector<double>& unfrozen) const {
  // Progressive filling: repeatedly find the resource whose equal share for
  // still-unfrozen flows is smallest, freeze those flows at that share.
  // comp_res is sorted ascending so bottleneck ties break exactly as a
  // full scan over all resources would.  This is the single weighted
  // max-min core: the incremental solver, the full solver, every shard
  // task, and the CheckAgainstFullSolve oracle all run this code, so none
  // of them can drift from the others.  Rates land in Work::rate; nothing
  // is written through Work::flow except the work_index scratch.
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i].flow->work_index = static_cast<std::uint32_t>(i);
  }
  std::size_t frozen_count = 0;
  while (frozen_count < work.size()) {
    double best_share = std::numeric_limits<double>::infinity();
    ResourceId best_res = kNoResource;
    for (ResourceId r : comp_res) {
      if (unfrozen[r] <= 0) continue;
      const double share = headroom[r] / unfrozen[r];
      if (share < best_share) {
        best_share = share;
        best_res = r;
      }
    }
    if (best_res == kNoResource) {
      // Some flows traverse no constrained resource (cannot happen: flows
      // with empty paths complete instantly), but guard anyway by giving
      // them effectively unbounded rate.
      for (auto& w : work) {
        if (!w.frozen) {
          w.rate = std::numeric_limits<double>::max();
          w.frozen = true;
          ++frozen_count;
        }
      }
      break;
    }

    // Freeze every unfrozen flow crossing the bottleneck at the fair share,
    // in id order.  flows_at_[best_res] lists exactly those flows, by id,
    // once per path occurrence, and all of them are in `work`: a component
    // holds every flow that crosses one of its resources.
    for (const FlowEntry& e : flows_at_[best_res]) {
      Work& w = work[e.flow->work_index];
      assert(w.flow == e.flow);
      if (w.frozen) continue;
      w.rate = best_share * w.flow->weight;
      w.frozen = true;
      ++frozen_count;
      for (ResourceId r : w.flow->path) {
        unfrozen[r] -= w.flow->weight;
        headroom[r] -= w.rate;
        if (headroom[r] < 0) headroom[r] = 0;  // round-off guard
      }
    }
  }
}

void FluidSimulator::RecomputeAll() {
  ++stats_.recompute_calls;
  ++stats_.full_solves;
  stats_.flows_touched += active_.size();
  if (active_.empty()) return;  // every rate_sum is 0 (see UnindexFlow)

  if (tasks_.empty()) tasks_.emplace_back();
  ShardTask& task = tasks_[0];  // scratch reuse; full solves never overlap
  task.work.clear();
  task.comp_res.clear();
  for (Flow* f : active_) task.work.push_back(Work{f->id, f, 0.0, false});

  // Remaining capacity and unfrozen WEIGHT per resource (weighted max-min:
  // the fair share is per unit of weight).  Idle resources have no weight,
  // so ProgressiveFill would skip them anyway; leaving them out of comp_res
  // keeps its bottleneck scan to the loaded ones, still in index order.
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    if (flows_at_[r].empty()) continue;
    task.comp_res.push_back(r);
    headroom_[r] = resources_[r].capacity;
    unfrozen_[r] = 0;
    resources_[r].rate_sum = 0;
  }
  for (const Work& w : task.work) {
    for (ResourceId r : w.flow->path) unfrozen_[r] += w.flow->weight;
  }

  ProgressiveFill(task.work, task.comp_res, headroom_, unfrozen_);

  for (const Work& w : task.work) {
    w.flow->rate = w.rate;
    for (ResourceId r : w.flow->path) resources_[r].rate_sum += w.rate;
  }
}

void FluidSimulator::SolveSeeded() {
  const std::uint64_t touched_before = stats_.flows_touched;
  if (!solver_timing_) {
    SolveSeededImpl();
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    SolveSeededImpl();
    const auto t1 = std::chrono::steady_clock::now();
    stats_.solve_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  if (trace_ != nullptr) {
    // Sim-time only: the number of flows re-rated, never the wall cost.
    trace_->Instant(
        trace::Category::kSolver, "rate_change", now_,
        {trace::Arg("flows", stats_.flows_touched - touched_before)});
  }
}

void FluidSimulator::SolveSeededImpl() {
  if (!incremental_) {
    RecomputeAll();
    return;
  }
  // Adaptive fallback: when the connected component keeps spanning every
  // active flow (heavily bridged topologies — incast, all-remote), the
  // component BFS is pure overhead on top of an unavoidable full solve.
  // After a streak of whole-graph components, solve fully for a cooldown
  // window, then probe incrementally again in case locality returned.
  if (full_solve_cooldown_ > 0) {
    --full_solve_cooldown_;
    RecomputeAll();
    return;
  }
  ++stats_.recompute_calls;
  ++solve_epoch_;

  // Partition the seed resources into solver tasks.  A shard with zero
  // cross-shard flows is *closed*: every flow touching it lies entirely
  // inside it, so its connected components cannot extend past the shard
  // boundary and its BFS + solve is independent of every other task.  Seeds
  // in open shards or on unsharded resources funnel into one sequential
  // "spill" task; spill components may span open shards but can never reach
  // into a closed one (any flow that could bridge them would have held the
  // shard open).  With no shards assigned, everything spills and the solve
  // is exactly the classic single-component pass.
  std::size_t num_tasks = 0;
  std::size_t spill = kNoTask;
  const auto task_index_for = [&](ResourceId r) -> std::size_t {
    const ShardId shard = resource_shard_[r];
    if (shard == kNoShard || shard_cross_flows_[shard] != 0) {
      if (spill == kNoTask) {
        spill = num_tasks++;
        if (spill == tasks_.size()) tasks_.emplace_back();
        tasks_[spill].seeds.clear();
      }
      return spill;
    }
    if (shard_task_epoch_[shard] != solve_epoch_) {
      shard_task_epoch_[shard] = solve_epoch_;
      shard_task_[shard] = num_tasks++;
      if (shard_task_[shard] == tasks_.size()) tasks_.emplace_back();
      tasks_[shard_task_[shard]].seeds.clear();
    }
    return shard_task_[shard];
  };
  if (shard_cross_flows_.empty()) {
    // Fast path: no shards assigned, single spill task.
    spill = num_tasks++;
    if (tasks_.empty()) tasks_.emplace_back();
    tasks_[0].seeds.clear();
    tasks_[0].seeds.insert(tasks_[0].seeds.end(), seed_res_.begin(),
                           seed_res_.end());
  } else {
    for (ResourceId r : seed_res_) {
      tasks_[task_index_for(r)].seeds.push_back(r);
    }
  }

  // Solve every task.  Tasks grow disjoint components and write disjoint
  // flows/resources, and each performs identical arithmetic in identical
  // order regardless of which thread runs it — results are byte-identical
  // for any thread count.  The shared epoch stamps (res_epoch_,
  // visit_epoch) are written at most once per solve per element, always by
  // the single task owning that element.
  stats_.shard_tasks += num_tasks;
  if (num_tasks > 1) ++stats_.parallel_solves;
  if (num_tasks > 1 && pool_ != nullptr) {
    pool_->Run(num_tasks, [this](std::size_t i) { SolveTask(tasks_[i]); });
  } else {
    for (std::size_t i = 0; i < num_tasks; ++i) SolveTask(tasks_[i]);
  }

  // Deterministic merge: aggregate stats in task order (task order is a
  // pure function of seed_res_ and the shard map, never of the schedule).
  std::size_t touched = 0;
  for (std::size_t i = 0; i < num_tasks; ++i) touched += tasks_[i].work.size();
  stats_.flows_touched += touched;
  if (touched == active_.size()) {
    ++stats_.full_solves;
    // The full-solve cooldown exists to skip BFS overhead when the graph
    // keeps collapsing into one whole-cluster component.  A *partitioned*
    // whole-graph solve is the opposite case: the BFS is what split it into
    // small per-shard tasks, and falling back to RecomputeAll would replace
    // them with one sequential cluster-wide fill.  Only single-task streaks
    // arm the cooldown.
    if (num_tasks > 1) {
      full_solve_streak_ = 0;
    } else {
      if (full_solve_streak_ < kFullStreakThreshold) ++full_solve_streak_;
      if (full_solve_streak_ >= kFullStreakThreshold) {
        full_solve_cooldown_ = kFullSolveCooldown;
      }
    }
  } else {
    full_solve_streak_ = 0;
  }

  if (crosscheck_) CheckAgainstFullSolve();
}

void FluidSimulator::SolveTask(ShardTask& task) {
  // Connected component(s) of the task's seed resources: alternate
  // resource -> its crossing flows -> their paths until closed.  Epoch
  // stamps make the visited sets allocation-free and are safe to share
  // across concurrent tasks because components are disjoint.
  task.comp_res.clear();
  task.work.clear();
  const auto add_res = [&](ResourceId r) {
    if (res_epoch_[r] != solve_epoch_) {
      res_epoch_[r] = solve_epoch_;
      task.comp_res.push_back(r);
    }
  };
  for (ResourceId r : task.seeds) add_res(r);
  for (std::size_t i = 0; i < task.comp_res.size(); ++i) {
    for (const FlowEntry& e : flows_at_[task.comp_res[i]]) {
      if (e.flow->visit_epoch == solve_epoch_) continue;
      e.flow->visit_epoch = solve_epoch_;
      task.work.push_back(Work{e.id, e.flow, 0.0, false});
      for (ResourceId r : e.flow->path) add_res(r);
    }
  }
  // Restore the deterministic orders the full pass iterates in: resources
  // by index (bottleneck tie-break), flows by id (freeze and rate_sum
  // accumulation order).  Required for bit-exact parity with RecomputeAll.
  std::sort(task.comp_res.begin(), task.comp_res.end());
  std::sort(task.work.begin(), task.work.end(),
            [](const Work& a, const Work& b) { return a.id < b.id; });

  for (ResourceId r : task.comp_res) {
    headroom_[r] = resources_[r].capacity;
    unfrozen_[r] = 0;
    resources_[r].rate_sum = 0;
  }
  for (const Work& w : task.work) {
    for (ResourceId r : w.flow->path) unfrozen_[r] += w.flow->weight;
  }

  ProgressiveFill(task.work, task.comp_res, headroom_, unfrozen_);

  for (const Work& w : task.work) {
    w.flow->rate = w.rate;
    for (ResourceId r : w.flow->path) resources_[r].rate_sum += w.rate;
  }
}

void FluidSimulator::CheckAgainstFullSolve() const {
  // Reference full pass over private scratch (the simulator state is
  // untouched), compared bit-exactly against the rates the incremental
  // solve left behind.  Runs the same ProgressiveFill core as production —
  // the parity being checked is component decomposition, not arithmetic.
  // Debug/test-only: allocates.
  std::vector<Work> work;
  work.reserve(active_.size());
  // ProgressiveFill only reads path/weight through the pointer and writes
  // rates into Work::rate.
  for (Flow* f : active_) work.push_back(Work{f->id, f, 0.0, false});
  std::vector<ResourceId> comp_res(resources_.size());
  std::iota(comp_res.begin(), comp_res.end(), 0);
  std::vector<double> headroom(resources_.size());
  std::vector<double> unfrozen(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    headroom[r] = resources_[r].capacity;
  }
  for (const Work& w : work) {
    for (ResourceId r : w.flow->path) unfrozen[r] += w.flow->weight;
  }

  ProgressiveFill(work, comp_res, headroom, unfrozen);

  for (const Work& w : work) {
    LMP_CHECK(w.rate == w.flow->rate)
        << "incremental solver diverged from full solve: rate "
        << w.flow->rate << " vs reference " << w.rate;
  }
  std::vector<double> rate_sum(resources_.size(), 0);
  for (const Work& w : work) {
    for (ResourceId r : w.flow->path) rate_sum[r] += w.rate;
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    LMP_CHECK(rate_sum[r] == resources_[r].rate_sum)
        << "incremental solver diverged on rate_sum of resource " << r << ": "
        << resources_[r].rate_sum << " vs reference " << rate_sum[r];
  }
}

void FluidSimulator::CreditFlow(Flow& flow, double secs) {
  // Clamp to the flow's remaining bytes: the event-defining flows run out
  // exactly here, and crediting rate * dt past that point over-counted
  // bytes_served by up to the Zeno tolerance per completion (historical
  // bug).  Residue the clamp leaves on force-completed flows is settled by
  // Step().
  const double moved = std::min(flow.rate * secs, flow.remaining);
  flow.remaining -= moved;
  for (ResourceId r : flow.path) resources_[r].bytes_served += moved;
}

void FluidSimulator::FoldUtilization(SimTime dt) {
  // Every resource was last folded at now_, so one alpha serves them all.
  const double alpha = 1.0 - std::exp(-dt / kUtilTau);
  for (Resource& r : resources_) {
    const double inst = r.capacity > 0 ? r.rate_sum / r.capacity : 0.0;
    r.smoothed_util += alpha * (inst - r.smoothed_util);
  }
}

void FluidSimulator::AdvanceTo(SimTime t) {
  assert(t >= now_);
  const SimTime dt = t - now_;
  if (dt > 0) {
    const double secs = dt / kNsPerSec;
    for (Flow* f : active_) CreditFlow(*f, secs);
    FoldUtilization(dt);
  }
  now_ = t;
}

bool FluidSimulator::Step() {
  LMP_CHECK(!in_batch_) << "Step inside an open flow batch";
  // One pass over the flow table finds the shortest remaining duration and
  // the flows that tie with it (within a relative tolerance), computing
  // each flow's duration once.  Working in durations and force-completing
  // the event-defining flows guarantees progress even when now_ is large
  // enough that absolute-time rounding would otherwise strand sub-epsilon
  // residues (a Zeno deadlock).  A flow is kept as a candidate if it ties
  // with the minimum so far; the limit only falls as the minimum does, so
  // filtering the candidates by the final limit gives the exact tie set.
  auto tied = std::move(tied_scratch_);
  tied.clear();
  SimTime min_dt = std::numeric_limits<SimTime>::infinity();
  SimTime tie_limit = min_dt;
  for (Flow* f : active_) {
    if (f->rate <= 0) continue;
    const SimTime d = f->remaining / f->rate * kNsPerSec;
    if (d < min_dt) {
      min_dt = d;
      tie_limit = TieLimit(min_dt);
    }
    if (d <= tie_limit) tied.push_back(TieCandidate{f, d});
  }
  const SimTime completion =
      std::isfinite(min_dt) ? now_ + min_dt
                            : std::numeric_limits<SimTime>::infinity();
  const SimTime timer = timers_.empty()
                            ? std::numeric_limits<SimTime>::infinity()
                            : timers_.front().when;
  if (timer <= completion) {  // also when nothing completes (both infinite)
    tied.clear();
    tied_scratch_ = std::move(tied);
    if (!std::isfinite(timer)) return false;
    AdvanceTo(timer);
    // Batched dispatch: drain every timer due at this instant before
    // running any callback, so a wave of same-time timers costs one Step
    // (and one heap drain) instead of one Step each.  Timers a callback
    // schedules at this same instant have larger seq values and would sort
    // after the drained batch anyway; they run on the next Step.  The
    // scratch is moved out so a re-entrant Step cannot clobber it.
    auto batch = std::move(timer_batch_);
    batch.clear();
    const auto heap_cmp = [](const Timer& a, const Timer& b) { return b < a; };
    while (!timers_.empty() && timers_.front().when == timer) {
      std::pop_heap(timers_.begin(), timers_.end(), heap_cmp);
      batch.push_back(std::move(timers_.back()));
      timers_.pop_back();
    }
    // Anything a callback changes (StartFlow, SetCapacity) re-solves its
    // own component; no blanket recompute is needed afterwards.
    for (Timer& t : batch) t.cb(now_);
    batch.clear();
    timer_batch_ = std::move(batch);
    return true;
  }

  const SimTime limit = TieLimit(min_dt);
  tied.erase(std::remove_if(tied.begin(), tied.end(),
                            [limit](const TieCandidate& c) {
                              return c.duration > limit;
                            }),
             tied.end());

  // Advance and collect the finished flows in one pass, compacting the
  // table in place.  Tied flows finish by definition; for the rest the
  // test reads only the flow's own state, which the tied-residue flush
  // below never touches, so it can run before that flush.
  auto done = std::move(done_scratch_);
  done.clear();
  const SimTime dt = completion - now_;
  const double secs = dt / kNsPerSec;
  std::size_t next_tied = 0;
  std::size_t kept = 0;
  for (Flow* f : active_) {
    if (dt > 0) CreditFlow(*f, secs);
    bool finished;
    if (next_tied < tied.size() && tied[next_tied].flow == f) {
      ++next_tied;
      finished = true;
    } else {
      finished = f->remaining <= kByteEpsilon ||
                 (f->rate > 0 &&
                  f->remaining / f->rate * kNsPerSec < kTimeEpsilon);
    }
    if (finished) {
      done.push_back(f);
    } else {
      active_[kept++] = f;
    }
  }
  active_.resize(kept);
  if (dt > 0) FoldUtilization(dt);
  now_ = completion;

  // The clamp in CreditFlow can leave a residue on the tied flows (the
  // event definer can round either way).  Settling it here, after every
  // flow's credit, makes per-resource BytesServed totals exact per flow
  // rather than off by up to the Zeno tolerance.
  for (const TieCandidate& c : tied) {
    Flow& f = *c.flow;
    if (f.remaining > 0) {
      for (ResourceId r : f.path) resources_[r].bytes_served += f.remaining;
      f.remaining = 0;
    }
  }
  tied.clear();
  tied_scratch_ = std::move(tied);

  seed_res_.clear();
  for (Flow* f : done) {
    FinishRecord(f->id);
    seed_res_.insert(seed_res_.end(), f->path.begin(), f->path.end());
    UnindexFlow(*f);
  }
  SolveSeeded();
  // Callbacks run after rates are consistent; they may start new flows,
  // which can reuse a slot as soon as its callback has been taken.
  for (Flow* f : done) {
    const FlowId id = f->id;
    FlowCallback cb = std::move(f->on_done);
    FreeFlow(f);
    if (cb) cb(id, now_);
    if (retention_ == RecordRetention::kDropCompleted) records_.erase(id);
  }
  done.clear();
  done_scratch_ = std::move(done);
  return true;
}

void FluidSimulator::Run() {
  while (Step()) {
  }
}

Status FluidSimulator::RunUntilFlowDone(FlowId id) {
  if (id == kInvalidFlow || id >= next_flow_id_) {
    return NotFoundError("unknown flow");
  }
  // One lookup per iteration (records can be released mid-run); a missing
  // record for a known id means it was already retired, i.e. completed.
  while (true) {
    const auto it = records_.find(id);
    if (it == records_.end() || it->second.done) return Status::Ok();
    if (!Step()) {
      return InternalError("simulation drained before flow completed");
    }
  }
}

const FlowRecord* FluidSimulator::record(FlowId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

Status FluidSimulator::ReleaseRecord(FlowId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return NotFoundError("no record for flow");
  if (!it->second.done) {
    return FailedPreconditionError("flow is still active");
  }
  records_.erase(it);
  return Status::Ok();
}

double FluidSimulator::FlowRate(FlowId id) const {
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const Flow* f, FlowId v) { return f->id < v; });
  return it != active_.end() && (*it)->id == id ? (*it)->rate : 0.0;
}

double FluidSimulator::BytesServed(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].bytes_served;
}

void FluidSimulator::ExportSolverMetrics(MetricsRegistry& registry) {
  registry.Increment("fluid.solver.recompute_calls",
                     stats_.recompute_calls - exported_.recompute_calls);
  registry.Increment("fluid.solver.flows_touched",
                     stats_.flows_touched - exported_.flows_touched);
  registry.Increment("fluid.solver.full_solves",
                     stats_.full_solves - exported_.full_solves);
  registry.Increment("fluid.solver.shard_tasks",
                     stats_.shard_tasks - exported_.shard_tasks);
  registry.Increment("fluid.solver.parallel_solves",
                     stats_.parallel_solves - exported_.parallel_solves);
  // Wall clock, not sim time: the wall. namespace keeps it out of the
  // byte-deterministic metrics JSON.
  registry.Increment("wall.fluid.solver.solve_ns",
                     stats_.solve_ns - exported_.solve_ns);
  exported_ = stats_;
}

}  // namespace lmp::sim
