// Golden digest of the fluid simulator's event core.  A seeded mix of every
// kind of event the core handles — weighted flows on shared paths, timers
// at predicted completion instants, batches, mid-flow SetCapacity,
// zero-byte and empty-path flows, ReleaseRecord and kDropCompleted — is
// hashed bit for bit: each completion's (id, time), and at checkpoints each
// resource's BytesServed and SmoothedUtilization plus the rates of recent
// flows.  The expected value was recorded before the event loop was
// flattened, so any change that moves one rounding step (a different
// accumulation order over flows, a utilisation fold at another time) fails
// here.  A legitimate model change must update kGoldenDigest and say which
// numbers moved.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "sim/fluid.h"

namespace lmp::sim {
namespace {

constexpr std::uint64_t kGoldenDigest = 0x5fdf2c3b88007ea1ull;

// 64-bit FNV-1a over the exact bit patterns of what it is fed.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct GoldenConfig {
  bool incremental = true;
  bool shards = false;
  RecordRetention retention = RecordRetention::kKeepAll;
};

class GoldenMix {
 public:
  explicit GoldenMix(const GoldenConfig& cfg) : cfg_(cfg), rng_(20231113) {
    sim_.set_incremental(cfg.incremental);
    sim_.set_solver_crosscheck(cfg.incremental);
    sim_.set_record_retention(cfg.retention);
    for (int i = 0; i < kShared; ++i) {
      shared_.push_back(
          sim_.AddResource("r" + std::to_string(i), GBps(1 + (3 * i) % 7)));
    }
    iso_ = sim_.AddResource("iso", GBps(4));
    if (cfg.shards) {
      // Two shards of four; the last two shared resources stay unsharded,
      // so paths that reach them hold their shards open.
      for (int i = 0; i < kShared - 2; ++i) {
        sim_.SetResourceShard(shared_[i], static_cast<ShardId>(i / 4));
      }
    }
  }

  std::uint64_t Run() {
    for (int step = 0; step < 1500; ++step) {
      switch (rng_.NextBounded(9)) {
        case 0:
        case 1:
          StartRandom();
          break;
        case 2: {
          sim_.BeginBatch();
          const auto n = 1 + rng_.NextBounded(5);
          for (std::uint64_t i = 0; i < n; ++i) StartRandom();
          if (rng_.NextBernoulli(0.5)) SetRandomCapacity();
          sim_.EndBatch();
          break;
        }
        case 3:
          SetRandomCapacity();
          break;
        case 4:
          StartDegenerate();
          break;
        case 5:
          StartIsolatedWithTimer();
          break;
        case 6:
          sim_.ScheduleAfter(static_cast<double>(rng_.NextBounded(4000)),
                             [this](SimTime t) {
                               digest_.Add(t);
                               StartRandom();
                             });
          break;
        default:
          break;
      }
      if (step % 7 == 0) HashState();
      sim_.Step();
    }
    sim_.Run();
    HashState();
    digest_.Add(sim_.now());
    return digest_.value();
  }

  std::size_t record_count() const { return sim_.record_count(); }
  std::size_t active_flow_count() const { return sim_.active_flow_count(); }

 private:
  static constexpr int kShared = 10;

  std::vector<ResourceId> RandomPath() {
    std::vector<ResourceId> path;
    const auto hops = 1 + rng_.NextBounded(4);
    for (std::uint64_t h = 0; h < hops; ++h) {
      // Repeats are allowed: a path may cross one resource twice.
      path.push_back(shared_[rng_.NextBounded(kShared)]);
    }
    return path;
  }

  FluidSimulator::FlowCallback OnDone() {
    return [this](FlowId id, SimTime t) {
      digest_.Add(id);
      digest_.Add(t);
      if (cfg_.retention == RecordRetention::kKeepAll && id % 2 == 0) {
        EXPECT_TRUE(sim_.ReleaseRecord(id).ok());
      }
      if (rng_.NextBernoulli(0.3)) StartRandom();
    };
  }

  void StartRandom() {
    static constexpr double kWeights[] = {0.5, 1.0, 1.0, 2.0, 3.0};
    const double bytes = 1e4 + static_cast<double>(rng_.NextBounded(4000000));
    const double weight = kWeights[rng_.NextBounded(5)];
    recent_.push_back(sim_.StartFlow(bytes, RandomPath(), OnDone(), weight));
    if (recent_.size() > 16) recent_.erase(recent_.begin());
  }

  void StartDegenerate() {
    if (rng_.NextBernoulli(0.5)) {
      sim_.StartFlow(0.0, RandomPath(), OnDone());
    } else {
      sim_.StartFlow(1e6, {}, OnDone());
    }
  }

  void SetRandomCapacity() {
    const ResourceId r = shared_[rng_.NextBounded(kShared)];
    EXPECT_TRUE(
        sim_.SetCapacity(r, GBps(1 + static_cast<double>(rng_.NextBounded(12))))
            .ok());
  }

  // A lone flow on a resource nobody else uses completes at a predictable
  // instant; a timer there lands on (or within an ulp of) the completion.
  void StartIsolatedWithTimer() {
    if (iso_busy_) return;
    iso_busy_ = true;
    const double bytes = 1e4 + static_cast<double>(rng_.NextBounded(100000));
    const SimTime when = sim_.now() + bytes / GBps(4) * kNsPerSec;
    sim_.StartFlow(bytes, {iso_}, [this, cb = OnDone()](FlowId id, SimTime t) {
      iso_busy_ = false;
      cb(id, t);
    });
    sim_.ScheduleAt(when, [this](SimTime t) {
      digest_.Add(t);
      digest_.Add(static_cast<std::uint64_t>(sim_.active_flow_count()));
    });
  }

  void HashState() {
    for (ResourceId r : shared_) {
      digest_.Add(sim_.BytesServed(r));
      digest_.Add(sim_.SmoothedUtilization(r));
    }
    digest_.Add(sim_.BytesServed(iso_));
    digest_.Add(sim_.SmoothedUtilization(iso_));
    for (FlowId f : recent_) digest_.Add(sim_.FlowRate(f));
  }

  GoldenConfig cfg_;
  Rng rng_;
  FluidSimulator sim_;
  std::vector<ResourceId> shared_;
  ResourceId iso_ = 0;
  bool iso_busy_ = false;
  std::vector<FlowId> recent_;
  Digest digest_;
};

// Incremental, sharded and full solves are bit-exact with each other, so
// all three configurations must land on the one recorded digest.
TEST(FluidGoldenDigest, SeededMixMatchesRecordedDigest) {
  const GoldenConfig configs[] = {
      {/*incremental=*/true, /*shards=*/false, RecordRetention::kKeepAll},
      {/*incremental=*/true, /*shards=*/true, RecordRetention::kDropCompleted},
      {/*incremental=*/false, /*shards=*/false, RecordRetention::kKeepAll},
  };
  for (const GoldenConfig& cfg : configs) {
    GoldenMix mix(cfg);
    const std::uint64_t digest = mix.Run();
    EXPECT_EQ(digest, kGoldenDigest)
        << "incremental=" << cfg.incremental << " shards=" << cfg.shards
        << " digest=0x" << std::hex << digest;
    EXPECT_EQ(mix.active_flow_count(), 0u);
    if (cfg.retention == RecordRetention::kDropCompleted) {
      EXPECT_EQ(mix.record_count(), 0u);
    }
  }
}

}  // namespace
}  // namespace lmp::sim
