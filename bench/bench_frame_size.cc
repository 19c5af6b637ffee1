// Frame-size ablation: the metadata/granularity trade behind §5's
// "fine grained and can be resolved locally" translation argument.
// Smaller frames mean finer migration/caching units but more frames to
// track; larger frames shrink the maps but waste capacity to internal
// fragmentation on small allocations.
#include <chrono>
#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/pool_manager.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

struct FrameOutcome {
  double map_entries_per_gib;    // frames to track per GiB
  double frag_overhead_percent;  // capacity lost to rounding, small allocs
  double alloc_us;               // avg allocation+free cost (wall)
};

FrameOutcome Measure(Bytes frame_size) {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = GiB(24);
  config.server_shared_memory = GiB(24);
  config.frame_size = frame_size;
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);

  FrameOutcome out;
  out.map_entries_per_gib =
      static_cast<double>(kGiB) / static_cast<double>(frame_size);

  // Fragmentation: many small, odd-sized allocations.
  Rng rng(3);
  Bytes requested = 0;
  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 2000; ++i) {
    const Bytes size = KiB(1) * rng.NextInRange(1, 96);  // 1-96 KiB
    auto buf = manager.Allocate(size, 0);
    if (!buf.ok()) break;
    requested += size;
    buffers.push_back(*buf);
  }
  const Bytes used =
      cluster.PooledCapacityBytes() - cluster.PooledFreeBytes();
  out.frag_overhead_percent =
      100.0 * (static_cast<double>(used) - static_cast<double>(requested)) /
      static_cast<double>(requested);

  // Allocation cost at this granularity (wall clock, coarse).
  const auto start = std::chrono::steady_clock::now();
  constexpr int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    auto buf = manager.Allocate(MiB(64), 1);
    LMP_CHECK(buf.ok());
    LMP_CHECK_OK(manager.Free(*buf));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  out.alloc_us =
      static_cast<double>(elapsed.count()) / kOps / 1000.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  std::printf(
      "== Frame-size ablation: metadata vs fragmentation vs alloc cost "
      "==\n");
  TablePrinter table({"Frame size", "Map entries/GiB", "Frag overhead"});
  // Wall-clock cost varies run to run, so it goes to stderr and stdout
  // stays deterministic.
  TablePrinter wall({"Frame size", "64MiB alloc+free (us)"});
  for (const Bytes frame : {KiB(4), KiB(64), MiB(2)}) {
    const FrameOutcome out = Measure(frame);
    const std::string label =
        frame >= kMiB ? std::to_string(frame / kMiB) + " MiB"
                      : std::to_string(frame / kKiB) + " KiB";
    table.AddRow({label, TablePrinter::Num(out.map_entries_per_gib, 0),
                  TablePrinter::Num(out.frag_overhead_percent, 1) + "%"});
    wall.AddRow({label, TablePrinter::Num(out.alloc_us, 1)});
  }
  table.Print();
  std::fputs(wall.ToString().c_str(), stderr);
  std::printf(
      "\n4 KiB frames track 262144 entries per GiB — fine for a per-server\n"
      "map resolved locally (the point of two-step translation) but far\n"
      "too many to replicate globally; 2 MiB frames cut metadata 512x at\n"
      "a few percent fragmentation on small-object workloads (Section 5).\n");
  sidecar.Flush();
  return 0;
}
