// Tests for the CXL.mem transaction model: flit costs, channel efficiency,
// Type-3 device regions, and the inclusive snoop filter with
// back-invalidation (§2.2 / §3.2).
#include <gtest/gtest.h>

#include "fabric/cxl.h"

namespace lmp::fabric {
namespace {

// --- FlitCost ----------------------------------------------------------------

TEST(FlitCostTest, CacheLineRead) {
  const FlitCost cost = CostOf({CxlOpcode::kMemRd, 0, kCacheLine});
  EXPECT_EQ(cost.request_flits, 1u);   // M2S Req
  EXPECT_EQ(cost.response_flits, 1u);  // one data flit
  EXPECT_EQ(cost.TotalBytes(), 2 * kFlitBytes);
}

TEST(FlitCostTest, CacheLineWrite) {
  const FlitCost cost = CostOf({CxlOpcode::kMemWr, 0, kCacheLine});
  EXPECT_EQ(cost.request_flits, 1u);   // RwD carries the data
  EXPECT_EQ(cost.response_flits, 1u);  // NDR completion
}

TEST(FlitCostTest, LargeReadScalesDataFlits) {
  const FlitCost cost = CostOf({CxlOpcode::kMemRd, 0, KiB(4)});
  EXPECT_EQ(cost.request_flits, 1u);
  EXPECT_EQ(cost.response_flits, 64u);  // 4096 / 64
}

TEST(FlitCostTest, SubLineRoundsUpToOneFlit) {
  const FlitCost cost = CostOf({CxlOpcode::kMemRd, 0, 8});
  EXPECT_EQ(cost.response_flits, 1u);
}

TEST(FlitCostTest, BackInvalidationIsControlOnly) {
  const FlitCost cost = CostOf({CxlOpcode::kMemInv, 0, kCacheLine});
  EXPECT_EQ(cost.request_flits, 1u);
  EXPECT_EQ(cost.response_flits, 1u);
}

// --- FlitChannel -----------------------------------------------------------------

TEST(FlitChannelTest, SerializationDelayMatchesWireBytes) {
  FlitChannel channel(GBps(34.5));
  const SimTime delay = channel.Transfer({CxlOpcode::kMemRd, 0, kCacheLine});
  // 2 flits x 68 B at 34.5 GB/s.
  EXPECT_NEAR(delay, 2.0 * kFlitBytes / 34.5, 0.01);
}

TEST(FlitChannelTest, EfficiencyBelowOneForSmallReads) {
  FlitChannel channel(GBps(34.5));
  for (int i = 0; i < 100; ++i) {
    channel.Transfer({CxlOpcode::kMemRd, 0, kCacheLine});
  }
  // 64 payload bytes ride 136 wire bytes per read.
  EXPECT_NEAR(channel.Efficiency(), 64.0 / 136.0, 1e-9);
  EXPECT_LT(channel.EffectiveBandwidth(), GBps(34.5));
}

TEST(FlitChannelTest, LargeTransfersAmortizeHeaders) {
  FlitChannel small(GBps(10)), large(GBps(10));
  small.Transfer({CxlOpcode::kMemRd, 0, kCacheLine});
  large.Transfer({CxlOpcode::kMemRd, 0, MiB(1)});
  EXPECT_GT(large.Efficiency(), small.Efficiency());
  EXPECT_GT(large.Efficiency(), 0.9);
}

// --- Type3Device --------------------------------------------------------------------

TEST(Type3DeviceTest, RegionsAreDisjoint) {
  Type3Device device(GiB(64));
  auto r0 = device.AddRegion(GiB(16));
  auto r1 = device.AddRegion(GiB(16));
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_EQ(device.region_base(*r0), 0u);
  EXPECT_EQ(device.region_base(*r1), GiB(16));
  EXPECT_EQ(device.region_count(), 2);
}

TEST(Type3DeviceTest, CapacityEnforced) {
  Type3Device device(GiB(8));
  ASSERT_TRUE(device.AddRegion(GiB(8)).ok());
  EXPECT_TRUE(IsOutOfMemory(device.AddRegion(1).status()));
}

TEST(Type3DeviceTest, AssignedRegionRejectsOtherHosts) {
  Type3Device device(GiB(8));
  auto r = device.AddRegion(GiB(4));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(device.AssignRegion(*r, /*host=*/1).ok());
  EXPECT_TRUE(device.Access(1, 0, kCacheLine).ok());
  EXPECT_EQ(device.Access(2, 0, kCacheLine).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Type3DeviceTest, UnassignedRegionIsShared) {
  Type3Device device(GiB(8));
  ASSERT_TRUE(device.AddRegion(GiB(4)).ok());
  EXPECT_TRUE(device.Access(0, 0, kCacheLine).ok());
  EXPECT_TRUE(device.Access(3, GiB(2), kCacheLine).ok());
}

TEST(Type3DeviceTest, AccessOutsideRegionsRejected) {
  Type3Device device(GiB(8));
  ASSERT_TRUE(device.AddRegion(GiB(4)).ok());
  EXPECT_TRUE(IsNotFound(device.Access(0, GiB(5), kCacheLine).status()));
  // Straddling the region end is also rejected.
  EXPECT_TRUE(IsNotFound(
      device.Access(0, GiB(4) - 8, kCacheLine).status()));
}

// --- SnoopFilter ----------------------------------------------------------------------

TEST(SnoopFilterTest, TracksReadersAndWriters) {
  SnoopFilter filter(16);
  EXPECT_EQ(filter.OnRead(0, 1).back_invalidations, 0);
  EXPECT_EQ(filter.OnRead(1, 1).back_invalidations, 0);
  EXPECT_TRUE(filter.IsTracked(1));
  // A write invalidates the other sharer.
  EXPECT_EQ(filter.OnWrite(2, 1).invalidations, 2);
}

TEST(SnoopFilterTest, WriterRewriteIsQuiet) {
  SnoopFilter filter(16);
  filter.OnWrite(0, 5);
  EXPECT_EQ(filter.OnWrite(0, 5).invalidations, 0);
}

TEST(SnoopFilterTest, CapacityEvictionBackInvalidates) {
  SnoopFilter filter(2);
  filter.OnRead(0, 1);
  filter.OnRead(0, 2);
  const auto result = filter.OnRead(0, 3);  // evicts line 1 (LRU)
  EXPECT_EQ(result.back_invalidations, 1);
  EXPECT_FALSE(filter.IsTracked(1));
  EXPECT_TRUE(filter.IsTracked(3));
}

TEST(SnoopFilterTest, EvictionInvalidatesEverySharer) {
  SnoopFilter filter(1);
  filter.OnRead(0, 7);
  filter.OnRead(1, 7);
  filter.OnRead(2, 7);
  const auto result = filter.OnRead(0, 8);  // evicts line 7
  EXPECT_EQ(result.back_invalidations, 3);
  EXPECT_EQ(filter.total_back_invalidations(), 3u);
}

TEST(SnoopFilterTest, RecencyProtectsHotLines) {
  SnoopFilter filter(2);
  filter.OnRead(0, 1);
  filter.OnRead(0, 2);
  filter.OnRead(0, 1);  // 1 is now MRU
  filter.OnRead(0, 3);  // must evict 2, not 1
  EXPECT_TRUE(filter.IsTracked(1));
  EXPECT_FALSE(filter.IsTracked(2));
  filter.OnWrite(1, 1);  // a write refreshes too: 3 is now LRU
  filter.OnRead(0, 4);   // must evict 3, not 1
  EXPECT_TRUE(filter.IsTracked(1));
  EXPECT_FALSE(filter.IsTracked(3));
}

// The §3.2 design point: a working set within the filter capacity causes
// ZERO back-invalidations; exceed it and every new line thrashes.
TEST(SnoopFilterTest, SmallCoherentRegionAvoidsThrash) {
  SnoopFilter filter(1024);
  // Working set of 512 lines, cycled 10x: fits.
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      filter.OnRead(line % 4, line);
    }
  }
  EXPECT_EQ(filter.total_back_invalidations(), 0u);

  SnoopFilter small(256);
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      small.OnRead(line % 4, line);
    }
  }
  EXPECT_GT(small.total_back_invalidations(), 4000u);  // thrashing
}

}  // namespace
}  // namespace lmp::fabric
