// CXL.mem transaction-level model (§2.2 of the paper).
//
// CXL is a family of protocols over PCIe; for memory pooling the relevant
// one is CXL.mem: a master-to-subordinate (M2S) / subordinate-to-master
// (S2M) message protocol carried in 68-byte flits.  This module models the
// protocol at transaction granularity:
//
//  * FlitChannel — a link that carries flits; converts message sequences to
//    wire bytes and serialization delay, given the link's raw bandwidth.
//  * Type3Device — a memory expander / FAM: exposes one or more disjoint
//    memory regions (Multiple Logical Devices), serves MemRd/MemWr.
//  * SharedFam — a multi-host shared region with an INCLUSIVE SNOOP FILTER:
//    hardware coherence tracks each cached line; when the filter fills, it
//    evicts an entry by BACK-INVALIDATING the owning host.  §3.2's argument
//    that the coherent region must stay small ("lessens the likelihood of
//    filling CXL's Inclusive Snoop Filter") is directly observable here:
//    the back-invalidation rate explodes once the hosts' aggregate cached
//    footprint exceeds the filter capacity (see bench_snoop_filter).
//
// Message sizes follow the CXL 2/3 spec shape: a read is one M2S Req flit
// out and a 64-byte data response (header + data flits) back; a write is
// an M2S RwD carrying data plus an S2M NDR completion.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "mem/lru_cache.h"

namespace lmp::fabric {

inline constexpr Bytes kFlitBytes = 68;    // 64B payload + 4B CRC/header
inline constexpr Bytes kCacheLine = 64;

enum class CxlOpcode : std::uint8_t {
  kMemRd,        // M2S Req -> S2M DRS (data)
  kMemWr,        // M2S RwD (data)  -> S2M NDR (completion)
  kMemInv,       // back-invalidation (S2M BISnp in CXL 3)
};

struct CxlTransaction {
  CxlOpcode opcode = CxlOpcode::kMemRd;
  Bytes address = 0;
  Bytes length = kCacheLine;
};

// Wire cost of a transaction in each direction, in flits.
struct FlitCost {
  std::uint32_t request_flits = 0;   // host -> device
  std::uint32_t response_flits = 0;  // device -> host
  Bytes TotalBytes() const {
    return static_cast<Bytes>(request_flits + response_flits) * kFlitBytes;
  }
};

FlitCost CostOf(const CxlTransaction& txn);

// A flit channel over a raw link bandwidth.  Tracks cumulative flits and
// converts them to serialization time; the fluid simulator handles
// contention, this handles protocol overhead (the reason "34.5 GB/s" of
// link never yields 34.5 GB/s of payload).
class FlitChannel {
 public:
  explicit FlitChannel(BytesPerSec raw_bandwidth);

  // Accounts one transaction; returns its serialization delay (ns).
  SimTime Transfer(const CxlTransaction& txn);

  // Payload efficiency so far: payload bytes / wire bytes.
  double Efficiency() const;

  // Effective payload bandwidth given protocol overhead.
  BytesPerSec EffectiveBandwidth() const {
    return raw_bandwidth_ * Efficiency();
  }

  std::uint64_t flits_sent() const { return flits_; }
  double payload_bytes() const { return payload_; }

 private:
  BytesPerSec raw_bandwidth_;
  std::uint64_t flits_ = 0;
  double payload_ = 0;
};

// A Type-3 (memory) device exposing disjoint regions, one per logical
// device (MLD), each assignable to a host.
class Type3Device {
 public:
  explicit Type3Device(Bytes capacity);

  // Carves a region of `size`; regions are disjoint and immutable.
  StatusOr<int> AddRegion(Bytes size);

  Status AssignRegion(int region, int host);

  // Validates that `host` may access [address, address+length) and returns
  // the owning region index.
  StatusOr<int> Access(int host, Bytes address, Bytes length) const;

  Bytes capacity() const { return capacity_; }
  int region_count() const { return static_cast<int>(regions_.size()); }
  Bytes region_base(int region) const;
  Bytes region_size(int region) const;

 private:
  struct Region {
    Bytes base = 0;
    Bytes size = 0;
    int host = -1;  // -1 = unassigned (or shared)
  };

  Bytes capacity_;
  Bytes next_base_ = 0;
  std::vector<Region> regions_;
};

// Inclusive snoop filter for a shared FAM region: tracks which host caches
// each line.  Capacity-limited: inserting into a full filter evicts the
// least-recently-tracked line and BACK-INVALIDATES its holders.
class SnoopFilter {
 public:
  // `capacity_lines` = how many distinct lines the filter can track.
  explicit SnoopFilter(std::uint64_t capacity_lines);

  struct AccessResult {
    int invalidations = 0;       // sharers killed by a write
    int back_invalidations = 0;  // evictions due to filter capacity
  };

  // Host caches `line` for reading.
  AccessResult OnRead(int host, std::uint64_t line);
  // Host gains exclusive ownership of `line`.
  AccessResult OnWrite(int host, std::uint64_t line);

  bool IsTracked(std::uint64_t line) const;
  std::uint64_t tracked_lines() const { return sharers_.size(); }
  std::uint64_t capacity() const { return recency_.capacity(); }
  std::uint64_t total_back_invalidations() const { return back_invals_; }

 private:
  // Makes `line` the most recently tracked one; returns the holders
  // back-invalidated by the eviction that made room for it, if any.
  int Track(std::uint64_t line);

  mem::LruCache recency_;  // tracked lines in recency order
  std::uint64_t back_invals_ = 0;
  // line -> bitmask of caching hosts
  std::unordered_map<std::uint64_t, std::uint64_t> sharers_;
};

}  // namespace lmp::fabric
