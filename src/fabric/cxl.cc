#include "fabric/cxl.h"

#include <bit>

#include "common/logging.h"

namespace lmp::fabric {
namespace {

std::uint32_t DataFlits(Bytes length) {
  // Each flit carries up to 64 payload bytes.
  return static_cast<std::uint32_t>((length + kCacheLine - 1) / kCacheLine);
}

}  // namespace

FlitCost CostOf(const CxlTransaction& txn) {
  FlitCost cost;
  switch (txn.opcode) {
    case CxlOpcode::kMemRd:
      cost.request_flits = 1;                     // M2S Req
      cost.response_flits = DataFlits(txn.length);// S2M DRS data
      break;
    case CxlOpcode::kMemWr:
      cost.request_flits = DataFlits(txn.length); // M2S RwD data
      cost.response_flits = 1;                    // S2M NDR completion
      break;
    case CxlOpcode::kMemInv:
      cost.request_flits = 1;                     // BISnp
      cost.response_flits = 1;                    // BIRsp
      break;
  }
  return cost;
}

FlitChannel::FlitChannel(BytesPerSec raw_bandwidth)
    : raw_bandwidth_(raw_bandwidth) {
  LMP_CHECK(raw_bandwidth > 0);
}

SimTime FlitChannel::Transfer(const CxlTransaction& txn) {
  const FlitCost cost = CostOf(txn);
  flits_ += cost.request_flits + cost.response_flits;
  if (txn.opcode != CxlOpcode::kMemInv) {
    payload_ += static_cast<double>(txn.length);
  }
  // Serialization delay of the wire bytes at raw bandwidth.
  return static_cast<double>(cost.TotalBytes()) / raw_bandwidth_ *
         kNsPerSec;
}

double FlitChannel::Efficiency() const {
  const double wire = static_cast<double>(flits_) * kFlitBytes;
  return wire == 0 ? 1.0 : payload_ / wire;
}

Type3Device::Type3Device(Bytes capacity) : capacity_(capacity) {
  LMP_CHECK(capacity > 0);
}

StatusOr<int> Type3Device::AddRegion(Bytes size) {
  if (size == 0) return InvalidArgumentError("empty region");
  if (next_base_ + size > capacity_) {
    return OutOfMemoryError("device capacity exhausted");
  }
  regions_.push_back(Region{next_base_, size, -1});
  next_base_ += size;
  return static_cast<int>(regions_.size() - 1);
}

Status Type3Device::AssignRegion(int region, int host) {
  if (region < 0 || region >= region_count()) {
    return NotFoundError("no such region");
  }
  regions_[region].host = host;
  return Status::Ok();
}

StatusOr<int> Type3Device::Access(int host, Bytes address,
                                  Bytes length) const {
  if (length == 0) return InvalidArgumentError("empty access");
  for (int r = 0; r < region_count(); ++r) {
    const Region& region = regions_[r];
    if (address >= region.base && address + length <= region.base +
                                                           region.size) {
      if (region.host != -1 && region.host != host) {
        return FailedPreconditionError(
            "region assigned to another host (not a shared FAM)");
      }
      return r;
    }
  }
  return NotFoundError("address not covered by any region");
}

Bytes Type3Device::region_base(int region) const {
  LMP_CHECK(region >= 0 && region < region_count());
  return regions_[region].base;
}

Bytes Type3Device::region_size(int region) const {
  LMP_CHECK(region >= 0 && region < region_count());
  return regions_[region].size;
}

SnoopFilter::SnoopFilter(std::uint64_t capacity_lines)
    : recency_(capacity_lines) {}

int SnoopFilter::Track(std::uint64_t line) {
  recency_.Access(line);
  // A miss into a full filter evicts the least-recently-tracked line; every
  // holder gets a back-invalidation message.
  int holders = 0;
  for (const mem::LruCache::Evicted& victim : recency_.TakeEvicted()) {
    auto it = sharers_.find(victim.page);
    holders += std::popcount(it->second);
    sharers_.erase(it);
  }
  back_invals_ += holders;
  return holders;
}

SnoopFilter::AccessResult SnoopFilter::OnRead(int host, std::uint64_t line) {
  AccessResult result;
  result.back_invalidations = Track(line);
  sharers_[line] |= 1ull << host;
  return result;
}

SnoopFilter::AccessResult SnoopFilter::OnWrite(int host,
                                               std::uint64_t line) {
  AccessResult result;
  result.back_invalidations = Track(line);
  // Invalidate all other sharers.
  std::uint64_t& sharers = sharers_[line];
  result.invalidations = std::popcount(sharers & ~(1ull << host));
  sharers = 1ull << host;
  return result;
}

bool SnoopFilter::IsTracked(std::uint64_t line) const {
  return sharers_.contains(line);
}

}  // namespace lmp::fabric
