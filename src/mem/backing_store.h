// BackingStore: real memory behind the functional layer.
//
// The pool manager operates on real bytes — reads, writes, and migrations
// actually move data, so correctness (address-stable migration, coherence,
// recovery) is testable.  Benchmarks that sweep paper-scale capacities
// (96 GB) run the timing layer against frame *accounting* only and create
// no BackingStore; functional tests use small frame counts.
//
// The bytes live in an anonymous private mapping made with MAP_NORESERVE,
// so a store costs only the frames that are written: an untouched frame
// reads as zeros from the kernel's zero page and commits no memory.  The
// mapping is advised MADV_HUGEPAGE so that first-touch faults on large
// regions (failover and drain destinations) fill 2 MiB at a time.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <span>

#include "common/logging.h"
#include "common/units.h"
#include "mem/frame_allocator.h"

namespace lmp::mem {

class BackingStore {
 public:
  BackingStore(std::uint64_t num_frames, Bytes frame_size)
      : frame_size_(frame_size) {
    LMP_CHECK(frame_size > 0);
    EnsureFrames(num_frames);
  }
  ~BackingStore() {
    if (size_ > 0) munmap(data_, size_);
  }
  BackingStore(const BackingStore&) = delete;
  BackingStore& operator=(const BackingStore&) = delete;

  std::uint64_t num_frames() const { return size_ / frame_size_; }
  Bytes frame_size() const { return frame_size_; }

  std::span<std::byte> Frame(FrameNumber f) {
    LMP_CHECK(f < num_frames());
    return std::span<std::byte>(data_ + f * frame_size_, frame_size_);
  }
  std::span<const std::byte> Frame(FrameNumber f) const {
    LMP_CHECK(f < num_frames());
    return std::span<const std::byte>(data_ + f * frame_size_, frame_size_);
  }

  // Byte-addressed accessors; [offset, offset+len) may span frames.
  void Read(Bytes offset, std::span<std::byte> out) const {
    LMP_CHECK(offset + out.size() <= size_);
    if (!out.empty()) std::memcpy(out.data(), data_ + offset, out.size());
  }
  void Write(Bytes offset, std::span<const std::byte> in) {
    LMP_CHECK(offset + in.size() <= size_);
    if (!in.empty()) std::memcpy(data_ + offset, in.data(), in.size());
  }

  // Grow to match a resized FrameAllocator.  Never shrinks: the allocator
  // guarantees the shrunk tail holds no live data, so the bytes are kept.
  // Growth extends the mapping with mremap(MREMAP_MAYMOVE), which neither
  // touches nor copies pages; written bytes persist and the new frames
  // read as zeros.  The mapping may move, so growth invalidates every span
  // and pointer previously taken from Frame().
  void EnsureFrames(std::uint64_t num_frames) {
    const Bytes size = num_frames * frame_size_;
    if (size <= size_) return;
    void* p = size_ == 0
                  ? mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)
                  : mremap(data_, size_, size, MREMAP_MAYMOVE);
    LMP_CHECK(p != MAP_FAILED) << "cannot map " << size << " bytes";
    madvise(p, size, MADV_HUGEPAGE);  // advice only; failure is harmless
    data_ = static_cast<std::byte*>(p);
    size_ = size;
  }

 private:
  Bytes frame_size_;
  std::byte* data_ = nullptr;
  Bytes size_ = 0;
};

}  // namespace lmp::mem
