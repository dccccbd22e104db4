// Physical memory: a pool of 4 KiB frames backing the simulated kernel.
//
// kmalloc slabs, vmalloc areas, and page-cache pages all draw frames from
// here, so "extra consumption of physical memory because the memory is
// allocated in units of pages" (paper §3.2) is directly observable in the
// pool statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/errno.hpp"

namespace usk::vm {

inline constexpr std::size_t kPageSize = 4096;
inline constexpr std::size_t kPageShift = 12;

/// Physical frame number.
using Pfn = std::uint32_t;
inline constexpr Pfn kInvalidPfn = static_cast<Pfn>(-1);

/// Virtual address inside the simulated kernel address space.
using VAddr = std::uint64_t;

inline constexpr VAddr page_base(VAddr a) { return a & ~(kPageSize - 1); }
inline constexpr std::uint64_t page_number(VAddr a) { return a >> kPageShift; }
inline constexpr std::size_t page_offset(VAddr a) { return a & (kPageSize - 1); }
inline constexpr std::size_t pages_for(std::size_t bytes) {
  return (bytes + kPageSize - 1) / kPageSize;
}

struct PhysStats {
  std::uint64_t total_frames = 0;
  std::uint64_t allocated_frames = 0;
  std::uint64_t peak_allocated = 0;
  std::uint64_t alloc_calls = 0;
  std::uint64_t free_calls = 0;
};

/// Fixed-size pool of physical frames with a free list.
class PhysMem {
 public:
  explicit PhysMem(std::size_t frames);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  /// Allocate one frame; returns kENOMEM when the pool is exhausted.
  Result<Pfn> alloc_frame();

  /// Allocate `count` physically contiguous frames (first-fit scan),
  /// like the kernel's higher-order page allocations.
  Result<Pfn> alloc_contiguous(std::size_t count);
  void free_contiguous(Pfn first, std::size_t count);

  /// Return a frame to the free list. The frame is poisoned with 0x5a to
  /// catch use-after-free in higher layers.
  void free_frame(Pfn pfn);

  /// Direct-map window into the frame's bytes (kernel linear mapping).
  [[nodiscard]] std::byte* frame_data(Pfn pfn);
  [[nodiscard]] const std::byte* frame_data(Pfn pfn) const;

  [[nodiscard]] bool is_allocated(Pfn pfn) const;
  [[nodiscard]] const PhysStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t free_frames() const { return free_list_.size(); }
  [[nodiscard]] std::size_t frame_count() const { return allocated_.size(); }

  /// Frame number owning `p`, or kInvalidPfn when `p` is not inside the
  /// backing store. The backing is one contiguous mapping, so this is pure
  /// pointer arithmetic -- the SMP kmalloc uses it to find a chunk's slab
  /// metadata without any shared map.
  [[nodiscard]] Pfn pfn_of(const void* p) const {
    const std::byte* b = static_cast<const std::byte*>(p);
    if (b < backing_.get() ||
        b >= backing_.get() + allocated_.size() * kPageSize) {
      return kInvalidPfn;
    }
    return static_cast<Pfn>((b - backing_.get()) >> kPageShift);
  }

 private:
  // Demand-zero backing: taken uninitialised, so the host maps a frame
  // only when something first writes it. alloc_frame/alloc_contiguous
  // are the one place a frame is zeroed and free_frame poisons it with
  // 0x5a; nothing may read a frame it has not allocated.
  std::unique_ptr<std::byte[]> backing_;
  std::vector<Pfn> free_list_;
  std::vector<bool> allocated_;
  PhysStats stats_;
};

}  // namespace usk::vm
