// Deterministic busy-work engine.
//
// The simulator charges costs (context switches, disk seeks, interrupt
// delivery) by *executing real work*, never by sleeping, so benchmark deltas
// are genuine CPU measurements. One work unit is a fixed short ALU chain;
// cache_touch work additionally strides through a scratch buffer to model
// the cache/TLB pollution a real kernel entry causes.
//
// SMP: the only shared state a charge writes is the cache_touch scratch,
// which models the cache traffic of a real kernel entry on purpose. The
// unit accounting is per-CPU, so concurrent dispatchers never bounce a
// bookkeeping line between them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "base/percpu.hpp"

namespace usk::base {

class WorkEngine {
 public:
  WorkEngine() {
    for (auto& w : scratch_) w.store(1, std::memory_order_relaxed);
  }

  /// Execute `units` of pure ALU work.
  void alu(std::uint64_t units) {
    std::uint64_t x = seed_;
    for (std::uint64_t i = 0; i < units; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    retire(units, x);
  }

  /// Execute `units` of cache-touching work (one line per unit). The
  /// scratch increments are relaxed atomics so concurrent syscall
  /// dispatchers (SMP mode) still generate real shared-cache traffic
  /// without a data race.
  void cache_touch(std::uint64_t units) {
    std::uint64_t x = seed_;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < units; ++i) {
      // Stride by a cache line; the xorshift makes the pattern
      // non-prefetchable, approximating TLB/cache refill costs.
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += scratch_[(x >> 6) % scratch_.size()].fetch_add(
          1, std::memory_order_relaxed);
    }
    retire(units, acc);
  }

  /// Total units ever executed, summed over every CPU. Exact at a
  /// quiescent point; a live read is a lower bound (base::CpuCounter).
  [[nodiscard]] std::uint64_t total_units() const {
    std::uint64_t sum = 0;
    cpus_.for_each([&](const Slot& s) { sum += s.units.get(); });
    return sum;
  }

 private:
  struct Slot {
    CpuCounter units;
    /// The last loop result, stored so the optimizer cannot delete the
    /// loop. Written, never read.
    std::atomic<std::uint64_t> sink{0};
  };

  void retire(std::uint64_t units, std::uint64_t result) {
    Slot& s = cpus_.local();
    s.units += units;
    s.sink.store(result, std::memory_order_relaxed);
  }

  static constexpr std::size_t kScratchWords = 1 << 15;  // 256 KiB of u64
  std::uint64_t seed_ = 0x853C49E6748FEA9Bull;
  PerCpu<Slot> cpus_;
  alignas(64) std::array<std::atomic<std::uint64_t>, kScratchWords> scratch_{};
};

}  // namespace usk::base
