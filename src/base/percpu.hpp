// Per-CPU data for the simulated SMP kernel.
//
// Real kernels index per-CPU state by smp_processor_id(); our "CPUs" are
// host threads. A thread acquires a CPU slot the first time it asks and
// keeps it until it exits, when the slot is recycled, so at most one
// thread writes a given PerCpu slot at any moment. Readers that merge
// plain slots (audit-log drains, Boundary stats) must therefore run at a
// quiescent point -- after workers joined -- exactly like a real kernel
// summing per-CPU counters. Counters that are read live (/proc files
// rendered while the workload runs) are CpuCounter words instead: see
// below. Slots are cache-line aligned so neighbouring CPUs never
// false-share.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace usk::base {

/// Maximum simultaneously live simulated CPUs. More live threads than
/// this wrap around and share slots; the simulation never runs that wide.
inline constexpr std::size_t kMaxCpus = 64;

namespace detail {

/// Hands out CPU ids and recycles them when threads exit.
class CpuIdPool {
 public:
  static CpuIdPool& instance() {
    static CpuIdPool p;
    return p;
  }

  std::size_t acquire() {
    std::lock_guard lk(mu_);
    if (!free_.empty()) {
      std::size_t id = free_.back();
      free_.pop_back();
      return id;
    }
    return next_++ % kMaxCpus;
  }

  void release(std::size_t id) {
    std::lock_guard lk(mu_);
    free_.push_back(id);
  }

 private:
  std::mutex mu_;
  std::vector<std::size_t> free_;
  std::size_t next_ = 0;
};

struct CpuSlotHolder {
  std::size_t id = CpuIdPool::instance().acquire();
  CpuSlotHolder() = default;
  CpuSlotHolder(const CpuSlotHolder&) = delete;
  CpuSlotHolder& operator=(const CpuSlotHolder&) = delete;
  ~CpuSlotHolder() { CpuIdPool::instance().release(id); }
};

}  // namespace detail

/// The calling thread's CPU number (smp_processor_id analogue).
inline std::size_t current_cpu() {
  thread_local detail::CpuSlotHolder slot;
  return slot.id;
}

/// Fixed array of per-CPU values, one cache line each.
template <class T>
class PerCpu {
 public:
  [[nodiscard]] T& local() { return slot(current_cpu()); }
  [[nodiscard]] T& slot(std::size_t cpu) { return slots_[cpu % kMaxCpus].value; }
  [[nodiscard]] const T& slot(std::size_t cpu) const {
    return slots_[cpu % kMaxCpus].value;
  }
  [[nodiscard]] static constexpr std::size_t size() { return kMaxCpus; }

  /// Visit every slot (merge stats, drain buffers, reset counters).
  template <class Fn>
  void for_each(Fn&& fn) {
    for (auto& s : slots_) fn(s.value);
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& s : slots_) fn(s.value);
  }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::array<Slot, kMaxCpus> slots_{};
};

/// One counter word of a PerCpu slot, readable live. Only the owning CPU
/// writes it, with a relaxed load and a relaxed store: the same plain
/// `add` to memory a non-atomic `++` compiles to, with no lock prefix and
/// no shared cache line. Any thread may read it at any time. Each word
/// is exact as of the instant it is read, so a live merge is a sum of
/// values that were each true at some point of the read (never torn,
/// never ahead of the real count) and is exact at a quiescent point.
class CpuCounter {
 public:
  void add(std::uint64_t n) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  CpuCounter& operator++() {
    add(1);
    return *this;
  }
  CpuCounter& operator+=(std::uint64_t n) {
    add(n);
    return *this;
  }
  [[nodiscard]] std::uint64_t get() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Reader-writer lock whose read side writes only the calling CPU's line:
/// the big-reader lock (Linux 2.4's brlock, today's percpu_rw_semaphore).
/// A reader counts itself in its CPU's slot, then checks the writer flag;
/// a writer raises the flag, then waits for every slot to drain. The two
/// sides pair as a Dekker handshake (all four accesses seq_cst), so either
/// the reader sees the flag and backs off or the writer sees the reader.
/// Reads never bounce a shared line; a write scans every slot, so this
/// suits read-mostly data. Neither side is recursive. lock/unlock and
/// lock_shared/unlock_shared are what std::unique_lock and
/// std::shared_lock call.
class PerCpuRwLock {
 public:
  void lock_shared() {
    std::atomic<std::uint32_t>& n = readers_.local().n;
    for (;;) {
      n.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) return;
      n.fetch_sub(1, std::memory_order_release);
      // A writer is in: wait for it on its own mutex, then retry.
      std::lock_guard wait(writer_mu_);
    }
  }
  /// Must run on the thread that took the read lock (a thread keeps its
  /// CPU slot for life, so it releases the slot it counted itself in).
  void unlock_shared() {
    readers_.local().n.fetch_sub(1, std::memory_order_release);
  }

  void lock() {
    writer_mu_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    readers_.for_each([](const Slot& s) {
      while (s.n.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    });
  }
  void unlock() {
    writer_.store(false, std::memory_order_release);
    writer_mu_.unlock();
  }

 private:
  struct Slot {
    std::atomic<std::uint32_t> n{0};  ///< readers inside, this CPU
  };
  PerCpu<Slot> readers_;
  std::atomic<bool> writer_{false};
  std::mutex writer_mu_;  ///< writers exclude each other; readers wait here
};

}  // namespace usk::base
