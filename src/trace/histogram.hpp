// Log2 latency histograms, eBPF-style.
//
// The eBPF runtime the related-work paper describes aggregates latencies
// in kernel context with power-of-2 buckets so the hot path pays one
// increment and user space renders percentiles later. Same deal here:
// record() is a single relaxed fetch_add into the bucket holding the
// value (bucket i >= 1 covers [2^(i-1), 2^i)), plus count/sum/max
// counters so /proc can print averages without walking buckets.
// CpuHistogram is the same table for one CPU's exclusive use; per-CPU
// arrays of it (the always-on syscall histograms) merge on read.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "base/percpu.hpp"

namespace usk::trace {

/// Plain (non-atomic) copy of a histogram for rendering/merging.
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 44;  ///< up to 2^43 ns (~2.4 h)

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : (1ull << (i - 1));
  }
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t i) {
    return (1ull << i) - 1;
  }

  [[nodiscard]] std::uint64_t avg() const {
    return count == 0 ? 0 : sum / count;
  }

  /// Approximate p-th percentile (p in [0,100]): the upper bound of the
  /// bucket where the cumulative count crosses p% -- the same resolution
  /// an eBPF log2 map gives.
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (count == 0) return 0;
    const double target = static_cast<double>(count) * p / 100.0;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cum += buckets[i];
      if (static_cast<double>(cum) >= target && buckets[i] > 0) {
        return std::min(bucket_hi(i), max);
      }
    }
    return max;
  }

  void merge(const HistogramSnapshot& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
    count += o.count;
    sum += o.sum;
    max = std::max(max, o.max);
  }
};

class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  /// Bucket index for `v`: 0 for 0, else bit_width clamped to the table.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    return std::min<std::size_t>(kBuckets - 1, std::bit_width(v));
  }

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < v &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// A histogram one CPU writes and any thread reads live: the per-CPU half
/// of a per-CPU histogram map. record() is base::CpuCounter arithmetic
/// (relaxed loads and stores, no locked read-modify-write), so the owner
/// never waits on a shared line; merge_into() adds it to a snapshot.
class CpuHistogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t v) {
    ++buckets_[Histogram::bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_.load(std::memory_order_relaxed)) {
      max_.store(v, std::memory_order_relaxed);
    }
  }

  void merge_into(HistogramSnapshot& s) const {
    for (std::size_t i = 0; i < kBuckets; ++i) s.buckets[i] += buckets_[i].get();
    s.count += count_.get();
    s.sum += sum_.get();
    s.max = std::max(s.max, max_.load(std::memory_order_relaxed));
  }

  void reset() {
    for (auto& b : buckets_) b.reset();
    count_.reset();
    sum_.reset();
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<base::CpuCounter, kBuckets> buckets_{};
  base::CpuCounter count_;
  base::CpuCounter sum_;
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace usk::trace
