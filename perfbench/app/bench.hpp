// Shared pieces of the perfbench program: seeded generators, the span
// tracer that times every layer call, and the counters a workload
// reports after a measured phase.
#pragma once

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: the only source of randomness; every input is derived
/// from the --seed argument through it.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Fisher-Yates shuffle driven by `r`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& r) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.below(i)]);
}

/// Stratified log-uniform sample: a value from stratum `k` of `n` equal
/// slices of [lo, hi) in log space, jittered inside the slice by `r`.
/// Drawing one value per stratum keeps the set's distribution the same
/// for every seed; the seed moves values within their slices.
inline double log_uniform_stratum(double lo, double hi, std::size_t k,
                                  std::size_t n, Rng& r) {
  const double q = (static_cast<double>(k) + r.uniform()) / static_cast<double>(n);
  return std::exp(std::log(lo) + q * (std::log(hi) - std::log(lo)));
}

/// Deterministic per-object content: every object gets its own byte
/// pattern, so a response or read-back that returns another object's
/// bytes is caught.
inline void fill_pattern(std::uint64_t key, std::span<std::byte> out) {
  Rng r{key * 0x2545F4914F6CDD1Dull + 1};
  std::size_t i = 0;
  while (i < out.size()) {
    std::uint64_t w = r.next();
    for (int b = 0; b < 8 && i < out.size(); ++b, ++i) {
      out[i] = static_cast<std::byte>(w >> (8 * b));
    }
  }
}

/// FNV-1a over the generated op sequence (the self-test compares it).
struct SeqHash {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
};

// --- layers and layer calls ---------------------------------------------------

/// Modules whose public entry points perfbench calls.
enum class Module : std::uint8_t { kUk, kNet, kConsolidation, kCosy, kRing, kCount };
inline constexpr std::array<const char*, static_cast<std::size_t>(Module::kCount)>
    kModuleNames = {"uk", "net", "consolidation", "cosy", "ring"};

/// Every layer call perfbench makes inside an op. `units` of a call is
/// what its per-unit metric divides by: payload bytes for send/recv/
/// sendfile, entries for readdirplus, requests for a Cosy compound,
/// chains for ring_enter, CQEs for a reap.
enum class Call : std::uint8_t {
  kStat, kOpen, kRead, kWrite, kClose, kUnlink, kFsync,
  kSocket, kConnect, kAccept, kSend, kRecv,
  kAcceptRecv, kSendfile, kReaddirplus,
  kCosyExecute,
  kRingEnter, kRingPrepare, kRingReap,
  kCount
};
inline constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::kCount);

struct CallInfo {
  const char* name;
  Module module;
};
inline constexpr std::array<CallInfo, kNumCalls> kCalls = {{
    {"uk.stat", Module::kUk},
    {"uk.open", Module::kUk},
    {"uk.read", Module::kUk},
    {"uk.write", Module::kUk},
    {"uk.close", Module::kUk},
    {"uk.unlink", Module::kUk},
    {"uk.fsync", Module::kUk},
    {"net.socket", Module::kNet},
    {"net.connect", Module::kNet},
    {"net.accept", Module::kNet},
    {"net.send", Module::kNet},
    {"net.recv", Module::kNet},
    {"consolidation.accept_recv", Module::kConsolidation},
    {"consolidation.sendfile", Module::kConsolidation},
    {"consolidation.readdirplus", Module::kConsolidation},
    {"cosy.execute", Module::kCosy},
    {"ring.enter", Module::kRing},
    {"ring.prepare", Module::kRing},
    {"ring.reap", Module::kRing},
}};

struct CallAgg {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t units = 0;
};

/// One recorded span: an op span (parent == -1) or a layer call inside
/// it. Spans of one op share `op`.
struct Span {
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int16_t call = -1;  ///< Call index, -1 for an op span
  std::uint16_t ops = 0;   ///< op span: requests/transactions it covers
};

/// Per-stream tracer. Untraced, call() is one predictable branch around
/// the layer call. Traced, every call inside an op span becomes a child
/// span; aggregates are kept for every call, the spans themselves up to
/// kMaxSpans (written out when the run ends).
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 1 << 14;

  void set_enabled(bool on) { on_ = on; }

  /// Open the span of the next `ops` operations (one request, one
  /// pipelined connection, or one transaction).
  void begin_op(std::uint64_t op_id, std::uint16_t ops) {
    if (!on_) return;
    op_id_ = op_id;
    op_ops_ = ops;
    op_start_ = now_ns();
    op_span_ = -1;
    if (spans_.size() < kMaxSpans) {
      op_span_ = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(Span{op_id, op_start_, 0, -1, -1, ops});
    }
    in_op_ = true;
  }
  void end_op() {
    if (!on_) return;
    const std::uint64_t end = now_ns();
    if (op_span_ >= 0) spans_[static_cast<std::size_t>(op_span_)].end_ns = end;
    op_ns_ += end - op_start_;
    traced_ops_ += op_ops_;
    in_op_ = false;
  }

  /// Time one layer call. Send/recv/sendfile/reap results are their
  /// units; other calls add units with add_units().
  template <typename F>
  auto call(Call c, F&& f) -> decltype(f()) {
    if (!on_) return f();
    const std::uint64_t t0 = now_ns();
    auto ret = f();
    const std::uint64_t t1 = now_ns();
    CallAgg& a = agg_[static_cast<std::size_t>(c)];
    ++a.calls;
    a.ns += t1 - t0;
    if constexpr (std::is_arithmetic_v<decltype(ret)>) {
      if ((c == Call::kSend || c == Call::kRecv || c == Call::kSendfile ||
           c == Call::kRingReap) &&
          ret > 0) {
        a.units += static_cast<std::uint64_t>(ret);
      }
    }
    if (in_op_) {
      if (spans_.size() < kMaxSpans) {
        spans_.push_back(Span{op_id_, t0, t1, op_span_,
                              static_cast<std::int16_t>(c), 0});
      }
    } else {
      ++calls_outside_ops_;
    }
    return ret;
  }

  void add_units(Call c, std::uint64_t n) {
    if (on_) agg_[static_cast<std::size_t>(c)].units += n;
  }

  [[nodiscard]] const std::array<CallAgg, kNumCalls>& aggs() const { return agg_; }
  [[nodiscard]] std::uint64_t op_ns() const { return op_ns_; }
  [[nodiscard]] std::uint64_t traced_ops() const { return traced_ops_; }
  [[nodiscard]] std::uint64_t calls_outside_ops() const { return calls_outside_ops_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  bool in_op_ = false;
  std::uint64_t op_id_ = 0;
  std::uint16_t op_ops_ = 0;
  std::uint64_t op_start_ = 0;
  std::int32_t op_span_ = -1;
  std::uint64_t op_ns_ = 0;
  std::uint64_t traced_ops_ = 0;
  std::uint64_t calls_outside_ops_ = 0;
  std::array<CallAgg, kNumCalls> agg_{};
  std::vector<Span> spans_;
};

// --- what a workload reports --------------------------------------------------

/// Cumulative counters; a phase's figures are the difference of two.
struct Counters {
  // Server / application Procs only (the N1 convention).
  std::uint64_t crossings = 0;
  std::uint64_t copied_bytes = 0;
  std::uint64_t kernel_units = 0;
  // Module stats.
  std::uint64_t net_packets = 0;
  std::uint64_t dcache_lookups = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t kmalloc_calls = 0;
  std::uint64_t sched_parks = 0;
  std::uint64_t sched_schedules = 0;
  std::uint64_t cosy_ops = 0;
  std::uint64_t ring_enters = 0;
  std::uint64_t ring_sqes = 0;
  std::uint64_t store_commit_units = 0;
  std::uint64_t store_checkpoints = 0;
  std::uint64_t image_bytes_written = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_writebacks = 0;
};

/// Resources that must be back at their starting values after a phase.
struct Resources {
  std::size_t open_fds = 0;
  std::size_t live_sockets = 0;
  std::int64_t kmalloc_outstanding_b = 0;
  bool operator==(const Resources&) const = default;
};

/// Figures of one measured phase.
struct Phase {
  std::uint64_t attempted = 0;  ///< ops (requests or transactions)
  std::uint64_t failed = 0;     ///< failed, refused or wrong-content ops
  std::uint64_t rounds = 0;
  std::uint64_t wall_ns = 0;
  std::vector<std::uint32_t> latency_ns;  ///< one sample per op
  /// Requests served by Cosy compounds (serve_inkernel).
  std::uint64_t cosy_requests = 0;
};

/// A benchmark workload: constructed = set up; run() measures whole
/// rounds of its seeded op sequence until `seconds` have passed.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Run rounds until the deadline (at least `min_rounds`).
  virtual Phase run(double seconds, std::uint64_t min_rounds, bool traced) = 0;
  [[nodiscard]] virtual Counters counters() = 0;
  [[nodiscard]] virtual Resources resources() = 0;
  /// Hash of one round's generated op sequence.
  [[nodiscard]] virtual std::uint64_t sequence_hash() const = 0;
  /// Per-stream tracers (the traced run's spans and aggregates).
  [[nodiscard]] virtual std::vector<const Tracer*> tracers() const = 0;
};

/// The three workloads. Constructing one is its set-up.
std::unique_ptr<Workload> make_serve(bool inkernel, std::uint64_t seed);
std::unique_ptr<Workload> make_spool(std::uint64_t seed);

}  // namespace pb
