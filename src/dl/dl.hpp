// kdl: end-to-end request deadlines, cooperative cancellation, and
// admission control under overload.
//
// The paper's crossing elimination makes the kernel-resident serving
// path cheap; kdl makes it *safe to saturate*. Three pieces:
//
//  1. Deadline propagation. A request picks up a dl::DeadlineScope at
//     ingress (webserver accept, ring chain submission, Cosy compound
//     entry). The scope rides the same thread-local mechanism as kspan
//     (trace::SpanScope): synchronous kernel work on the serving thread
//     sees it for free, with zero per-request allocation. The syscall
//     gateway (uk::Kernel::Scope) and every WaitQueue park consult it;
//     an expired request fails fast with ETIMEDOUT instead of consuming
//     kernel units it can no longer convert into goodput.
//
//  2. Cooperative cancellation. Scheduler::cancel(task) reuses PR 9's
//     kill/parked_on seq_cst handshake but leaves the task schedulable:
//     the flag unwinds the request through the same error paths a hard
//     failure would take (ring chain cancel cascade + fd rollback, Cosy
//     between-op abort, socket/epoll ECANCELED), so every resource the
//     request held is released by code that already existed and is
//     already tested. The DeadlineScope destructor clears the flag once
//     the unwind reaches ingress.
//
//  3. Admission control. dl::Admission bounds inflight requests and
//     sheds at ingress when the *estimated* queue delay -- inflight x a
//     percentile of the pool's recent service times -- already exceeds
//     the arriving request's deadline budget. Clients hold per-tenant
//     RetryBudgets (exponential backoff, deterministic jitter); an
//     exhausted budget is the ksup hook that trips the tenant's breaker.
//
// Disarmed discipline (matches kspan/kfail/ksup): with kdl disabled,
// the gateway check is ONE relaxed atomic load and a predicted branch;
// DeadlineScope construction never touches the clock. bench_serve R3
// measures this against a null syscall (acceptance: <= 1%).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "base/errno.hpp"
#include "fault/kfail.hpp"
#include "sched/task.hpp"
#include "trace/histogram.hpp"

namespace usk::dl {

using Clock = std::chrono::steady_clock;

namespace detail {
/// Process-wide arming flag. Relaxed loads on every consult; exactness
/// during the enable/disable transition is not required (same contract
/// as trace::detail::g_span_enabled).
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// One relaxed load: the only cost kdl adds to a disarmed kernel.
inline bool dl_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Process-wide kdl accounting, reported via /proc/dl and kmetrics.
struct DlStats {
  // Request lifecycle (DeadlineScope attach/retire).
  std::atomic<std::uint64_t> attached{0};
  std::atomic<std::uint64_t> completed{0};  ///< retired unexpired+uncanceled
  std::atomic<std::uint64_t> retired_expired{0};
  std::atomic<std::uint64_t> retired_canceled{0};
  std::atomic<std::int64_t> active{0};  ///< live DeadlineScopes

  // Fail-fast exits, by site.
  std::atomic<std::uint64_t> gateway_expired{0};   ///< Scope gate ETIMEDOUT
  std::atomic<std::uint64_t> gateway_canceled{0};  ///< Scope gate ECANCELED
  std::atomic<std::uint64_t> park_expired{0};      ///< timed park ETIMEDOUT
  std::atomic<std::uint64_t> park_canceled{0};     ///< park ECANCELED
  std::atomic<std::uint64_t> ring_aborts{0};  ///< chain cancel-on-deadline
  std::atomic<std::uint64_t> cosy_aborts{0};  ///< between-op compound abort

  // Admission.
  std::atomic<std::uint64_t> admits{0};
  std::atomic<std::uint64_t> sheds{0};

  // Client-side backpressure (sum over tenants).
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> budget_exhausted{0};

  // Fault injection observed by kdl.
  std::atomic<std::uint64_t> clock_skew_injected{0};
  std::atomic<std::uint64_t> spurious_wakes{0};
};

class RetryBudget;

/// Singleton owner of kdl state: the arming flag, global stats, the
/// served-latency histogram behind /proc/dl/stats, and the tenant
/// registry behind /proc/dl/tenants.
class Kdl {
 public:
  static Kdl& instance();

  void set_enabled(bool on) { detail::g_enabled.store(on); }
  [[nodiscard]] bool enabled() const { return dl_enabled(); }

  DlStats& stats() { return stats_; }
  [[nodiscard]] const DlStats& stats() const { return stats_; }

  /// Wall latency of retired admitted requests (ns), for /proc/dl/stats.
  trace::Histogram& service_hist() { return service_hist_; }

  /// Zero stats and the service histogram (tests, /proc reset write).
  void reset();

  // Tenant registry (RetryBudget self-registers for /proc rendering).
  void register_tenant(RetryBudget* t);
  void unregister_tenant(RetryBudget* t);

  /// /proc/dl/stats and /proc/dl/tenants bodies.
  [[nodiscard]] std::string format_stats() const;
  [[nodiscard]] std::string format_tenants() const;

 private:
  Kdl();
  DlStats stats_;
  trace::Histogram service_hist_;
  mutable std::mutex tenants_mu_;
  std::vector<RetryBudget*> tenants_;
};

/// RAII per-request deadline, stacked on a thread-local exactly like
/// trace::SpanScope. Construct at ingress with the request's budget and
/// the serving Task (nullable for non-task contexts); nested scopes
/// shadow the outer one (a sub-operation may run under a tighter
/// deadline). When kdl is disabled at construction the scope is inert:
/// no clock read, no stack push, no destructor work.
class DeadlineScope {
 public:
  DeadlineScope(std::chrono::nanoseconds budget, sched::Task* task = nullptr,
                std::uint32_t tenant = 0);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// Innermost live scope on this thread (nullptr when none / disabled).
  static DeadlineScope* current();

  [[nodiscard]] Clock::time_point deadline() const { return deadline_; }
  [[nodiscard]] sched::Task* task() const { return task_; }
  [[nodiscard]] std::uint32_t tenant() const { return tenant_; }

  /// Nanoseconds until expiry (negative once past). kfail dl.clock_skew
  /// injects here: a hard fire reads a skewed clock that is already past
  /// the deadline.
  [[nodiscard]] std::int64_t remaining_ns() const;
  [[nodiscard]] bool expired() const { return remaining_ns() <= 0; }
  [[nodiscard]] bool canceled() const {
    return task_ != nullptr && task_->cancel_pending();
  }

 private:
  bool armed_;
  DeadlineScope* prev_ = nullptr;
  Clock::time_point start_{};
  Clock::time_point deadline_{};
  sched::Task* task_ = nullptr;
  std::uint32_t tenant_ = 0;
};

/// Raw deadline/cancel evaluation: pending cancel -> ECANCELED, expired
/// deadline -> ETIMEDOUT, else kOk. Cancel outranks expiry (the canceler
/// asked for a deterministic ECANCELED; the request unwinds either way).
/// No counters -- vehicles with their own abort accounting (ring chains,
/// Cosy compounds) call this directly.
Errno check(sched::Task* task);

/// Syscall-gateway wrapper around check(), called by uk::Kernel::Scope
/// only when dl_enabled(); ticks the gateway_expired/gateway_canceled
/// stats.
Errno gate_check(sched::Task* task);

/// Effective park deadline: min(caller-supplied user deadline, the
/// current dl deadline). Returns nullptr when neither applies, `storage`
/// when one does. `*dl_bound` is set when the dl deadline is the binding
/// one, so the caller can tell ETIMEDOUT (dl expiry) from the user
/// timeout's own semantics (e.g. epoll_wait returning 0).
const Clock::time_point* effective_deadline(const Clock::time_point* user,
                                            Clock::time_point* storage,
                                            bool* dl_bound);

/// kfail dl.spurious_wake hook for park loops: when it fires, the caller
/// should treat the park as spuriously woken -- skip the sleep and
/// re-check its wait condition. Wake-safe loops absorb this by
/// construction; the soak proves it.
bool spurious_wake();

/// Bounded, feasibility-checked ingress admission. One instance per
/// serving pool (the workload owns it); counters roll up into Kdl.
struct AdmissionConfig {
  std::size_t max_inflight = 64;  ///< hard inflight bound
};

class Admission {
 public:
  explicit Admission(AdmissionConfig cfg = {}) : cfg_(cfg) {}

  /// Admit a request with `remaining_ns` of deadline budget left.
  /// Sheds (returns false) when the inflight bound is hit or the
  /// estimated queue delay -- (inflight + 1) x service estimate --
  /// already exceeds the budget: serving it would only produce a late
  /// response that still costs kernel units.
  bool try_admit(std::int64_t remaining_ns);

  /// Retire an admitted request that took `service_ns` end to end.
  void depart(std::uint64_t service_ns);

  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t service_estimate_ns() const;

 private:
  /// Service times the estimate is taken over: the last kWindow departs.
  /// Exact values, not Kdl's log2 histogram, whose bucket upper bound
  /// overstates a percentile by up to 2x -- enough to halve the inflight
  /// count the feasibility test allows.
  static constexpr std::size_t kWindow = 64;
  static constexpr double kPercentile = 90.0;  ///< service-estimate rank
  static constexpr std::uint64_t kMinServiceNs = 1000;  ///< cold-start floor

  AdmissionConfig cfg_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> est_ns_{0};    ///< cached percentile
  std::atomic<std::uint64_t> departs_{0};   ///< refresh cadence counter
  std::array<std::atomic<std::uint64_t>, kWindow> recent_{};  ///< ring
};

/// Client-side per-tenant retry budget: exponential backoff with
/// deterministic (seeded) jitter, a bounded number of consecutive
/// retries, and counters a supervisor hook can act on. The loadgen calls
/// on_reject() for every shed/expired response; `retry == false` means
/// the budget is exhausted -- drop the request and report the tenant
/// (workload wires this to sup::Supervisor::record_violation, tripping
/// the tenant's breaker).
struct RetryBudgetConfig {
  std::uint32_t budget = 3;  ///< max consecutive retries per request
  std::uint64_t base_backoff_ns = 200'000;
  double multiplier = 2.0;
  std::uint64_t max_backoff_ns = 10'000'000;
  std::uint64_t seed = 1;  ///< jitter stream seed (deterministic)
};

class RetryBudget {
 public:
  struct Decision {
    bool retry = false;
    std::uint64_t backoff_ns = 0;
  };

  RetryBudget(std::string name, RetryBudgetConfig cfg = {});
  ~RetryBudget();

  RetryBudget(const RetryBudget&) = delete;
  RetryBudget& operator=(const RetryBudget&) = delete;

  /// A request attempt was shed or expired. Spends one budget token:
  /// retry=true with the jittered backoff while tokens remain, else
  /// retry=false (budget exhausted; caller drops and reports).
  Decision on_reject();

  /// A request attempt succeeded: the consecutive-failure streak resets.
  void on_success();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t budget() const { return cfg_.budget; }
  [[nodiscard]] std::uint32_t streak() const {
    return streak_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t successes() const {
    return successes_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  RetryBudgetConfig cfg_;
  std::atomic<std::uint32_t> streak_{0};  ///< consecutive rejects
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> exhausted_{0};
  std::atomic<std::uint64_t> successes_{0};
  std::atomic<std::uint64_t> draws_{0};  ///< jitter stream position
};

}  // namespace usk::dl
