#include "dl/dl.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace usk::dl {

namespace {

thread_local DeadlineScope* t_current = nullptr;

/// SplitMix64 for retry-budget jitter: a pure function of (seed, draw#)
/// so backoff schedules replay exactly from the tenant seed, like kfail
/// decisions replay from USK_FAIL_SPEC's seed.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

// --- Kdl ---------------------------------------------------------------------

Kdl::Kdl() {
  if (const char* env = std::getenv("USK_DL");
      env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0') {
    set_enabled(true);
  }
}

Kdl& Kdl::instance() {
  static Kdl kdl;
  return kdl;
}

void Kdl::reset() {
  DlStats fresh;
  auto copy = [](std::atomic<std::uint64_t>& dst,
                 const std::atomic<std::uint64_t>& src) {
    dst.store(src.load(std::memory_order_relaxed), std::memory_order_relaxed);
  };
  copy(stats_.attached, fresh.attached);
  copy(stats_.completed, fresh.completed);
  copy(stats_.retired_expired, fresh.retired_expired);
  copy(stats_.retired_canceled, fresh.retired_canceled);
  copy(stats_.gateway_expired, fresh.gateway_expired);
  copy(stats_.gateway_canceled, fresh.gateway_canceled);
  copy(stats_.park_expired, fresh.park_expired);
  copy(stats_.park_canceled, fresh.park_canceled);
  copy(stats_.ring_aborts, fresh.ring_aborts);
  copy(stats_.cosy_aborts, fresh.cosy_aborts);
  copy(stats_.admits, fresh.admits);
  copy(stats_.sheds, fresh.sheds);
  copy(stats_.retries, fresh.retries);
  copy(stats_.budget_exhausted, fresh.budget_exhausted);
  copy(stats_.clock_skew_injected, fresh.clock_skew_injected);
  copy(stats_.spurious_wakes, fresh.spurious_wakes);
  stats_.active.store(0, std::memory_order_relaxed);
  service_hist_.reset();
}

void Kdl::register_tenant(RetryBudget* t) {
  std::lock_guard lk(tenants_mu_);
  tenants_.push_back(t);
}

void Kdl::unregister_tenant(RetryBudget* t) {
  std::lock_guard lk(tenants_mu_);
  tenants_.erase(std::remove(tenants_.begin(), tenants_.end(), t),
                 tenants_.end());
}

std::string Kdl::format_stats() const {
  auto ld = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<unsigned long long>(a.load(std::memory_order_relaxed));
  };
  trace::HistogramSnapshot h = service_hist_.snapshot();
  char buf[1024];
  int n = std::snprintf(
      buf, sizeof buf,
      "enabled %d\n"
      "active %lld\n"
      "attached %llu\n"
      "completed %llu\n"
      "retired_expired %llu\n"
      "retired_canceled %llu\n"
      "gateway_expired %llu\n"
      "gateway_canceled %llu\n"
      "park_expired %llu\n"
      "park_canceled %llu\n"
      "ring_aborts %llu\n"
      "cosy_aborts %llu\n"
      "admits %llu\n"
      "sheds %llu\n"
      "retries %llu\n"
      "budget_exhausted %llu\n"
      "clock_skew_injected %llu\n"
      "spurious_wakes %llu\n"
      "service_p50_ns %llu\n"
      "service_p99_ns %llu\n"
      "service_count %llu\n",
      enabled() ? 1 : 0,
      static_cast<long long>(stats_.active.load(std::memory_order_relaxed)),
      ld(stats_.attached), ld(stats_.completed), ld(stats_.retired_expired),
      ld(stats_.retired_canceled), ld(stats_.gateway_expired),
      ld(stats_.gateway_canceled), ld(stats_.park_expired),
      ld(stats_.park_canceled), ld(stats_.ring_aborts), ld(stats_.cosy_aborts),
      ld(stats_.admits), ld(stats_.sheds), ld(stats_.retries),
      ld(stats_.budget_exhausted), ld(stats_.clock_skew_injected),
      ld(stats_.spurious_wakes),
      static_cast<unsigned long long>(h.percentile(50)),
      static_cast<unsigned long long>(h.percentile(99)),
      static_cast<unsigned long long>(h.count));
  return std::string(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

std::string Kdl::format_tenants() const {
  std::string out = "tenant budget streak retries exhausted successes\n";
  std::lock_guard lk(tenants_mu_);
  for (const RetryBudget* t : tenants_) {
    char line[192];
    int n = std::snprintf(
        line, sizeof line, "%-12s %6u %6u %7llu %9llu %9llu\n",
        t->name().c_str(), t->budget(), t->streak(),
        static_cast<unsigned long long>(t->retries()),
        static_cast<unsigned long long>(t->exhausted()),
        static_cast<unsigned long long>(t->successes()));
    if (n > 0) out.append(line, static_cast<std::size_t>(n));
  }
  return out;
}

// --- DeadlineScope -----------------------------------------------------------

DeadlineScope::DeadlineScope(std::chrono::nanoseconds budget,
                             sched::Task* task, std::uint32_t tenant)
    : armed_(dl_enabled()) {
  if (!armed_) return;
  start_ = Clock::now();
  deadline_ = start_ + budget;
  task_ = task;
  tenant_ = tenant;
  prev_ = t_current;
  t_current = this;
  DlStats& st = Kdl::instance().stats();
  st.attached.fetch_add(1, std::memory_order_relaxed);
  st.active.fetch_add(1, std::memory_order_relaxed);
}

DeadlineScope::~DeadlineScope() {
  if (!armed_) return;
  t_current = prev_;
  Kdl& kdl = Kdl::instance();
  DlStats& st = kdl.stats();
  st.active.fetch_sub(1, std::memory_order_relaxed);
  // The unwind is over: a pending cancel must not leak into the serving
  // thread's next request.
  bool was_canceled = false;
  if (task_ != nullptr && task_->cancel_pending()) {
    was_canceled = true;
    task_->set_cancel_pending(false);
  }
  // Retirement accounting only: the service histogram is fed by
  // Admission::depart (admitted requests), so shed or expired scopes --
  // which retire in microseconds -- cannot drag the admission estimate
  // toward zero and make it admit everything.
  Clock::time_point end = Clock::now();
  if (was_canceled) {
    st.retired_canceled.fetch_add(1, std::memory_order_relaxed);
  } else if (end >= deadline_) {
    st.retired_expired.fetch_add(1, std::memory_order_relaxed);
  } else {
    st.completed.fetch_add(1, std::memory_order_relaxed);
  }
}

DeadlineScope* DeadlineScope::current() { return t_current; }

std::int64_t DeadlineScope::remaining_ns() const {
  if (auto f = USK_FAIL_POINT(fault::Site::kDlClockSkew); f.fail) {
    // A skewed clock read lands past the deadline: the request expires
    // spuriously. Callers must unwind leak-free exactly as for a real
    // expiry -- that symmetry is what the soak checks.
    Kdl::instance().stats().clock_skew_injected.fetch_add(
        1, std::memory_order_relaxed);
    return -1;
  } else if (f.transient) {
    // Recovered skew: the sanity re-read costs one extra now().
    (void)Clock::now();
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(deadline_ -
                                                              Clock::now())
      .count();
}

// --- free helpers ------------------------------------------------------------

Errno check(sched::Task* task) {
  if (task != nullptr && task->cancel_pending()) return Errno::kECANCELED;
  if (DeadlineScope* ds = DeadlineScope::current();
      ds != nullptr && ds->expired()) {
    return Errno::kETIMEDOUT;
  }
  return Errno::kOk;
}

Errno gate_check(sched::Task* task) {
  Errno e = check(task);
  if (e == Errno::kECANCELED) {
    Kdl::instance().stats().gateway_canceled.fetch_add(
        1, std::memory_order_relaxed);
  } else if (e == Errno::kETIMEDOUT) {
    Kdl::instance().stats().gateway_expired.fetch_add(
        1, std::memory_order_relaxed);
  }
  return e;
}

const Clock::time_point* effective_deadline(const Clock::time_point* user,
                                            Clock::time_point* storage,
                                            bool* dl_bound) {
  *dl_bound = false;
  if (!dl_enabled()) return user;
  DeadlineScope* ds = DeadlineScope::current();
  if (ds == nullptr) return user;
  if (user == nullptr || ds->deadline() < *user) {
    *storage = ds->deadline();
    *dl_bound = true;
    return storage;
  }
  return user;
}

bool spurious_wake() {
  auto f = USK_FAIL_POINT(fault::Site::kDlSpuriousWake);
  if (f.fail || f.transient) {
    Kdl::instance().stats().spurious_wakes.fetch_add(
        1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

// --- Admission ---------------------------------------------------------------

std::uint64_t Admission::service_estimate_ns() const {
  std::uint64_t est = est_ns_.load(std::memory_order_relaxed);
  return std::max(est, kMinServiceNs);
}

bool Admission::try_admit(std::int64_t remaining_ns) {
  DlStats& st = Kdl::instance().stats();
  std::size_t cur = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= cfg_.max_inflight) break;
    // Feasibility: this request waits behind ~cur peers, then needs one
    // service time itself. If that already exceeds its remaining budget,
    // serving it buys a late answer at full kernel cost -- shed now,
    // while the only thing invested is one accept.
    std::uint64_t est = service_estimate_ns();
    std::uint64_t queue_delay = est * (static_cast<std::uint64_t>(cur) + 1);
    if (remaining_ns <= 0 ||
        queue_delay > static_cast<std::uint64_t>(remaining_ns)) {
      break;
    }
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      st.admits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  st.sheds.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Admission::depart(std::uint64_t service_ns) {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  Kdl::instance().service_hist().record(service_ns);
  std::uint64_t n = departs_.fetch_add(1, std::memory_order_relaxed) + 1;
  recent_[(n - 1) % kWindow].store(service_ns, std::memory_order_relaxed);
  // Refresh the cached percentile off the per-request path: selecting
  // over the window every departure would put a loop in the serving
  // loop. Slots no depart has filled yet read 0 and are skipped; after
  // the first lap, a slot a concurrent depart has claimed but not yet
  // filled still holds the service time it had one lap earlier.
  if (n % 32 == 1) {
    std::array<std::uint64_t, kWindow> w{};
    std::size_t m = 0;
    for (const std::atomic<std::uint64_t>& r : recent_) {
      if (std::uint64_t v = r.load(std::memory_order_relaxed); v != 0) {
        w[m++] = v;
      }
    }
    if (m == 0) return;
    const auto rank = static_cast<std::size_t>(
        kPercentile / 100.0 * static_cast<double>(m - 1) + 0.5);
    std::nth_element(w.begin(), w.begin() + rank, w.begin() + m);
    est_ns_.store(w[rank], std::memory_order_relaxed);
  }
}

// --- RetryBudget -------------------------------------------------------------

RetryBudget::RetryBudget(std::string name, RetryBudgetConfig cfg)
    : name_(std::move(name)), cfg_(cfg) {
  Kdl::instance().register_tenant(this);
}

RetryBudget::~RetryBudget() { Kdl::instance().unregister_tenant(this); }

RetryBudget::Decision RetryBudget::on_reject() {
  std::uint32_t streak = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak > cfg_.budget) {
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    Kdl::instance().stats().budget_exhausted.fetch_add(
        1, std::memory_order_relaxed);
    streak_.store(0, std::memory_order_relaxed);  // next request starts fresh
    return {false, 0};
  }
  retries_.fetch_add(1, std::memory_order_relaxed);
  Kdl::instance().stats().retries.fetch_add(1, std::memory_order_relaxed);
  // Exponential backoff with full deterministic jitter: uniform in
  // (cap/2, cap] where cap doubles per consecutive reject. Jitter
  // decorrelates tenants that were rejected in the same shed burst so
  // their retries do not arrive as a synchronized second burst.
  double cap = static_cast<double>(cfg_.base_backoff_ns);
  for (std::uint32_t i = 1; i < streak; ++i) cap *= cfg_.multiplier;
  cap = std::min(cap, static_cast<double>(cfg_.max_backoff_ns));
  std::uint64_t draw = draws_.fetch_add(1, std::memory_order_relaxed);
  double u = static_cast<double>(splitmix64(cfg_.seed ^ draw) >> 11) *
             (1.0 / 9007199254740992.0);
  auto backoff = static_cast<std::uint64_t>(cap * (0.5 + 0.5 * u));
  return {true, backoff};
}

void RetryBudget::on_success() {
  successes_.fetch_add(1, std::memory_order_relaxed);
  streak_.store(0, std::memory_order_relaxed);
}

}  // namespace usk::dl
