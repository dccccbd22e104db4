// SMP scheduler: per-CPU runqueues, work stealing, event-driven wakeups.
//
// Two dispatch models share this object:
//
//  * Direct dispatch (the classic uk path): one host thread drives one
//    task through Kernel::dispatch. The thread announces what it is
//    running with enter(task) -- the explicit replacement for the old
//    implicit first-spawn-becomes-current and bare set_current -- and
//    long kernel paths call preempt_point() as before.
//
//  * Pooled dispatch (the 8-64 vCPU path): tasks are made runnable with
//    bind(task, cpu) + enqueue(task); worker threads loop pick_next(),
//    which pops the local runqueue and steals from the deepest sibling
//    queue when local work runs dry, so a skewed workload still keeps
//    every CPU busy.
//
// Blocking is event-driven: block(wq, token) schedules the task out
// (running the paper's §2.3 kernel-budget watchdog exactly as every
// schedule-out always has) and then parks on the WaitQueue until the
// event source calls wake_one/wake_all. There is no parked-thread
// re-poll interval anywhere; see waitqueue.hpp for the token contract.
// kill(task) terminates a task even while it is parked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "base/klog.hpp"
#include "base/percpu.hpp"
#include "sched/runqueue.hpp"
#include "sched/task.hpp"
#include "sched/waitqueue.hpp"
#include "trace/tracepoint.hpp"

namespace usk::sched {

/// Scheduler event counters. Preemption points, the one event on the
/// in-kernel request path (every ring chain, every Cosy back-edge), are
/// counted per-CPU instead: Scheduler::preempt_points().
struct SchedStats {
  std::atomic<std::uint64_t> schedules{0};  ///< schedule-out events
  std::atomic<std::uint64_t> watchdog_kills{0};
  std::atomic<std::uint64_t> spawns{0};
  std::atomic<std::uint64_t> enqueues{0};
  std::atomic<std::uint64_t> picks{0};       ///< pick_next successes
  std::atomic<std::uint64_t> steals{0};      ///< picks served by stealing
  std::atomic<std::uint64_t> steal_misses{0};  ///< pick_next found nothing
  std::atomic<std::uint64_t> migrations{0};  ///< task entered a new CPU
  std::atomic<std::uint64_t> yields{0};
  std::atomic<std::uint64_t> parks{0};  ///< block() calls
  std::atomic<std::uint64_t> kills{0};  ///< explicit kill() calls
  std::atomic<std::uint64_t> cancels{0};  ///< cooperative cancel() calls (kdl)
};

class Scheduler {
 public:
  /// `cpus` bounds the runqueue array (and so the stealing scan); the
  /// default covers every possible simulated CPU.
  explicit Scheduler(std::uint32_t quantum = 32,
                     std::size_t cpus = base::kMaxCpus)
      : quantum_(quantum),
        ncpus_(cpus == 0 ? 1 : (cpus > base::kMaxCpus ? base::kMaxCpus : cpus)),
        rqs_(ncpus_),
        cpustats_(ncpus_) {}

  /// Create a task. It is runnable but placed nowhere: direct dispatch
  /// follows with enter(), pooled dispatch with bind()/enqueue().
  Task& spawn(std::string name) {
    std::lock_guard lk(spawn_mu_);
    stats_.spawns.fetch_add(1, std::memory_order_relaxed);
    tasks_.push_back(std::make_unique<Task>(next_pid_++, std::move(name)));
    return *tasks_.back();
  }

  /// The task running on the calling CPU.
  [[nodiscard]] Task* current() {
    return cpu_.local().current.load(std::memory_order_relaxed);
  }

  /// Announce that the calling CPU is now running `t` (kernel entry in
  /// the direct model; pick_next calls it in the pooled model). Counts a
  /// migration when the task last ran elsewhere. Returns `t`.
  Task& enter(Task& t) {
    Cpu& cpu = cpu_.local();
    Task* prev = cpu.current.load(std::memory_order_relaxed);
    if (prev == &t) return t;  // fast path: same task re-enters
    if (prev != nullptr) {
      // CAS: a kill landing after a plain state read would be overwritten.
      TaskState running = TaskState::kRunning;
      prev->cas_state(running, TaskState::kRunnable);
    }
    const std::size_t me = base::current_cpu();
    const std::size_t last = t.last_cpu();
    if (last != kAnyCpu && last != me) {
      stats_.migrations.fetch_add(1, std::memory_order_relaxed);
      cpustats_[me % ncpus_].migrations_in.fetch_add(
          1, std::memory_order_relaxed);
      USK_TRACEPOINT("sched", "migrate", t.pid());
    }
    t.set_last_cpu(me);
    cpu.current.store(&t, std::memory_order_relaxed);
    // CAS, not a store: a concurrent kill() must never be overwritten
    // (entering a dead task would resurrect it and lose the kill).
    TaskState st = t.state();
    while (st != TaskState::kKilled && st != TaskState::kExited &&
           !t.cas_state(st, TaskState::kRunning)) {
    }
    return t;
  }

  /// Pin `t`'s runqueue. enqueue() honours it; pick_next() may still
  /// steal the task when its home CPU falls behind (affinity is a
  /// placement hint, as in the reference per-CPU designs, not a cage).
  void bind(Task& t, std::size_t cpu) { t.set_affinity(cpu % ncpus_); }

  /// Make `t` runnable on its bound CPU (falling back to the CPU it last
  /// ran on, then to the calling CPU).
  void enqueue(Task& t) {
    std::size_t cpu = t.affinity();
    if (cpu == kAnyCpu) cpu = t.last_cpu();
    if (cpu == kAnyCpu) cpu = base::current_cpu();
    TaskState st = t.state();  // CAS: never resurrect a killed task
    while (st != TaskState::kKilled && st != TaskState::kExited &&
           !t.cas_state(st, TaskState::kRunnable)) {
    }
    rqs_[cpu % ncpus_].push(&t);
    stats_.enqueues.fetch_add(1, std::memory_order_relaxed);
  }

  /// Pop the calling CPU's runqueue; when it is dry, steal from the
  /// deepest sibling queue. Killed/exited tasks found queued are dropped.
  /// On success the task is entered on this CPU and returned; nullptr
  /// means every queue is empty.
  Task* pick_next() {
    const std::size_t me = base::current_cpu() % ncpus_;
    for (;;) {
      bool stole = false;
      Task* t = rqs_[me].pop();
      if (t == nullptr) {
        std::size_t victim = ncpus_;
        std::size_t deepest = 0;
        for (std::size_t i = 0; i < ncpus_; ++i) {
          if (i == me) continue;
          std::size_t d = rqs_[i].depth();
          if (d > deepest) {
            deepest = d;
            victim = i;
          }
        }
        if (victim < ncpus_) {
          t = rqs_[victim].steal();
          stole = t != nullptr;
        }
      }
      if (t == nullptr) {
        stats_.steal_misses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      if (!t->alive()) continue;  // killed while queued: drop it
      if (stole) {
        stats_.steals.fetch_add(1, std::memory_order_relaxed);
        cpustats_[me].steals.fetch_add(1, std::memory_order_relaxed);
        USK_TRACEPOINT("sched", "steal", t->pid());
      }
      cpustats_[me].picks.fetch_add(1, std::memory_order_relaxed);
      stats_.picks.fetch_add(1, std::memory_order_relaxed);
      enter(*t);
      return t;
    }
  }

  /// Voluntarily give up the quantum: resets the preemption countdown
  /// and runs a schedule-out (so the watchdog examines the task exactly
  /// as an involuntary schedule would). Returns false when killed.
  bool yield() {
    stats_.yields.fetch_add(1, std::memory_order_relaxed);
    Cpu& cpu = cpu_.local();
    cpu.since_schedule = 0;
    Task* t = cpu.current.load(std::memory_order_relaxed);
    if (t == nullptr) return true;
    return schedule_out(*t);
  }

  /// Park the calling CPU's current task on `wq` until a wake newer than
  /// `tok` (see WaitQueue::prepare), a kill, or `deadline`. The task is
  /// scheduled out first, so the kernel-budget watchdog runs at every
  /// park -- the same point it has always run.
  WaitQueue::Wait block(WaitQueue& wq, WaitQueue::Token tok,
                        const WaitQueue::Deadline* deadline = nullptr) {
    stats_.parks.fetch_add(1, std::memory_order_relaxed);
    Cpu& cpu = cpu_.local();
    cpu.since_schedule = 0;
    Task* t = cpu.current.load(std::memory_order_relaxed);
    if (t != nullptr && !schedule_out(*t)) return WaitQueue::Wait::kKilled;
    USK_TRACEPOINT("sched", "park", t != nullptr ? t->pid() : 0);
    return wq.wait(tok, t, deadline);
  }

  /// Wake verbs (thin forwards so call sites read as scheduler API; the
  /// queue may also be woken directly by layers that have no scheduler,
  /// e.g. the store journal).
  void wake_one(WaitQueue& wq) { wq.wake_one(); }
  void wake_all(WaitQueue& wq) { wq.wake_all(); }

  /// Terminate `t` now, even while parked: the state store and the
  /// parked_on load are both seq_cst, pairing with WaitQueue::wait's
  /// park registration, so the task either observes the kill before
  /// sleeping or is woken here.
  void kill(Task& t) {
    stats_.kills.fetch_add(1, std::memory_order_relaxed);
    t.set_state(TaskState::kKilled);
    USK_TRACEPOINT("sched", "kill", t.pid());
    if (WaitQueue* wq = t.parked_on()) wq->wake_all();
  }

  /// Cooperatively cancel `t` (kdl): the task stays schedulable but every
  /// syscall gateway and WaitQueue park observes cancel_pending and
  /// unwinds with ECANCELED. Same seq_cst store/parked_on-load handshake
  /// as kill, so a parked task is woken and a parking task sees the flag
  /// in the wait predicate before sleeping.
  void cancel(Task& t) {
    stats_.cancels.fetch_add(1, std::memory_order_relaxed);
    t.set_cancel_pending(true);
    USK_TRACEPOINT("sched", "cancel", t.pid());
    if (WaitQueue* wq = t.parked_on()) wq->wake_all();
  }

  /// Preemption point for the calling CPU's current task. Returns false
  /// when the task was killed by the watchdog and must abort its kernel
  /// work.
  bool preempt_point() {
    Cpu& cpu = cpu_.local();
    ++cpu.preempt_points;
    Task* t = cpu.current.load(std::memory_order_relaxed);
    if (t == nullptr) return true;
    ++t->preemptions;
    if (++cpu.since_schedule >= quantum_) {
      cpu.since_schedule = 0;
      return schedule_out(*t);
    }
    return t->alive();
  }

  /// Force a schedule-out (e.g., the task blocked). Runs the watchdog.
  bool schedule_out(Task& t) {
    stats_.schedules.fetch_add(1, std::memory_order_relaxed);
    USK_TRACEPOINT("sched", "schedule", t.pid());
    if (t.in_kernel() && t.over_kernel_budget()) {
      stats_.watchdog_kills.fetch_add(1, std::memory_order_relaxed);
      USK_TRACEPOINT("sched", "watchdog_kill", t.pid());
      t.set_state(TaskState::kKilled);
      // Rate-limited: a runaway workload can trip the watchdog thousands
      // of times a second, and each kill is identical for diagnosis. The
      // named site keeps the budget private to the watchdog: noisy
      // neighbours (e.g. supervisor quarantine spam) cannot starve it.
      USK_KLOG_RATELIMIT_NAMED(
          "sched.watchdog", base::LogLevel::kCrit, 32u,
          "watchdog: task %u (%s) exceeded kernel budget "
          "(%llu > %llu units); killed",
          t.pid(), t.name().c_str(),
          static_cast<unsigned long long>(t.kernel_time_this_visit()),
          static_cast<unsigned long long>(t.kernel_budget()));
      return false;
    }
    return t.alive();
  }

  // --- introspection --------------------------------------------------------
  struct CpuSnapshot {
    std::size_t cpu = 0;
    std::size_t depth = 0;       ///< runqueue depth right now
    Pid current_pid = 0;         ///< 0 = idle
    std::uint64_t pushes = 0;
    std::uint64_t stolen_from = 0;  ///< tasks other CPUs took from here
    std::uint64_t steals = 0;       ///< tasks this CPU took from others
    std::uint64_t migrations_in = 0;
    std::uint64_t picks = 0;
  };

  [[nodiscard]] std::vector<CpuSnapshot> snapshot_cpus() const {
    std::vector<CpuSnapshot> out(ncpus_);
    for (std::size_t i = 0; i < ncpus_; ++i) {
      CpuSnapshot& s = out[i];
      s.cpu = i;
      s.depth = rqs_[i].depth();
      const Task* cur = cpu_.slot(i).current.load(std::memory_order_relaxed);
      s.current_pid = cur != nullptr ? cur->pid() : 0;
      s.pushes = rqs_[i].pushes();
      s.stolen_from = rqs_[i].stolen();
      s.steals = cpustats_[i].steals.load(std::memory_order_relaxed);
      s.migrations_in =
          cpustats_[i].migrations_in.load(std::memory_order_relaxed);
      s.picks = cpustats_[i].picks.load(std::memory_order_relaxed);
    }
    return out;
  }

  [[nodiscard]] const SchedStats& stats() const { return stats_; }
  /// preempt_point() calls, every CPU merged (live-readable).
  [[nodiscard]] std::uint64_t preempt_points() const {
    std::uint64_t sum = 0;
    cpu_.for_each([&](const Cpu& c) { sum += c.preempt_points.get(); });
    return sum;
  }
  [[nodiscard]] std::size_t cpu_count() const { return ncpus_; }
  [[nodiscard]] std::size_t task_count() const {
    std::lock_guard lk(spawn_mu_);
    return tasks_.size();
  }

 private:
  struct Cpu {
    std::atomic<Task*> current{nullptr};
    std::uint32_t since_schedule = 0;
    base::CpuCounter preempt_points;
  };
  struct alignas(64) CpuStats {
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> migrations_in{0};
    std::atomic<std::uint64_t> picks{0};
  };

  std::uint32_t quantum_;
  std::size_t ncpus_;
  std::vector<RunQueue> rqs_;       ///< indexed by current_cpu() % ncpus_
  std::vector<CpuStats> cpustats_;  ///< parallel to rqs_
  mutable std::mutex spawn_mu_;
  Pid next_pid_ = 1;
  std::vector<std::unique_ptr<Task>> tasks_;
  base::PerCpu<Cpu> cpu_;
  SchedStats stats_;
};

}  // namespace usk::sched
