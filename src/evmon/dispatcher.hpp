// Event dispatcher: the log_event entry point.
//
// Paper §3.3 / Figure 1: "The log_event call invokes an event dispatcher,
// which in turn invokes a set of callbacks. When high performance is
// needed, an event monitor should be developed as a kernel module and
// register a callback with the dispatcher." User-space monitors instead
// receive events via the ring buffer behind the character device.
//
// Dispatch is wait-free with respect to registration: the callback list is
// an immutable snapshot swapped atomically, so log_event never takes a
// lock (it may be called from simulated interrupt context).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "base/sync.hpp"
#include "evmon/event.hpp"
#include "evmon/ring_buffer.hpp"

namespace usk::evmon {

struct DispatcherStats {
  std::uint64_t events = 0;
  std::uint64_t callback_invocations = 0;
  std::uint64_t ring_pushes = 0;
};

class Dispatcher {
 public:
  using Callback = std::function<void(const Event&)>;
  using CallbackId = std::uint32_t;

  Dispatcher();
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Register a synchronous in-kernel monitor callback.
  CallbackId register_callback(Callback cb);
  void unregister_callback(CallbackId id);

  /// Install a selective-instrumentation filter (e.g., a compiled
  /// evmon::RuleSet); events it rejects are dropped before callbacks and
  /// the ring buffer. nullptr removes the filter (everything delivered).
  /// Not safe to change while events are in flight.
  void set_filter(std::function<bool(const Event&)> filter) {
    filter_ = std::move(filter);
  }

  /// Attach/detach the ring buffer feeding user space (nullptr detaches).
  void attach_ring(RingBuffer* ring) {
    ring_.store(ring, std::memory_order_release);
  }

  /// The instrumentation entry point. Safe in any context: callbacks are
  /// invoked synchronously; the ring push never blocks.
  void log_event(void* object, std::int32_t type, const char* file, int line);

  [[nodiscard]] DispatcherStats stats() const {
    return DispatcherStats{events_.load(std::memory_order_relaxed),
                           invocations_.load(std::memory_order_relaxed),
                           ring_pushes_.load(std::memory_order_relaxed)};
  }

  /// Bridge base::SyncHooks (spinlocks, refcounts, semaphores, IRQ state)
  /// into this dispatcher. Only one bridge may be active process-wide.
  void install_sync_bridge();
  void remove_sync_bridge();

 private:
  static void sync_bridge_thunk(void* ctx, void* object, base::SyncEvent ev,
                                const char* file, int line);

  struct Entry {
    CallbackId id;
    Callback cb;
  };
  using Snapshot = std::vector<Entry>;

  std::mutex reg_mu_;  // serializes registration only
  std::shared_ptr<const Snapshot> snapshot_;  // swapped under reg_mu_
  std::function<bool(const Event&)> filter_;
  CallbackId next_id_ = 1;
  std::atomic<RingBuffer*> ring_{nullptr};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::uint64_t> ring_pushes_{0};
  bool bridge_installed_ = false;
};

#define USK_LOG_EVENT(dispatcher, object, type) \
  (dispatcher).log_event((object), (type), __FILE__, __LINE__)

}  // namespace usk::evmon
