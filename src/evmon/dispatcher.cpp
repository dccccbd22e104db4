#include "evmon/dispatcher.hpp"

namespace usk::evmon {

Dispatcher::Dispatcher() : snapshot_(std::make_shared<const Snapshot>()) {}

Dispatcher::~Dispatcher() {
  if (bridge_installed_) remove_sync_bridge();
}

Dispatcher::CallbackId Dispatcher::register_callback(Callback cb) {
  std::lock_guard lk(reg_mu_);
  auto next = std::make_shared<Snapshot>(*snapshot_);
  CallbackId id = next_id_++;
  next->push_back(Entry{id, std::move(cb)});
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const Snapshot>(std::move(next)),
                             std::memory_order_release);
  return id;
}

void Dispatcher::unregister_callback(CallbackId id) {
  std::lock_guard lk(reg_mu_);
  auto next = std::make_shared<Snapshot>(*snapshot_);
  std::erase_if(*next, [id](const Entry& e) { return e.id == id; });
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const Snapshot>(std::move(next)),
                             std::memory_order_release);
}

void Dispatcher::log_event(void* object, std::int32_t type, const char* file,
                           int line) {
  Event e;
  e.object = object;
  e.type = type;
  e.file = file;
  e.line = line;
  if (filter_ && !filter_(e)) return;  // selective instrumentation
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  events_.fetch_add(1, std::memory_order_relaxed);

  auto snap = std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  for (const Entry& entry : *snap) {
    entry.cb(e);
    invocations_.fetch_add(1, std::memory_order_relaxed);
  }

  if (RingBuffer* ring = ring_.load(std::memory_order_acquire)) {
    ring->push(e);  // drop-on-full; never blocks
    ring_pushes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Dispatcher::sync_bridge_thunk(void* ctx, void* object,
                                   base::SyncEvent ev, const char* file,
                                   int line) {
  auto* self = static_cast<Dispatcher*>(ctx);
  self->log_event(object, static_cast<std::int32_t>(ev), file, line);
}

void Dispatcher::install_sync_bridge() {
  base::SyncHooks::set(&Dispatcher::sync_bridge_thunk, this);
  bridge_installed_ = true;
}

void Dispatcher::remove_sync_bridge() {
  base::SyncHooks::reset();
  bridge_installed_ = false;
}

}  // namespace usk::evmon
