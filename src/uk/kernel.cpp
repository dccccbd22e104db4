#include "uk/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "dl/dl.hpp"
#include "fs/procfs.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"
#include "uk/kproc.hpp"

namespace usk::uk {

namespace {
constexpr std::size_t kPhysFrames = 1 << 16;  ///< 256 MiB of simulated RAM
constexpr std::uint32_t kSchedQuantum = 32;
/// Base of the vmalloc virtual area and its size in pages.
constexpr vm::VAddr kVmallocBase = 0xFFFF800000000000ull;
constexpr std::size_t kVmallocPages = 1 << 15;
}  // namespace

Kernel::Kernel(fs::FileSystem& rootfs, KernelConfig cfg)
    : phys_(kPhysFrames),
      kernel_as_(phys_, "kernel"),
      kmalloc_(phys_, cfg.kmalloc_per_cpu_cache),
      vmalloc_(kernel_as_, kVmallocBase, kVmallocPages),
      sched_(kSchedQuantum),
      boundary_(engine_, cfg.boundary),
      vfs_(rootfs, cfg.dcache_capacity, cfg.dcache_shards) {}

Kernel::~Kernel() = default;

// --- supervisor gateway -------------------------------------------------------

namespace {
std::atomic<SupGatewayFn> g_sup_fn{nullptr};
std::atomic<void*> g_sup_ctx{nullptr};
}  // namespace

void set_sup_gateway(SupGatewayFn fn, void* ctx) {
  if (fn == nullptr) {
    // Disarm first so in-flight Scopes stop consulting the pointer pair
    // before it is cleared.
    supdetail::g_armed.store(false, std::memory_order_release);
    g_sup_fn.store(nullptr, std::memory_order_release);
    g_sup_ctx.store(nullptr, std::memory_order_release);
    return;
  }
  g_sup_ctx.store(ctx, std::memory_order_release);
  g_sup_fn.store(fn, std::memory_order_release);
  supdetail::g_armed.store(true, std::memory_order_release);
}

fs::ProcFs& Kernel::mount_procfs() {
  std::lock_guard lk(spawn_mu_);
  if (!procfs_) {
    procfs_ = std::make_unique<fs::ProcFs>();
    register_kernel_proc(*this, *procfs_);
    // EEXIST is fine: the root filesystem may already have a /proc dir.
    vfs_.mkdir("/proc", 0555);
    vfs_.mount("/proc", *procfs_);
  }
  return *procfs_;
}

Process& Kernel::spawn(std::string name) {
  sched::Task& t = sched_.spawn(std::move(name));
  std::lock_guard lk(spawn_mu_);
  // Round-robin affinity: pooled dispatchers enqueue onto the task's home
  // runqueue; direct dispatch ignores it (enter() runs wherever called).
  sched_.bind(t, procs_.size() % sched_.cpu_count());
  procs_.push_back(std::make_unique<Process>(t));
  return *procs_.back();
}

// --- Scope ------------------------------------------------------------------

Kernel::Scope::Scope(Kernel& k, Process& p, Sys nr)
    : k_(k), p_(p), nr_(nr), wall0_(std::chrono::steady_clock::now()) {
  // Per-task copy counters: the audit byte deltas stay correct when other
  // tasks dispatch concurrently on sibling CPUs.
  in0_ = p_.task.bytes_from_user;
  out0_ = p_.task.bytes_to_user;
  kunits0_ = p_.task.times().kernel;
  trace::set_current_pid(p_.task.pid());
  USK_TRACEPOINT("syscall", "enter", static_cast<std::uint64_t>(nr));
  k_.boundary_.enter_kernel(p_.task);
  ++p_.task.syscalls;
  k_.sched_.enter(p_.task);
  // kdl gateway: an expired or canceled request fails fast here instead
  // of spending kernel units on work whose answer nobody will take.
  // Disarmed, this whole block is one relaxed load.
  if (dl::dl_enabled()) gate_err_ = dl::gate_check(&p_.task);
}

Kernel::Scope::~Scope() {
  k_.boundary_.exit_kernel(p_.task);
  const std::uint64_t wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0_)
          .count());
  p_.task.kernel_wall_ns += wall_ns;
  // Always-on log2 latency histogram (the wall time is already in hand,
  // and the record lands in this CPU's own table -- see trace::Ktrace).
  trace::ktrace().record_syscall(static_cast<std::uint16_t>(nr_), wall_ns);
  USK_TRACEPOINT("syscall", "exit", static_cast<std::uint64_t>(nr_),
                 static_cast<std::uint64_t>(ret_));
  AuditRecord r;
  r.pid = p_.task.pid();
  r.nr = nr_;
  r.ret = ret_;
  r.bytes_in = static_cast<std::uint32_t>(p_.task.bytes_from_user - in0_);
  r.bytes_out = static_cast<std::uint32_t>(p_.task.bytes_to_user - out0_);
  k_.audit_.record(r);
  // Span attribution: the innermost open span (if any) absorbs this
  // call's crossing and its byte/unit deltas. No span -> one
  // thread-local load, same discipline as the gateway check below.
  if (trace::SpanScope* sp = trace::SpanScope::current()) {
    sp->attribute_syscall(r.bytes_in, r.bytes_out,
                          p_.task.times().kernel - kunits0_, ret_);
  }
  // Supervisor gateway: one relaxed load when no supervisor is registered.
  if (sup_gateway_armed()) {
    if (SupGatewayFn fn = g_sup_fn.load(std::memory_order_acquire)) {
      fn(g_sup_ctx.load(std::memory_order_acquire), p_, nr_, ret_,
         p_.task.times().kernel - kunits0_);
    }
  }
}

// --- helpers ----------------------------------------------------------------

namespace {
template <typename T>
T* uptr(std::uint64_t v) {
  return reinterpret_cast<T*>(static_cast<std::uintptr_t>(v));
}
}  // namespace

std::int64_t Kernel::get_user_path(Process& p, const char* upath,
                                   char* kpath) {
  if (upath == nullptr) return sysret_err(Errno::kEFAULT);
  Result<std::size_t> len =
      boundary_.strncpy_from_user(p.task, kpath, upath, kMaxPath);
  if (!len) return sysret_err(len.error());
  return static_cast<std::int64_t>(len.value());
}

Result<DirentPack> pack_dirents(fs::Vfs& vfs, fs::FdTable& fds, int fd,
                                std::uint64_t pos, std::span<std::byte> out) {
  // Estimate how many entries can fit, fetch a window, pack what fits.
  const std::size_t max_entries =
      std::max<std::size_t>(1, out.size() / sizeof(DirentHdr));
  Result<std::vector<fs::DirEntry>> win =
      vfs.readdir_window(fds, fd, pos, max_entries);
  if (!win) return win.error();
  DirentPack pk;
  for (const fs::DirEntry& de : win.value()) {
    const std::size_t rec = sizeof(DirentHdr) + de.name.size();
    if (pk.bytes + rec > out.size()) break;
    DirentHdr hdr{de.ino, static_cast<std::uint8_t>(de.type),
                  static_cast<std::uint8_t>(de.name.size())};
    std::memcpy(out.data() + pk.bytes, &hdr, sizeof(hdr));
    std::memcpy(out.data() + pk.bytes + sizeof(hdr), de.name.data(),
                de.name.size());
    pk.bytes += rec;
    ++pk.entries;
  }
  return pk;
}

// --- the gateway --------------------------------------------------------------

const Kernel::HandlerTable& Kernel::handlers() {
  static const HandlerTable table = [] {
    HandlerTable t{};
    auto set = [&t](Sys nr, SysHandler h) {
      t[static_cast<std::size_t>(nr)] = h;
    };
    set(Sys::kOpen, &Kernel::do_open);
    set(Sys::kClose, &Kernel::do_close);
    set(Sys::kDup, &Kernel::do_dup);
    set(Sys::kRead, &Kernel::do_read);
    set(Sys::kWrite, &Kernel::do_write);
    set(Sys::kLseek, &Kernel::do_lseek);
    set(Sys::kStat, &Kernel::do_stat);
    set(Sys::kFstat, &Kernel::do_fstat);
    set(Sys::kReaddir, &Kernel::do_readdir);
    set(Sys::kUnlink, &Kernel::do_unlink);
    set(Sys::kMkdir, &Kernel::do_mkdir);
    set(Sys::kRmdir, &Kernel::do_rmdir);
    set(Sys::kRename, &Kernel::do_rename);
    set(Sys::kTruncate, &Kernel::do_truncate);
    set(Sys::kGetpid, &Kernel::do_getpid);
    set(Sys::kSync, &Kernel::do_sync);
    set(Sys::kFsync, &Kernel::do_fsync);
    set(Sys::kFdatasync, &Kernel::do_fdatasync);
    set(Sys::kLink, &Kernel::do_link);
    set(Sys::kChmod, &Kernel::do_chmod);
    return t;
  }();
  return table;
}

SysRet Kernel::syscall(Process& p, Sys nr, const SysArgs& a) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  const SysHandler h = idx < handlers().size() ? handlers()[idx] : nullptr;
  if (h != nullptr) {
    // The Scope is constructed HERE for every table-dispatched call: one
    // crossing, one audit record, one ktrace sample per entry.
    Scope scope(*this, p, nr);
    if (SysRet g = scope.gate(); g != 0) return g;
    return scope.done((this->*h)(p, a));
  }
  if (idx < external_.size()) {
    if (ExternalSysFn fn = external_[idx].fn.load(std::memory_order_acquire)) {
      // Runtime-registered slot: the handler owns its Scope discipline.
      return fn(external_[idx].ctx.load(std::memory_order_acquire), *this, p,
                a);
    }
  }
  Scope scope(*this, p, nr);
  return scope.fail(Errno::kENOSYS);
}

void Kernel::register_syscall(Sys nr, ExternalSysFn fn, void* ctx) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  if (idx >= external_.size() || handlers()[idx] != nullptr) return;
  if (fn == nullptr) {
    // Disarm the function first so a racing dispatch never pairs the old
    // fn with a cleared ctx.
    external_[idx].fn.store(nullptr, std::memory_order_release);
    external_[idx].ctx.store(nullptr, std::memory_order_release);
    return;
  }
  external_[idx].ctx.store(ctx, std::memory_order_release);
  external_[idx].fn.store(fn, std::memory_order_release);
}

SysRet Kernel::dispatch_nested(Process& p, Sys nr, const SysArgs& a) {
  const std::size_t idx = static_cast<std::size_t>(nr);
  const SysHandler h = idx < handlers().size() ? handlers()[idx] : nullptr;
  if (h == nullptr) return sysret_err(Errno::kENOSYS);
  return (this->*h)(p, a);
}

// --- typed wrappers (the userlib-facing ABI) ----------------------------------

SysRet Kernel::sys_open(Process& p, const char* upath, int flags,
                        std::uint32_t mode) {
  return syscall(p, Sys::kOpen,
                 {uarg(upath), static_cast<std::uint64_t>(flags), mode, 0});
}
SysRet Kernel::sys_close(Process& p, int fd) {
  return syscall(p, Sys::kClose, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_dup(Process& p, int fd) {
  return syscall(p, Sys::kDup, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_read(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kRead,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_write(Process& p, int fd, const void* ubuf,
                         std::size_t n) {
  return syscall(p, Sys::kWrite,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_lseek(Process& p, int fd, std::int64_t off, int whence) {
  return syscall(p, Sys::kLseek,
                 {static_cast<std::uint64_t>(fd),
                  static_cast<std::uint64_t>(off),
                  static_cast<std::uint64_t>(whence), 0});
}
SysRet Kernel::sys_stat(Process& p, const char* upath, fs::StatBuf* ust) {
  return syscall(p, Sys::kStat, {uarg(upath), uarg(ust), 0, 0});
}
SysRet Kernel::sys_fstat(Process& p, int fd, fs::StatBuf* ust) {
  return syscall(p, Sys::kFstat,
                 {static_cast<std::uint64_t>(fd), uarg(ust), 0, 0});
}
SysRet Kernel::sys_readdir(Process& p, int fd, void* ubuf, std::size_t n) {
  return syscall(p, Sys::kReaddir,
                 {static_cast<std::uint64_t>(fd), uarg(ubuf), n, 0});
}
SysRet Kernel::sys_unlink(Process& p, const char* upath) {
  return syscall(p, Sys::kUnlink, {uarg(upath)});
}
SysRet Kernel::sys_mkdir(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kMkdir, {uarg(upath), mode, 0, 0});
}
SysRet Kernel::sys_rmdir(Process& p, const char* upath) {
  return syscall(p, Sys::kRmdir, {uarg(upath)});
}
SysRet Kernel::sys_rename(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kRename, {uarg(ufrom), uarg(uto), 0, 0});
}
SysRet Kernel::sys_truncate(Process& p, const char* upath,
                            std::uint64_t size) {
  return syscall(p, Sys::kTruncate, {uarg(upath), size, 0, 0});
}
SysRet Kernel::sys_getpid(Process& p) { return syscall(p, Sys::kGetpid); }
SysRet Kernel::sys_sync(Process& p) { return syscall(p, Sys::kSync); }
SysRet Kernel::sys_fsync(Process& p, int fd) {
  return syscall(p, Sys::kFsync, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_fdatasync(Process& p, int fd) {
  return syscall(p, Sys::kFdatasync, {static_cast<std::uint64_t>(fd)});
}
SysRet Kernel::sys_link(Process& p, const char* ufrom, const char* uto) {
  return syscall(p, Sys::kLink, {uarg(ufrom), uarg(uto), 0, 0});
}
SysRet Kernel::sys_chmod(Process& p, const char* upath, std::uint32_t mode) {
  return syscall(p, Sys::kChmod, {uarg(upath), mode, 0, 0});
}

// --- handlers -----------------------------------------------------------------
// Error-path discipline (audited, regression-tested in test_uk.cpp):
// descriptor validity (EBADF) is decided BEFORE any user-memory copy or
// kernel buffer allocation, and user copies are fallible -- a faulted
// copy-out rewinds file position so no data is silently consumed.

SysRet Kernel::do_open(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<int> r = vfs_.open(
      p.fds, std::string_view(kpath, static_cast<std::size_t>(len)),
      static_cast<int>(a.a1), static_cast<std::uint32_t>(a.a2));
  if (!r) return sysret_err(r.error());
  return r.value();
}

SysRet Kernel::do_close(Process& p, const SysArgs& a) {
  Result<void> r = vfs_.close(p.fds, static_cast<int>(a.a0));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_dup(Process& p, const SysArgs& a) {
  Result<int> r = vfs_.dup(p.fds, static_cast<int>(a.a0));
  if (!r) return sysret_err(r.error());
  return r.value();
}

SysRet Kernel::do_read(Process& p, const SysArgs& a) {
  const int fd = static_cast<int>(a.a0);
  void* ubuf = uptr<void>(a.a1);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // EBADF before EFAULT, and before any buffer allocation: a bad
  // descriptor must not cost a kernel allocation or touch user memory.
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr || (f->flags & fs::kAccessMode) == fs::kOWrOnly) {
    return sysret_err(Errno::kEBADF);
  }
  if (ubuf == nullptr) return sysret_err(Errno::kEFAULT);
  std::vector<std::byte> kbuf(n);
  Result<std::size_t> r = vfs_.read(p.fds, fd, std::span(kbuf.data(), n));
  if (!r) return sysret_err(r.error());
  if (r.value() > 0) {
    if (Result<std::size_t> c =
            boundary_.copy_to_user(p.task, ubuf, kbuf.data(), r.value());
        !c) {
      // The user never saw the bytes: rewind the position the VFS
      // advanced so the data is not silently consumed.
      f->pos -= r.value();
      return sysret_err(c.error());
    }
  }
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_write(Process& p, const SysArgs& a) {
  const int fd = static_cast<int>(a.a0);
  const void* ubuf = uptr<const void>(a.a1);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // Validate the descriptor before paying for the copy-in: a bad or
  // read-only fd must fail without charging the caller for user->kernel
  // bytes (parity with do_read, which never copies on EBADF).
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr || (f->flags & fs::kAccessMode) == fs::kORdOnly) {
    return sysret_err(Errno::kEBADF);
  }
  if (ubuf == nullptr) return sysret_err(Errno::kEFAULT);
  std::vector<std::byte> kbuf(n);
  if (Result<std::size_t> c =
          boundary_.copy_from_user(p.task, kbuf.data(), ubuf, n);
      !c) {
    return sysret_err(c.error());
  }
  Result<std::size_t> r = vfs_.write(p.fds, fd, std::span(kbuf.data(), n));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_lseek(Process& p, const SysArgs& a) {
  Result<std::uint64_t> r =
      vfs_.lseek(p.fds, static_cast<int>(a.a0),
                 static_cast<std::int64_t>(a.a1), static_cast<int>(a.a2));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Kernel::do_stat(Process& p, const SysArgs& a) {
  fs::StatBuf* ust = uptr<fs::StatBuf>(a.a1);
  if (ust == nullptr) return sysret_err(Errno::kEFAULT);
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  fs::StatBuf st;
  Result<void> r = vfs_.stat(
      std::string_view(kpath, static_cast<std::size_t>(len)), &st);
  if (!r.ok()) return sysret_err(r.error());
  if (Result<std::size_t> c =
          boundary_.copy_to_user(p.task, ust, &st, sizeof(st));
      !c) {
    return sysret_err(c.error());
  }
  return 0;
}

SysRet Kernel::do_fstat(Process& p, const SysArgs& a) {
  fs::StatBuf* ust = uptr<fs::StatBuf>(a.a1);
  // EBADF before EFAULT: descriptor validity is decided first, like
  // Linux's fstat (fdget before copy_to_user can fault).
  fs::StatBuf st;
  Result<void> r = vfs_.fstat(p.fds, static_cast<int>(a.a0), &st);
  if (!r.ok()) return sysret_err(r.error());
  if (ust == nullptr) return sysret_err(Errno::kEFAULT);
  if (Result<std::size_t> c =
          boundary_.copy_to_user(p.task, ust, &st, sizeof(st));
      !c) {
    return sysret_err(c.error());
  }
  return 0;
}

SysRet Kernel::do_readdir(Process& p, const SysArgs& a) {
  const int fd = static_cast<int>(a.a0);
  void* ubuf = uptr<void>(a.a1);
  std::size_t n = std::min(static_cast<std::size_t>(a.a2), kMaxIo);
  // EBADF before EFAULT (see do_read).
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr) return sysret_err(Errno::kEBADF);
  if (ubuf == nullptr) return sysret_err(Errno::kEFAULT);

  std::vector<std::byte> kbuf(n);
  Result<DirentPack> pk = pack_dirents(vfs_, p.fds, fd, f->pos, kbuf);
  if (!pk) return sysret_err(pk.error());
  const std::size_t off = pk.value().bytes;
  if (off > 0) {
    if (Result<std::size_t> c =
            boundary_.copy_to_user(p.task, ubuf, kbuf.data(), off);
        !c) {
      // Position was not advanced yet: the faulted batch is re-readable.
      return sysret_err(c.error());
    }
  }
  f->pos += pk.value().entries;
  return static_cast<SysRet>(off);
}

SysRet Kernel::do_unlink(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<void> r =
      vfs_.unlink(std::string_view(kpath, static_cast<std::size_t>(len)));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_mkdir(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<void> r =
      vfs_.mkdir(std::string_view(kpath, static_cast<std::size_t>(len)),
                 static_cast<std::uint32_t>(a.a1));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_rmdir(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<void> r =
      vfs_.rmdir(std::string_view(kpath, static_cast<std::size_t>(len)));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_rename(Process& p, const SysArgs& a) {
  char kfrom[kMaxPath];
  char kto[kMaxPath];
  std::int64_t fl = get_user_path(p, uptr<const char>(a.a0), kfrom);
  if (fl < 0) return fl;
  std::int64_t tl = get_user_path(p, uptr<const char>(a.a1), kto);
  if (tl < 0) return tl;
  Result<void> r =
      vfs_.rename(std::string_view(kfrom, static_cast<std::size_t>(fl)),
                  std::string_view(kto, static_cast<std::size_t>(tl)));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_truncate(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<void> r = vfs_.truncate(
      std::string_view(kpath, static_cast<std::size_t>(len)), a.a1);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_getpid(Process& p, const SysArgs& /*a*/) {
  return static_cast<SysRet>(p.task.pid());
}

SysRet Kernel::do_sync(Process& /*p*/, const SysArgs& /*a*/) {
  Result<void> r = vfs_.filesystem().sync();
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_fsync(Process& p, const SysArgs& a) {
  Result<void> r = vfs_.fsync(p.fds, static_cast<int>(a.a0),
                              /*datasync=*/false);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_fdatasync(Process& p, const SysArgs& a) {
  Result<void> r = vfs_.fsync(p.fds, static_cast<int>(a.a0),
                              /*datasync=*/true);
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_link(Process& p, const SysArgs& a) {
  char kfrom[kMaxPath];
  char kto[kMaxPath];
  std::int64_t fl = get_user_path(p, uptr<const char>(a.a0), kfrom);
  if (fl < 0) return fl;
  std::int64_t tl = get_user_path(p, uptr<const char>(a.a1), kto);
  if (tl < 0) return tl;
  Result<void> r =
      vfs_.link(std::string_view(kfrom, static_cast<std::size_t>(fl)),
                std::string_view(kto, static_cast<std::size_t>(tl)));
  return r.ok() ? 0 : sysret_err(r.error());
}

SysRet Kernel::do_chmod(Process& p, const SysArgs& a) {
  char kpath[kMaxPath];
  std::int64_t len = get_user_path(p, uptr<const char>(a.a0), kpath);
  if (len < 0) return len;
  Result<void> r =
      vfs_.chmod(std::string_view(kpath, static_cast<std::size_t>(len)),
                 static_cast<std::uint32_t>(a.a1));
  return r.ok() ? 0 : sysret_err(r.error());
}

}  // namespace usk::uk
