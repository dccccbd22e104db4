#include "workload/serve.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "consolidation/servercalls.hpp"
#include "cosy/exec.hpp"
#include "dl/dl.hpp"
#include "ring/ring.hpp"
#include "sched/scheduler.hpp"
#include "sup/fallback.hpp"
#include "sup/supervisor.hpp"
#include "trace/span.hpp"

namespace usk::workload {

const char* vehicle_name(Vehicle v) {
  switch (v) {
    case Vehicle::kPlain: return "plain";
    case Vehicle::kConsolidated: return "consolidated";
    case Vehicle::kCosy: return "cosy";
    case Vehicle::kRing: return "ring";
  }
  return "?";
}

/// Shared server-pool state: the stop flag, the task registry the
/// canceller picks victims from, the one Admission the pool sheds
/// through, and the server-side totals each worker adds on exit.
struct Server::Pool {
  Pool(uk::Kernel& kernel, net::Net& n, const ServeConfig& c)
      : k(kernel), net(n), cfg(c) {}

  uk::Kernel& k;
  net::Net& net;
  const ServeConfig cfg;
  dl::Admission adm;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::atomic<std::uint64_t> cancels_issued{0};
  std::mutex mu;
  std::vector<sched::Task*> tasks;  ///< live workers (canceller victims)
  ServeReport total;                ///< under mu
  std::size_t sockets_before = 0;
  std::int64_t kmalloc_before = 0;
};

namespace {

using Pool = Server::Pool;
using Clock = std::chrono::steady_clock;

/// Server-side read/send chunk: a classic 4 KiB stack buffer, so files
/// larger than one page take several read+send rounds in plain mode.
constexpr std::size_t kChunk = 4096;

std::string doc_path(std::size_t i) {
  return "/www/f" + std::to_string(i % kDocs);
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

std::int64_t epoch_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Fold one thread's counts into the run's totals.
void add_counts(ServeReport& to, const ServeReport& from) {
  to.requests += from.requests;
  to.ok_in_deadline += from.ok_in_deadline;
  to.ok_late += from.ok_late;
  to.shed += from.shed;
  to.failed += from.failed;
  to.dropped += from.dropped;
  to.conns += from.conns;
  to.server_crossings += from.server_crossings;
  to.server_user_bytes += from.server_user_bytes;
  to.server_kernel_units += from.server_kernel_units;
  to.leaked_fds += from.leaked_fds;
}

/// Exact percentile over a sample vector (sorts a copy; sample counts
/// here are thousands, and log2-bucket resolution would be too coarse
/// for the R3 p99-ratio gate).
std::uint64_t exact_percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// --- request ingress ---------------------------------------------------------

struct Request {
  std::string path;
  std::int64_t abs_deadline_ns = -1;  ///< -1: no deadline on the wire
  std::uint32_t tenant = 0;
};

/// "GET <path> [<abs_deadline_ns> <tenant>]", null-padded to kFrameBytes
/// (a frame that fills all kFrameBytes carries no terminator). Anything
/// else -- an empty frame, no path, a non-numeric or partial deadline
/// pair, trailing bytes -- is malformed.
std::optional<Request> parse_frame(const char* frame) {
  const std::string_view f(frame, strnlen(frame, kFrameBytes));
  if (!f.starts_with("GET ")) return std::nullopt;
  const std::string_view rest = f.substr(4);
  const std::size_t sp = rest.find(' ');
  Request r;
  r.path = rest.substr(0, sp);
  if (r.path.empty()) return std::nullopt;
  if (sp == std::string_view::npos) return r;
  const char* end = f.data() + f.size();
  auto [q, e1] = std::from_chars(rest.data() + sp + 1, end, r.abs_deadline_ns);
  if (e1 != std::errc{} || r.abs_deadline_ns < 0 || q == end || *q != ' ') {
    return std::nullopt;
  }
  auto [t, e2] = std::from_chars(q + 1, end, r.tenant);
  if (e2 != std::errc{} || t != end) return std::nullopt;
  return r;
}

/// Request ingress: parse one frame, attach its kdl scope, consult
/// admission. The scope rides the same thread-local stack as kspan, so
/// the gateway and every park below see it for free. Requests without
/// a deadline on the wire attach nothing.
class Ingress {
 public:
  Ingress(Pool& pool, sched::Task& task, const char* frame)
      : pool_(pool), req_(parse_frame(frame)) {
    if (!req_ || req_->abs_deadline_ns < 0) return;
    // The residual is computed here, at recv time: it keeps ticking while
    // the request sits in this server's own accept/epoll backlog.
    const std::int64_t rem = req_->abs_deadline_ns - epoch_ns(dl::Clock::now());
    scope_.emplace(std::chrono::nanoseconds(std::max<std::int64_t>(rem, 0)),
                   &task, req_->tenant);
    if (!dl::dl_enabled()) return;
    const dl::DeadlineScope* cur = dl::DeadlineScope::current();
    if (!pool_.adm.try_admit(cur != nullptr ? cur->remaining_ns() : rem)) {
      // Retire the scope before the connection is closed: a shed
      // request's budget is often already gone, and an expired scope
      // fails every syscall at the gateway, that close included.
      scope_.reset();
      req_.reset();
      return;
    }
    admitted_at_ = dl::Clock::now();
  }
  ~Ingress() { retire(); }

  /// Well-formed and admitted.
  [[nodiscard]] bool ok() const { return req_.has_value(); }
  [[nodiscard]] const char* path() const { return req_->path.c_str(); }

  /// Depart admission and retire the scope. What was acquired under the
  /// scope is released after this (release-after-retire).
  void retire() {
    if (admitted_at_) {
      pool_.adm.depart(ns_since(*admitted_at_));
      admitted_at_.reset();
    }
    scope_.reset();
  }

 private:
  Pool& pool_;
  std::optional<Request> req_;
  std::optional<dl::DeadlineScope> scope_;
  std::optional<dl::Clock::time_point> admitted_at_;
};

// --- the plain serve loop ----------------------------------------------------

/// Classic per-request serving: stat (size / If-Modified-Since check the
/// way Apache does it), open, read+send chunk loop. Every file byte
/// crosses the boundary twice (read copy-out, send copy-in). Any
/// negative SysRet (ETIMEDOUT/ECANCELED through the gateway or a park,
/// like every other errno) unwinds it. The opened file fd is handed back
/// through `file_fd`: under an expired or cancelled scope even close()
/// fails at the gateway, so release belongs to the caller, after the
/// scope retires.
bool serve_doc(uk::Proc& srv, net::Net& net, int connfd, const char* path,
               int* file_fd) {
  *file_fd = -1;
  fs::StatBuf st{};
  if (srv.stat(path, &st) != 0) return false;
  const int fd = srv.open(path, fs::kORdOnly);
  if (fd < 0) return false;
  *file_fd = fd;
  std::byte buf[kChunk];
  std::uint64_t left = st.size;
  while (left > 0) {
    const std::size_t want =
        left < kChunk ? static_cast<std::size_t>(left) : kChunk;
    const SysRet n = srv.read(fd, buf, want);
    if (n <= 0 || net.sys_send(srv.process(), connfd, buf,
                               static_cast<std::size_t>(n)) != n) {
      return false;
    }
    left -= static_cast<std::uint64_t>(n);
  }
  return true;
}

/// serve_doc with no scope to outlive: the file fd is released at once.
/// The form the sup fallback and the Cosy/ring rescues use.
bool serve_classic(uk::Proc& srv, net::Net& net, int connfd,
                   const char* path) {
  int fd = -1;
  const bool ok = serve_doc(srv, net, connfd, path, &fd);
  if (fd >= 0) srv.close(fd);
  return ok;
}

/// Classic serving of a whole keep-alive connection whose first request
/// (`path`) is already received: the degraded form of a Cosy compound
/// (same observable effects, one syscall per step). The remaining
/// requests are recv'd until the client closes.
void serve_classic_conn(uk::Proc& srv, net::Net& net, int connfd,
                        const char* path) {
  bool ok = serve_classic(srv, net, connfd, path);
  char frame[kFrameBytes];
  while (ok) {
    std::memset(frame, 0, sizeof frame);
    if (net.sys_recv(srv.process(), connfd, frame, kFrameBytes) <= 0) break;
    const std::optional<Request> r = parse_frame(frame);
    ok = r && serve_classic(srv, net, connfd, r->path.c_str());
  }
}

// --- workers -----------------------------------------------------------------

struct Worker {
  Worker(Pool& pl, std::size_t w)
      : pool(pl),
        cfg(pl.cfg),
        net(pl.net),
        srv(pl.k, "websrv" + std::to_string(w)),
        p(srv.process()) {}

  Pool& pool;
  const ServeConfig& cfg;
  net::Net& net;
  uk::Proc srv;
  uk::Process& p;
  std::uint64_t conns = 0;  ///< connections retired
  sup::Supervisor* sup = nullptr;  ///< null: nothing runs supervised
  sup::ExtId ext_id = -1;

  /// Register this worker's in-kernel serving path with the supervisor.
  void supervise(sup::Vehicle v) {
    if (cfg.supervisor == nullptr || cfg.vehicle == Vehicle::kPlain) return;
    sup = cfg.supervisor;
    ext_id = sup->register_extension(
        srv.task().name() + "." + vehicle_name(cfg.vehicle), v);
  }

  /// A cancel that lands with nothing held is absorbed: clear the flag
  /// and carry on.
  void absorb_cancel() { srv.task().set_cancel_pending(false); }

  /// Run a cleanup-side syscall to completion through a cancellation
  /// storm: ECANCELED from the gateway means a cancel landed between the
  /// unwind point and this call -- the worker IS the unwind target, so it
  /// absorbs the cancel and retries. Without this, a cancel racing the
  /// post-request epoll_ctl(DEL)/close would orphan the connection fd
  /// and strand its client forever.
  SysRet cancel_immune(auto&& call) {
    for (;;) {
      const SysRet r = call();
      if (r != sysret_err(Errno::kECANCELED)) return r;
      absorb_cancel();
    }
  }

  /// Closed arrivals: the connection quota. Open arrivals: stop().
  [[nodiscard]] bool finished() const {
    return cfg.requests == 0 ? conns >= cfg.conns_per_worker
                             : pool.stop.load(std::memory_order_acquire);
  }

  /// Retire a connection; `ep` < 0 when it was never watched.
  void retire(int connfd, int ep) {
    if (ep >= 0) {
      cancel_immune(
          [&] { return net.sys_epoll_ctl(p, ep, net::kEpollCtlDel, connfd, 0); });
    }
    cancel_immune([&] { return srv.close(connfd); });
    ++conns;
  }

  /// Add this worker's server-side cost and leak sample to the totals.
  void finish() {
    ServeReport mine;
    mine.conns = conns;
    mine.server_crossings = srv.task().syscalls;
    mine.server_user_bytes =
        srv.task().bytes_from_user + srv.task().bytes_to_user;
    mine.server_kernel_units = srv.task().times().kernel;
    mine.leaked_fds = p.fds.open_count();
    std::lock_guard lk(pool.mu);
    add_counts(pool.total, mine);
  }
};

/// Ingress, then the vehicle's response under it (plain: the serve loop;
/// consolidated: one sendfile). Returns true when the whole document
/// went out, i.e. the connection stays open.
bool serve_request(Worker& w, int connfd, const char* frame) {
  Ingress in(w.pool, w.srv.task(), frame);
  if (!in.ok()) return false;
  int file_fd = -1;
  bool ok;
  if (w.cfg.vehicle == Vehicle::kConsolidated) {
    const SysRet n =
        w.sup != nullptr
            ? sup::supervised_sendfile(*w.sup, w.ext_id, w.net, w.pool.k, w.p,
                                       connfd, in.path(), 0, w.cfg.file_bytes)
            : consolidation::sys_sendfile(w.net, w.pool.k, w.p, connfd,
                                          in.path(), 0, w.cfg.file_bytes);
    ok = n == static_cast<SysRet>(w.cfg.file_bytes);
  } else {
    ok = serve_doc(w.srv, w.net, connfd, in.path(), &file_fd);
  }
  in.retire();
  if (file_fd >= 0) w.cancel_immune([&] { return w.srv.close(file_fd); });
  return ok;
}

/// One compound serves the whole keep-alive connection: the response to
/// the already-received first request, then (recv request, open, read,
/// close, send response) for each remaining request -- all in a single
/// boundary crossing, all payload through the shared buffer.
cosy::CosyResult serve_cosy(Worker& w, cosy::CosyExtension& ext, int connfd,
                            const char* path) {
  cosy::CompoundBuilder b;
  cosy::Arg pa = b.str(path);
  const auto fb = static_cast<std::int64_t>(w.cfg.file_bytes);
  const auto off = static_cast<std::int64_t>(kFrameBytes);
  for (std::size_t r = 0; r < w.cfg.requests_per_conn; ++r) {
    if (r > 0) {
      b.read(cosy::imm(connfd), cosy::shared(0),
             cosy::imm(static_cast<std::int64_t>(kFrameBytes)));
    }
    int o = b.open(pa, cosy::imm(fs::kORdOnly), cosy::imm(0));
    b.read(cosy::result_of(o), cosy::shared(off), cosy::imm(fb));
    b.close(cosy::result_of(o));
    b.write(cosy::imm(connfd), cosy::shared(off), cosy::imm(fb));
  }
  cosy::Compound c = b.finish();
  cosy::SharedBuffer shared(kFrameBytes + w.cfg.file_bytes);
  return ext.execute(w.p, c, shared);
}

/// The Cosy vehicle: accept, recv the first frame, one compound for the
/// connection (supervised: routed by the breaker, rescued classically
/// when it aborts before op 0), close.
void serve_cosy_conn(Worker& w, cosy::CosyExtension& ext, int lfd) {
  const SysRet c = w.cancel_immune([&] { return w.net.sys_accept(w.p, lfd); });
  if (c < 0) return;
  const int connfd = static_cast<int>(c);
  // Request ingress: one root span per keep-alive connection (the
  // compound serves all its requests). The quarantine fallback and the
  // classic rescue open CHILD spans below, so a degraded connection
  // still reads as one tree.
  trace::SpanScope span("ws.conn", trace::SpanVehicle::kCosy, w.ext_id);
  char frame[kFrameBytes] = {};
  if (w.net.sys_recv(w.p, connfd, frame, kFrameBytes) > 0) {
    Ingress in(w.pool, w.srv.task(), frame);  // malformed: retired unserved
    if (in.ok() && w.sup == nullptr) {
      serve_cosy(w, ext, connfd, in.path());
    } else if (in.ok()) {
      const sup::Route route = w.sup->route(w.ext_id);
      if (route == sup::Route::kFallback) {
        // Quarantined: the whole connection is served by the classic
        // loop, accounted as a fallback run; its syscalls land in this
        // child span, inside the original request's tree.
        trace::SpanScope fb("sup.fallback", trace::SpanVehicle::kFallback,
                            w.ext_id);
        SysRet fres = 0;
        sup::InvocationGuard g(*w.sup, w.ext_id, &w.srv.task(), route, &fres);
        serve_classic_conn(w.srv, w.net, connfd, in.path());
      } else {
        if (route == sup::Route::kProbe) ext.re_isolate_all();
        SysRet cret = 0;
        std::size_t ops_run = 0;
        {
          sup::InvocationGuard g(*w.sup, w.ext_id, &w.srv.task(), route,
                                 &cret);
          const cosy::CosyResult r = serve_cosy(w, ext, connfd, in.path());
          cret = r.ret;
          ops_run = r.ops_run;
        }
        if (cret != 0 && ops_run == 0) {
          // Aborted before op 0 (fuel voided at entry, rejected
          // compound): no side effects yet, so the classic loop can
          // serve the connection in full.
          trace::SpanScope rescue("sup.fallback",
                                  trace::SpanVehicle::kFallback, w.ext_id);
          serve_classic_conn(w.srv, w.net, connfd, in.path());
        }
      }
    }
  }
  w.retire(connfd, -1);
}

/// Watch an accepted connection. The add runs through a cancel storm; if
/// it still fails, the connection is retired, not left open and unwatched.
void watch(Worker& w, int connfd, int ep) {
  const SysRet r = w.cancel_immune([&] {
    return w.net.sys_epoll_ctl(w.p, ep, net::kEpollCtlAdd, connfd,
                               net::kEpollIn);
  });
  if (r < 0) w.retire(connfd, -1);
}

/// A readable listener on the epoll vehicles.
void on_accept(Worker& w, cosy::CosyExtension& ext, int lfd, int ep) {
  if (w.cfg.vehicle == Vehicle::kCosy) {
    serve_cosy_conn(w, ext, lfd);
  } else if (w.cfg.vehicle == Vehicle::kPlain) {
    trace::SpanScope span("ws.accept", trace::SpanVehicle::kPlain);
    const SysRet c = w.cancel_immune([&] { return w.net.sys_accept(w.p, lfd); });
    if (c >= 0) watch(w, static_cast<int>(c), ep);
  } else {
    // Consolidated ingress span: the accept branch serves the
    // connection's first request itself, so the span is promoted to
    // ws.request once a frame arrives.
    trace::SpanScope span("ws.accept", trace::SpanVehicle::kConsolidated,
                          w.ext_id);
    char frame[kFrameBytes] = {};
    int connfd = -1;
    const SysRet r =
        w.sup != nullptr
            ? sup::supervised_accept_recv(*w.sup, w.ext_id, w.net, w.pool.k,
                                          w.p, lfd, frame, kFrameBytes,
                                          &connfd)
            : consolidation::sys_accept_recv(w.net, w.pool.k, w.p, lfd, frame,
                                             kFrameBytes, &connfd);
    if (connfd < 0) return;
    if (r > 0) span.set_name("ws.request");
    if (r > 0 && serve_request(w, connfd, frame)) {
      watch(w, connfd, ep);
    } else {
      w.retire(connfd, -1);
    }
  }
}

/// A readable connection: one request frame, or the client's close.
void on_data(Worker& w, int connfd, int ep) {
  // Data-event ingress span, promoted to ws.request once a nonempty
  // frame arrives.
  trace::SpanScope span("ws.data",
                        w.cfg.vehicle == Vehicle::kConsolidated
                            ? trace::SpanVehicle::kConsolidated
                            : trace::SpanVehicle::kPlain,
                        w.ext_id);
  char frame[kFrameBytes] = {};
  const SysRet r = w.net.sys_recv(w.p, connfd, frame, kFrameBytes);
  bool keep = false;
  if (r > 0) {
    span.set_name("ws.request");
    keep = serve_request(w, connfd, frame);
  }
  if (!keep) w.retire(connfd, ep);
  // A cancel aimed at this request must not leak into the next one (the
  // DeadlineScope destructor clears it only when a scope was armed).
  w.absorb_cancel();
}

/// One epoll pass. Returns the events handled, or -1 once the worker was
/// killed. A cancel that lands with no request in flight surfaces as
/// ECANCELED out of epoll_wait: nothing was held, nothing leaks.
int epoll_step(Worker& w, cosy::CosyExtension& ext, int lfd, int ep,
               std::vector<net::EpollEvent>& evs, int timeout_ms) {
  const SysRet n = w.net.sys_epoll_wait(
      w.p, ep, evs.data(), static_cast<int>(evs.size()), timeout_ms);
  if (n == sysret_err(Errno::kECANCELED)) {
    w.absorb_cancel();
    return 0;
  }
  if (n < 0) return -1;  // killed by the watchdog
  for (SysRet i = 0; i < n; ++i) {
    const int fd = evs[static_cast<std::size_t>(i)].fd;
    if (fd == lfd) {
      on_accept(w, ext, lfd, ep);
    } else {
      on_data(w, fd, ep);
    }
  }
  return static_cast<int>(n);
}

void epoll_worker(Worker& w, int lfd) {
  cosy::CosyExtension ext(w.pool.k);
  const bool cosy = w.cfg.vehicle == Vehicle::kCosy;
  w.supervise(cosy ? sup::Vehicle::kCosy : sup::Vehicle::kConsolidated);
  if (cosy && w.sup != nullptr) ext.supervise(w.sup, w.ext_id);
  const int ep = static_cast<int>(w.net.sys_epoll_create(w.p));
  w.net.sys_epoll_ctl(w.p, ep, net::kEpollCtlAdd, lfd, net::kEpollIn);
  {
    std::lock_guard lk(w.pool.mu);
    w.pool.tasks.push_back(&w.srv.task());
  }
  w.pool.ready.fetch_add(1, std::memory_order_release);

  std::vector<net::EpollEvent> evs(16);
  while (!w.finished()) {
    if (epoll_step(w, ext, lfd, ep, evs, 10) < 0) break;
  }
  {
    std::lock_guard lk(w.pool.mu);
    std::erase(w.pool.tasks, &w.srv.task());
  }
  w.absorb_cancel();
  if (w.cfg.requests > 0) {
    // Drain: the clients are done, but accepted connections with queued
    // frames (or EOFs) may still be watched. Bounded, so every conn fd
    // is retired before the leak-oracle sample.
    for (int i = 0; i < 256; ++i) {
      if (epoll_step(w, ext, lfd, ep, evs, 0) <= 0) break;
    }
  }
  w.cancel_immune([&] { return w.srv.close(ep); });
}

// --- the ring vehicle --------------------------------------------------------
// The worker needs no epoll at all: the accept SQE parks inside the
// drain until a connection arrives, so the whole worker is a loop of
// ring_enter calls. Arena layout (per window of B = ring_batch chains):
//   [0, B*file_bytes)                       response slots (read -> send)
//   [B*file_bytes, +B*kFrameBytes)          request slots (recv)
//   [.., +kFrameBytes)                      the served path (open)

/// CQE tag: response-chain slot * 16 + op index; prologue ops offset
/// past any slot tag.
constexpr std::uint64_t slot_ud(std::size_t slot, std::size_t op) {
  return slot * 16 + op;
}
constexpr std::uint64_t kUdAccept = 0xA000;
constexpr std::uint64_t kUdFirstRecv = 0xA001;
constexpr std::uint64_t kUdPrevClose = 0xA002;

struct RingConn {
  Worker& w;
  ring::RingDev& rdev;
  std::shared_ptr<ring::Ring> rg;
  int ringfd;
  int lfd;
};

/// Queue one SQE, draining the ring if the SQ is unexpectedly full (the
/// ring is sized for a full window, so this is a backstop, not a path).
void ring_push(RingConn& rc, const ring::Sqe& s) {
  while (!rc.rg->user_prepare(s)) {
    rc.rdev.sys_ring_enter(rc.w.p, rc.ringfd, ring::RingDev::kDrainAll, 0, 0);
  }
}

/// Drain everything queued (all CQEs are posted synchronously: the
/// blocking ops inside the drain park on socket readiness, so nothing
/// is left pending when the enter returns) and reap into `out`.
void ring_round(RingConn& rc, std::vector<ring::Cqe>& out) {
  rc.rdev.sys_ring_enter(rc.w.p, rc.ringfd, ring::RingDev::kDrainAll, 0, 0);
  ring::Cqe buf[64];
  std::size_t n;
  while ((n = rc.rg->user_reap(buf, 64)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
}

SysRet cqe_res(const std::vector<ring::Cqe>& cqes, std::uint64_t ud,
               SysRet missing) {
  for (const ring::Cqe& c : cqes) {
    if (c.user_data == ud) return c.res;
  }
  return missing;  // dropped completion: treat as the caller directs
}

ring::Sqe sqe(std::uint64_t ud, ring::RingOp op, int fd, std::uint64_t addr,
              std::size_t len, bool link) {
  ring::Sqe s{};
  s.user_data = ud;
  s.op = op;
  s.flags = link ? ring::kSqeLink : 0;
  s.fd = fd;
  s.addr = addr;
  s.len = static_cast<std::uint32_t>(len);
  return s;
}

/// Serve one keep-alive connection through the ring. `*prev_conn` (>= 0)
/// is the previous connection's fd, closed as a free rider SQE on this
/// connection's prologue enter; on return it holds this connection's fd
/// (left open) or -1. Returns false when no connection arrived.
bool serve_ring_conn(RingConn& rc, int* prev_conn) {
  // Request ingress for the ring vehicle: the whole keep-alive
  // connection is one root span; each drained chain opens a child span
  // inside Ring::exec_chain, and the classic rescues attribute here.
  trace::SpanScope span("ws.conn", trace::SpanVehicle::kRing);
  Worker& w = rc.w;
  const std::size_t B = std::max<std::size_t>(1, w.cfg.ring_batch);
  const std::size_t fb = w.cfg.file_bytes;
  const std::uint64_t req_base = B * fb;
  const std::uint64_t path_off = req_base + B * kFrameBytes;
  const std::size_t R = w.cfg.requests_per_conn;
  std::vector<ring::Cqe> cqes;

  // Prologue: [close prev conn] + accept -> first recv, one crossing.
  const int prev = *prev_conn;
  *prev_conn = -1;
  if (prev >= 0) {
    ring_push(rc, sqe(kUdPrevClose, ring::RingOp::kClose, prev, 0, 0, false));
  }
  ring_push(rc, sqe(kUdAccept, ring::RingOp::kAccept, rc.lfd, 0, 0, true));
  ring_push(rc, sqe(kUdFirstRecv, ring::RingOp::kRecv, ring::kFdChain,
                    req_base, kFrameBytes, false));
  ring_round(rc, cqes);

  // Classic rescues (only under faults). A hard-failed accept left the
  // connection queued, so sys_accept picks it right up; a failed recv
  // left the request bytes queued on the new socket.
  if (prev >= 0 && cqe_res(cqes, kUdPrevClose, 0) < 0) w.srv.close(prev);
  int connfd = static_cast<int>(cqe_res(cqes, kUdAccept, -1));
  if (connfd < 0) connfd = static_cast<int>(w.net.sys_accept(w.p, rc.lfd));
  if (connfd < 0) {
    span.set_name("ws.idle");  // no connection arrived: not a request
    return false;
  }
  char frame[kFrameBytes] = {};
  if (cqe_res(cqes, kUdFirstRecv, -1) > 0) {
    std::memcpy(frame, rc.rg->user_data(req_base, kFrameBytes), kFrameBytes);
  } else if (w.net.sys_recv(w.p, connfd, frame, kFrameBytes) <= 0) {
    span.set_name("ws.idle");
    w.retire(connfd, -1);
    return true;
  }
  const std::optional<Request> req = parse_frame(frame);
  std::byte* ppath =
      req ? rc.rg->user_data(path_off, req->path.size() + 1) : nullptr;
  if (ppath == nullptr) {  // malformed, or a path longer than the arena
    w.retire(connfd, -1);
    return true;
  }
  const std::string& path = req->path;
  std::memcpy(ppath, path.c_str(), path.size() + 1);

  // Request windows: B linked chains per enter. Request 0's response
  // chain has no recv (the prologue consumed its request); every later
  // chain starts by recv'ing the next pipelined request.
  std::size_t next = 0;
  while (next < R) {
    const std::size_t win = std::min(B, R - next);
    std::vector<bool> has_recv(win);
    for (std::size_t i = 0; i < win; ++i, ++next) {
      has_recv[i] = next > 0;
      if (has_recv[i]) {
        ring_push(rc, sqe(slot_ud(i, 0), ring::RingOp::kRecv, connfd,
                          req_base + i * kFrameBytes, kFrameBytes, true));
      }
      ring::Sqe o = sqe(slot_ud(i, 1), ring::RingOp::kOpen, 0, path_off,
                        path.size() + 1, true);
      o.aux = static_cast<std::uint64_t>(fs::kORdOnly);
      ring_push(rc, o);
      ring_push(rc, sqe(slot_ud(i, 2), ring::RingOp::kRead, ring::kFdChain,
                        i * fb, fb, true));
      ring_push(rc, sqe(slot_ud(i, 3), ring::RingOp::kSend, connfd, i * fb,
                        fb, true));
      ring_push(rc, sqe(slot_ud(i, 4), ring::RingOp::kClose, ring::kFdChain,
                        0, 0, false));
    }
    cqes.clear();
    ring_round(rc, cqes);
    // Rescue pass: any chain whose send did not deliver the full
    // response is re-served classically (responses are identical, so
    // delivery order does not matter to the byte-counting client). If
    // the chain died before its recv consumed the request, consume it
    // first so the stream stays aligned.
    for (std::size_t i = 0; i < win; ++i) {
      if (cqe_res(cqes, slot_ud(i, 3), -1) == static_cast<SysRet>(fb)) {
        continue;
      }
      if (has_recv[i] && cqe_res(cqes, slot_ud(i, 0), -1) <= 0) {
        char tmp[kFrameBytes];
        (void)w.net.sys_recv(w.p, connfd, tmp, kFrameBytes);
      }
      serve_classic(w.srv, w.net, connfd, path.c_str());
    }
  }
  *prev_conn = connfd;
  return true;
}

void ring_worker(Worker& w, int lfd) {
  const std::size_t B = std::max<std::size_t>(1, w.cfg.ring_batch);
  // SQ sized for a full window (5 SQEs per chain) plus the prologue.
  const auto entries = static_cast<std::uint32_t>(B * 5 + 8);
  const auto arena = static_cast<std::uint32_t>(
      B * (w.cfg.file_bytes + kFrameBytes) + kFrameBytes);
  ring::RingDev& rdev = *w.cfg.ring;
  RingConn rc{w, rdev, nullptr,
              static_cast<int>(rdev.sys_ring_setup(w.p, entries, arena)), lfd};
  if (rc.ringfd < 0) {
    w.pool.ready.fetch_add(1, std::memory_order_release);
    return;
  }
  rc.rg = rdev.user_map(w.p, rc.ringfd).value();
  w.supervise(sup::Vehicle::kRing);
  if (w.sup != nullptr) rdev.supervise(w.p, rc.ringfd, *w.sup, w.ext_id);
  w.pool.ready.fetch_add(1, std::memory_order_release);

  int prev_conn = -1;
  while (!w.finished() && serve_ring_conn(rc, &prev_conn)) {
    if (prev_conn >= 0) ++w.conns;
  }
  if (prev_conn >= 0) w.srv.close(prev_conn);
  w.srv.close(rc.ringfd);
}

void worker_main(Pool& pool, std::size_t idx) {
  Worker w(pool, idx);
  const int lfd = static_cast<int>(pool.net.sys_socket(w.p));
  pool.net.sys_bind(w.p, lfd,
                    static_cast<std::uint16_t>(kBasePort + idx));
  pool.net.sys_listen(w.p, lfd, 128);
  if (pool.cfg.vehicle == Vehicle::kRing) {
    ring_worker(w, lfd);
  } else {
    epoll_worker(w, lfd);
  }
  w.cancel_immune([&] { return w.srv.close(lfd); });
  w.finish();
}

/// The cancellation storm: a seeded xorshift picks a live server task
/// every period and issues Scheduler::cancel against it -- exercising
/// every cancel unwind path (gateway, parks, mid-serve) at random
/// points. Paced on a fixed schedule, not a sleep per cancel: a sleep
/// that overshoots (timer slack, a loaded host) is made up on the next
/// rounds, so the storm issues one cancel per period of wall time.
void canceller(Pool& pool) {
  std::uint64_t x = 42;  // fixed seed: reruns pick the same victim order
  const std::chrono::microseconds period(pool.cfg.cancel_period_us);
  auto next = std::chrono::steady_clock::now();
  while (!pool.stop.load(std::memory_order_acquire)) {
    next += period;
    std::this_thread::sleep_until(next);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::lock_guard lk(pool.mu);
    if (pool.tasks.empty()) continue;
    pool.k.scheduler().cancel(*pool.tasks[x % pool.tasks.size()]);
    pool.cancels_issued.fetch_add(1, std::memory_order_relaxed);
  }
}

// --- the generator -----------------------------------------------------------

struct Exchange {
  std::size_t served = 0;  ///< responses received in full
  bool connected = false;
  bool any_byte = false;   ///< a connected exchange without one was shed
};

/// One client connection: `n` copies of `frame`, `depth` of them kept in
/// flight, each response read as one whole `doc_bytes` document. The
/// latency of each response -- from the connect, then from the previous
/// response -- is appended to `lat`.
Exchange exchange(uk::Proc& cli, net::Net& net, std::uint16_t port,
                  const char* frame, std::size_t n, std::size_t depth,
                  std::size_t doc_bytes, std::vector<std::uint64_t>& lat) {
  Exchange x;
  uk::Process& p = cli.process();
  Clock::time_point t = Clock::now();
  const int fd = static_cast<int>(net.sys_socket(p));
  if (fd < 0) return x;
  x.connected = net.sys_connect(p, fd, port) == 0;
  const auto send_frame = [&] {
    return net.sys_send(p, fd, frame, kFrameBytes) ==
           static_cast<SysRet>(kFrameBytes);
  };
  std::size_t sent = 0;
  bool alive = x.connected;
  for (; sent < std::min(depth, n) && alive; ++sent) alive = send_frame();
  std::byte buf[kChunk];
  for (std::size_t r = 0; r < n && alive; ++r) {
    std::size_t got = 0;
    while (got < doc_bytes) {
      const SysRet k =
          net.sys_recv(p, fd, buf, std::min(kChunk, doc_bytes - got));
      if (k <= 0) break;
      got += static_cast<std::size_t>(k);
    }
    x.any_byte = x.any_byte || got > 0;
    if (got != doc_bytes) break;
    ++x.served;
    lat.push_back(ns_since(t));
    t = Clock::now();
    if (sent < n) {
      alive = send_frame();
      ++sent;
    }
  }
  cli.close(fd);
  return x;
}

struct Clients {
  std::atomic<std::size_t> next{0};  ///< open arrivals: the schedule
  Clock::time_point t0;
  std::chrono::nanoseconds inter{0};
  std::vector<std::unique_ptr<dl::RetryBudget>> budgets;  ///< per tenant
  std::vector<sup::ExtId> tenant_ext;
  std::mutex mu;
  ServeReport total;                  ///< under mu
  std::vector<std::uint64_t> lat_ns;  ///< see ServeReport::p99_ns
  std::vector<std::uint64_t> svc_ns;  ///< the successful attempt alone

  /// A client thread exits: add its counts, samples and open fds.
  void merge(uk::Proc& cli, const ServeReport& mine,
             const std::vector<std::uint64_t>& lat,
             const std::vector<std::uint64_t>& svc) {
    std::lock_guard lk(mu);
    add_counts(total, mine);
    total.leaked_fds += cli.process().fds.open_count();
    lat_ns.insert(lat_ns.end(), lat.begin(), lat.end());
    svc_ns.insert(svc_ns.end(), svc.begin(), svc.end());
  }
};

/// Closed arrivals: client w drives worker w's port, one connection at a
/// time, waiting for every response.
void closed_client(uk::Kernel& k, net::Net& net, const ServeConfig& cfg,
                   std::size_t w, Clients& cs) {
  uk::Proc cli(k, "webcli" + std::to_string(w));
  const auto port = static_cast<std::uint16_t>(kBasePort + w);
  const std::size_t depth = cfg.vehicle == Vehicle::kRing
                                ? std::max<std::size_t>(1, cfg.ring_batch)
                                : 1;
  ServeReport mine;
  std::vector<std::uint64_t> lat;
  for (std::size_t c = 0; c < cfg.conns_per_worker; ++c) {
    char frame[kFrameBytes] = {};
    std::snprintf(frame, sizeof frame, "GET %s",
                  doc_path(w * 31 + c).c_str());
    const Exchange x = exchange(cli, net, port, frame, cfg.requests_per_conn,
                                depth, cfg.file_bytes, lat);
    if (!x.connected) break;
    mine.requests += x.served;
  }
  cs.merge(cli, mine, lat, {});
}

/// Open-loop executor: pulls arrival indices off the shared schedule and
/// fires each at its scheduled time whether or not earlier requests
/// finished (sleep_until in the past is a no-op, so a backlogged
/// executor runs flat out -- the load does not self-throttle under
/// overload).
void open_client(uk::Kernel& k, net::Net& net, const ServeConfig& cfg,
                 std::size_t w, Clients& cs) {
  uk::Proc cli(k, "webcli" + std::to_string(w));
  const std::uint64_t deadline_ns = cfg.deadline_ms * 1'000'000;
  ServeReport mine;
  std::vector<std::uint64_t> lat, svc;
  for (;;) {
    const std::size_t i = cs.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= cfg.requests) break;
    const auto arrival = cs.t0 + i * cs.inter;
    std::this_thread::sleep_until(arrival);
    const std::size_t tenant = i % kTenants;
    const auto port =
        static_cast<std::uint16_t>(kBasePort + i % cfg.workers);
    // Deadline propagation: the frame carries the ABSOLUTE deadline
    // (scheduled arrival + budget).
    char frame[kFrameBytes] = {};
    std::snprintf(frame, sizeof frame, "GET %s %lld %zu",
                  doc_path(i).c_str(),
                  static_cast<long long>(epoch_ns(
                      arrival + std::chrono::nanoseconds(deadline_ns))),
                  tenant);
    for (;;) {
      const Exchange x =
          exchange(cli, net, port, frame, 1, 1, cfg.file_bytes, svc);
      if (x.served == 1) {
        lat.push_back(ns_since(arrival));
        ++(lat.back() <= deadline_ns ? mine.ok_in_deadline : mine.ok_late);
        cs.budgets[tenant]->on_success();
        break;
      }
      ++(x.connected && !x.any_byte ? mine.shed : mine.failed);
      const dl::RetryBudget::Decision d = cs.budgets[tenant]->on_reject();
      // A retry is only worth the wire if budget will remain after the
      // backoff: once the end-to-end deadline is spent the request is
      // dead regardless of what the retry budget says.
      if (!d.retry || ns_since(arrival) + d.backoff_ns >= deadline_ns) {
        ++mine.dropped;
        if (!d.retry && cfg.supervisor != nullptr) {
          cfg.supervisor->record_violation(cs.tenant_ext[tenant],
                                           sup::ViolationKind::kRetryBudget,
                                           Errno::kETIMEDOUT);
        }
        break;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(d.backoff_ns));
    }
  }
  mine.requests = mine.ok_in_deadline + mine.ok_late;
  cs.merge(cli, mine, lat, svc);
}

}  // namespace

void populate_www(uk::Proc& p, const ServeConfig& cfg) {
  p.mkdir("/www");
  std::vector<std::byte> block(cfg.file_bytes, std::byte{0x42});
  for (std::size_t i = 0; i < kDocs; ++i) {
    int fd = p.open(doc_path(i).c_str(), fs::kOWrOnly | fs::kOCreat);
    if (fd < 0) continue;
    std::size_t written = 0;
    while (written < cfg.file_bytes) {
      SysRet n = p.write(fd, block.data() + written, cfg.file_bytes - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    p.close(fd);
  }
}

Server::Server(uk::Kernel& k, net::Net& net, const ServeConfig& cfg)
    : pool_(std::make_unique<Pool>(k, net, cfg)) {
  pool_->sockets_before = net.live_sockets();
  pool_->kmalloc_before =
      static_cast<std::int64_t>(k.kmalloc().stats().outstanding_bytes);
  threads_.reserve(cfg.workers + 1);
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    threads_.emplace_back(worker_main, std::ref(*pool_), w);
  }
  while (pool_->ready.load(std::memory_order_acquire) < cfg.workers) {
    std::this_thread::yield();
  }
  if (cfg.cancel_period_us > 0) {
    threads_.emplace_back(canceller, std::ref(*pool_));
  }
}

Server::~Server() {
  if (!threads_.empty()) (void)stop();
}

ServeReport Server::stop() {
  pool_->stop.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();

  ServeReport rep = pool_->total;
  rep.cancels_issued = pool_->cancels_issued.load();
  const std::size_t sockets = pool_->net.live_sockets();
  rep.leaked_sockets =
      sockets > pool_->sockets_before ? sockets - pool_->sockets_before : 0;
  rep.kmalloc_delta =
      static_cast<std::int64_t>(
          pool_->k.kmalloc().stats().outstanding_bytes) -
      pool_->kmalloc_before;
  return rep;
}

ServeReport run_serve(uk::Kernel& k, net::Net& net, const ServeConfig& cfg) {
  const bool open = cfg.requests > 0;
  Clients cs;
  if (open) {
    cs.inter = std::chrono::nanoseconds(
        cfg.offered_rps > 0
            ? static_cast<std::uint64_t>(1e9 / cfg.offered_rps)
            : 0);
    for (std::size_t t = 0; t < kTenants; ++t) {
      const std::string name = "tenant" + std::to_string(t);
      dl::RetryBudgetConfig rc;
      rc.seed += t;  // one deterministic jitter stream per tenant
      cs.budgets.push_back(std::make_unique<dl::RetryBudget>(name, rc));
      cs.tenant_ext.push_back(cfg.supervisor != nullptr
                                  ? cfg.supervisor->register_extension(
                                        name, sup::Vehicle::kMonitor)
                                  : -1);
    }
  }

  Server srv(k, net, cfg);
  cs.t0 = Clock::now();
  std::vector<std::thread> clients;
  const std::size_t n = open ? cfg.client_threads : cfg.workers;
  clients.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    clients.emplace_back(open ? open_client : closed_client, std::ref(k),
                         std::ref(net), std::cref(cfg), w, std::ref(cs));
  }
  for (std::thread& t : clients) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - cs.t0).count();

  ServeReport rep = srv.stop();
  add_counts(rep, cs.total);
  rep.offered = open ? cfg.requests
                     : cfg.workers * cfg.conns_per_worker *
                           cfg.requests_per_conn;
  rep.p99_ns = exact_percentile(cs.lat_ns, 99.0);
  rep.admitted_p99_ns = exact_percentile(cs.svc_ns, 99.0);
  rep.elapsed_s = elapsed;
  rep.req_per_sec =
      elapsed > 0 ? static_cast<double>(rep.requests) / elapsed : 0.0;
  return rep;
}

}  // namespace usk::workload
