// Loopback transport + server socket syscalls (see net.hpp).

#include "net/net.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::net {

const char* sock_state_name(SockState s) {
  switch (s) {
    case SockState::kNew: return "new";
    case SockState::kBound: return "bound";
    case SockState::kListening: return "listening";
    case SockState::kConnected: return "connected";
    case SockState::kClosed: return "closed";
  }
  return "?";
}

namespace {
/// Sentinel fs_id for descriptors owned by SocketFs: sockets never take
/// part in path-walk or mount bookkeeping, which is all fs_id is for.
constexpr std::uint32_t kSockFsId = 0xFFFFFFFFu;
}  // namespace

Net::Net(uk::Kernel& k) : k_(k), sockfs_(*this) {}

void Net::charge(std::uint64_t units) {
  k_.engine().alu(units);
  if (sched::Task* t = k_.scheduler().current()) t->charge_kernel(units);
}

void Net::note_sendfile(std::uint64_t bytes) {
  stats_.local().sendfile_bytes += bytes;
}

NetStats Net::stats() const {
  NetStats out;
  stats_.for_each([&](const CpuNetStats& c) {
    out.sockets_created += c.sockets_created.get();
    out.conns_accepted += c.conns_accepted.get();
    out.conns_refused += c.conns_refused.get();
    out.bytes_sent += c.bytes_sent.get();
    out.packets_sent += c.packets_sent.get();
    out.sendfile_bytes += c.sendfile_bytes.get();
  });
  return out;
}

template <typename Pred>
Errno Net::block_on(std::unique_lock<std::mutex>& lk, sched::WaitQueue& wq,
                    Pred&& pred) {
  for (;;) {
    // Token before predicate, both under lk: every waker mutates the
    // predicate's state under lk before waking, so a wake posted after
    // this snapshot means the predicate may have changed and the park
    // returns immediately. No readiness re-poll interval exists.
    sched::WaitQueue::Token tok = wq.prepare();
    if (pred()) return Errno::kOk;
    // kdl: the request's deadline bounds the park. Expiry checked here
    // too, so an already-late request fails fast instead of sleeping out
    // its full deadline first. Errno contract (shared with every other
    // blocking vehicle): expiry -> ETIMEDOUT, cancel -> ECANCELED,
    // kill -> EINTR.
    dl::Clock::time_point storage;
    bool dl_bound = false;
    const dl::Clock::time_point* deadline =
        dl::effective_deadline(nullptr, &storage, &dl_bound);
    if (dl_bound && storage <= dl::Clock::now()) return Errno::kETIMEDOUT;
    if (dl::spurious_wake()) continue;  // kfail: re-check, never sleep late
    lk.unlock();
    // Park = schedule out: the watchdog runs here, so a task blocked on a
    // socket that will never become ready is killed by the same kernel
    // budget policy as any runaway in-kernel loop (paper §3: user code in
    // the kernel must stay preemptible and killable even when it waits).
    sched::WaitQueue::Wait w = k_.scheduler().block(wq, tok, deadline);
    lk.lock();
    if (w == sched::WaitQueue::Wait::kKilled) return Errno::kEINTR;
    if (w == sched::WaitQueue::Wait::kCanceled) {
      dl::Kdl::instance().stats().park_canceled.fetch_add(
          1, std::memory_order_relaxed);
      return Errno::kECANCELED;
    }
    if (w == sched::WaitQueue::Wait::kTimeout) {
      dl::Kdl::instance().stats().park_expired.fetch_add(
          1, std::memory_order_relaxed);
      return Errno::kETIMEDOUT;
    }
  }
}

std::shared_ptr<Socket> Net::make_socket(bool nonblock) {
  const fs::InodeNum ino = new_ino();
  auto s = std::make_shared<Socket>(ino, nonblock);
  {
    TableShard& sh = shard_of(ino);
    std::lock_guard lk(sh.mu);
    sh.sockets[ino] = s;
  }
  ++stats_.local().sockets_created;
  return s;
}

std::shared_ptr<Socket> Net::find_socket(fs::InodeNum ino) {
  TableShard& sh = shard_of(ino);
  std::lock_guard lk(sh.mu);
  auto it = sh.sockets.find(ino);
  return it == sh.sockets.end() ? nullptr : it->second;
}

std::shared_ptr<Epoll> Net::find_epoll(fs::InodeNum ino) {
  TableShard& sh = shard_of(ino);
  std::lock_guard lk(sh.mu);
  auto it = sh.epolls.find(ino);
  return it == sh.epolls.end() ? nullptr : it->second;
}

std::size_t Net::live_sockets() const {
  std::size_t n = 0;
  for (const TableShard& sh : table_) {
    std::lock_guard lk(sh.mu);
    n += sh.sockets.size();
  }
  return n;
}

std::vector<std::shared_ptr<Socket>> Net::socket_snapshot() const {
  std::vector<std::shared_ptr<Socket>> snap;
  for (const TableShard& sh : table_) {
    std::lock_guard lk(sh.mu);
    for (const auto& [ino, s] : sh.sockets) snap.push_back(s);
  }
  std::sort(snap.begin(), snap.end(),
            [](const std::shared_ptr<Socket>& a,
               const std::shared_ptr<Socket>& b) { return a->id() < b->id(); });
  return snap;
}

Result<std::shared_ptr<Socket>> Net::socket_of(uk::Process& p, int fd) {
  fs::OpenFile* f = p.fds.get(fd);
  if (f == nullptr) return Errno::kEBADF;
  if (f->fsp != &sockfs_) return Errno::kENOTSOCK;
  std::shared_ptr<Socket> s = find_socket(f->ino);
  if (s == nullptr) return Errno::kENOTSOCK;  // an epoll fd, or stale
  return s;
}

Result<int> Net::install_fd(uk::Process& p, const std::shared_ptr<Socket>& s) {
  fs::OpenFile f;
  f.ino = s->id();
  f.flags = fs::kORdWr;
  f.fsp = &sockfs_;
  f.fs_id = kSockFsId;
  return p.fds.install(f);
}

void Net::notify_watchers_locked(Socket& s) {
  for (auto& [wep, userfd] : s.watchers_) {
    if (std::shared_ptr<Epoll> ep = wep.lock()) ep->signal();
  }
}

// --- socket / bind / listen ------------------------------------------------

SysRet Net::sys_socket(uk::Process& p, int flags) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kSocket);
  if (SysRet g = scope.gate(); g != 0) return g;
  std::shared_ptr<Socket> s = make_socket((flags & kSockNonblock) != 0);
  Result<int> fd = install_fd(p, s);
  if (!fd) {
    drop_socket(s);
    return scope.fail(fd.error());
  }
  return scope.done(fd.value());
}

SysRet Net::sys_bind(uk::Process& p, int fd, std::uint16_t port) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kBind);
  if (SysRet g = scope.gate(); g != 0) return g;
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return scope.fail(rs.error());
  Socket& s = *rs.value();
  if (port == 0) return scope.fail(Errno::kEINVAL);
  std::lock_guard tlk(tab_mu_);
  std::lock_guard slk(s.mu_);
  if (s.state_ != SockState::kNew) return scope.fail(Errno::kEINVAL);
  auto it = ports_.find(port);
  if (it != ports_.end() && !it->second.expired()) {
    return scope.fail(Errno::kEADDRINUSE);
  }
  ports_[port] = rs.value();
  s.port_ = port;
  s.state_ = SockState::kBound;
  return scope.done(0);
}

SysRet Net::sys_listen(uk::Process& p, int fd, int backlog) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kListen);
  if (SysRet g = scope.gate(); g != 0) return g;
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return scope.fail(rs.error());
  Socket& s = *rs.value();
  std::lock_guard slk(s.mu_);
  if (s.state_ != SockState::kBound) return scope.fail(Errno::kEINVAL);
  s.backlog_ = std::clamp(backlog, 1, kBacklogMax);
  s.state_ = SockState::kListening;
  return scope.done(0);
}

// --- connect ---------------------------------------------------------------

SysRet Net::sys_connect(uk::Process& p, int fd, std::uint16_t port) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kConnect);
  if (SysRet g = scope.gate(); g != 0) return g;
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return scope.fail(rs.error());
  std::shared_ptr<Socket> cli = rs.value();
  {
    std::lock_guard clk(cli->mu_);
    if (cli->state_ == SockState::kConnected) {
      return scope.fail(Errno::kEISCONN);
    }
    if (cli->state_ != SockState::kNew) return scope.fail(Errno::kEINVAL);
  }

  std::shared_ptr<Socket> lsn;
  {
    std::lock_guard tlk(tab_mu_);
    auto it = ports_.find(port);
    if (it != ports_.end()) lsn = it->second.lock();
  }
  bool refused = lsn == nullptr;
  if (!refused) {
    std::lock_guard llk(lsn->mu_);
    refused = lsn->state_ != SockState::kListening;
  }
  if (refused) {
    ++stats_.local().conns_refused;
    return scope.fail(Errno::kECONNREFUSED);
  }

  // Build the server-side half. Not yet published, so no lock needed.
  std::shared_ptr<Socket> srv = make_socket(false);
  srv->state_ = SockState::kConnected;
  srv->port_ = port;
  srv->peer_ = cli;
  srv->nonblock_ = lsn->nonblock_;  // accepted conns inherit the listener's

  charge(kConnectSetup);

  // Queue it on the listener; a full backlog blocks (or EAGAIN).
  {
    std::unique_lock llk(lsn->mu_);
    bool cli_nonblock = false;
    {
      std::lock_guard clk(cli->mu_);  // never held with llk? -- see below
      cli_nonblock = cli->nonblock_;
    }
    // NOTE: the nested lock above violates the one-socket-lock rule on
    // paper, but cli is unpublished to any other thread's send/recv path
    // at this point (not connected) and listener code never locks a
    // client, so no cycle is possible. Kept for clarity over caching.
    while (lsn->accept_q_.size() >=
           static_cast<std::size_t>(lsn->backlog_)) {
      if (cli_nonblock) {
        drop_socket(srv);
        return scope.fail(Errno::kEAGAIN);
      }
      Errno be = block_on(llk, lsn->wq_, [&] {
        return lsn->state_ != SockState::kListening ||
               lsn->accept_q_.size() <
                   static_cast<std::size_t>(lsn->backlog_);
      });
      if (be != Errno::kOk) {
        drop_socket(srv);
        return scope.fail(be);
      }
      if (lsn->state_ != SockState::kListening) {
        drop_socket(srv);
        return scope.fail(Errno::kECONNREFUSED);
      }
    }
    lsn->accept_q_.push_back(srv);
    notify_watchers_locked(*lsn);
    lsn->wq_.wake_all();
  }

  {
    std::lock_guard clk(cli->mu_);
    cli->state_ = SockState::kConnected;
    cli->peer_ = srv;
    cli->peer_port_ = port;
  }
  return scope.done(0);
}

// --- accept ----------------------------------------------------------------

Result<int> Net::accept_pop(uk::Process& p, Socket& ls) {
  if (auto f = USK_FAIL_POINT(fault::Site::kNetAccept); f.fail) return f.err;
  std::shared_ptr<Socket> conn;
  {
    std::unique_lock llk(ls.mu_);
    if (ls.state_ != SockState::kListening) return Errno::kEINVAL;
    if (ls.accept_q_.empty()) {
      if (ls.nonblock_) return Errno::kEAGAIN;
      Errno be = block_on(llk, ls.wq_, [&] {
        return !ls.accept_q_.empty() ||
               ls.state_ != SockState::kListening;
      });
      if (be != Errno::kOk) return be;
      if (ls.accept_q_.empty()) return Errno::kEINVAL;  // listener closed
    }
    conn = ls.accept_q_.front();
    ls.accept_q_.pop_front();
    ls.wq_.wake_all();  // a connect parked on a full backlog
  }
  charge(kAcceptSetup);
  Result<int> fd = install_fd(p, conn);
  if (!fd) {
    drop_socket(conn);
    return fd.error();
  }
  ++stats_.local().conns_accepted;
  return fd;
}

SysRet Net::do_accept(uk::Process& p, int fd) {
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  Result<int> r = accept_pop(p, *rs.value());
  if (!r) return sysret_err(r.error());
  return r.value();
}

SysRet Net::sys_accept(uk::Process& p, int fd) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kAccept);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "accept");
  USK_TRACEPOINT("net", "accept", static_cast<std::uint64_t>(fd));
  SysRet r = do_accept(p, fd);
  if (r >= 0) {
    // Request ingress: stamp the event stream with the enclosing span,
    // so a drained trace can join point events to the span tree.
    USK_TRACEPOINT("span", "ingress", trace::SpanScope::current_id(),
                   static_cast<std::uint64_t>(r));
  }
  return scope.done(r);
}

// --- send / recv -----------------------------------------------------------

Result<std::size_t> Net::send_from(Socket& s,
                                   std::span<const std::byte> in) {
  if (auto f = USK_FAIL_POINT(fault::Site::kNetSend); f.fail || f.transient) {
    if (f.fail) return f.err;
    charge(kPerPacket);  // transient: one retransmit's worth of work
  }
  std::shared_ptr<Socket> peer;
  bool nonblock = false;
  {
    std::lock_guard slk(s.mu_);
    if (s.state_ != SockState::kConnected) return Errno::kENOTCONN;
    if (s.tx_shutdown_) return Errno::kEPIPE;
    peer = s.peer_.lock();
    nonblock = s.nonblock_;
  }
  if (peer == nullptr) return Errno::kECONNRESET;

  std::size_t sent = 0;
  while (sent < in.size()) {
    std::size_t pushed = 0;
    {
      std::unique_lock plk(peer->mu_);
      if (peer->state_ == SockState::kClosed || peer->rd_shutdown_) {
        if (sent > 0) break;
        return Errno::kECONNRESET;
      }
      if (peer->rx_.free_space() == 0) {
        if (nonblock) {
          if (sent > 0) break;
          return Errno::kEAGAIN;
        }
        Errno be = block_on(plk, peer->wq_, [&] {
          return peer->rx_.free_space() > 0 ||
                 peer->state_ == SockState::kClosed || peer->rd_shutdown_;
        });
        if (be != Errno::kOk) return be;
        continue;  // re-check closed/space with the lock held
      }
      pushed = peer->rx_.push(in.subspan(sent));
      peer->bytes_rx_ += pushed;
      peer->pkts_rx_ += (pushed + kMtu - 1) / kMtu;
      notify_watchers_locked(*peer);  // socket -> epoll lock order
      peer->wq_.wake_all();
    }
    // The modelled wire: per-packet protocol work + per-KiB data work.
    std::uint64_t pkts = (pushed + kMtu - 1) / kMtu;
    charge(pkts * kPerPacket + ((pushed + 1023) / 1024) * kPerKib);
    {
      std::lock_guard slk(s.mu_);
      s.bytes_tx_ += pushed;
      s.pkts_tx_ += pkts;
    }
    CpuNetStats& st = stats_.local();
    st.bytes_sent += pushed;
    st.packets_sent += pkts;
    sent += pushed;
  }
  return sent;
}

Result<std::size_t> Net::recv_into(Socket& s, std::span<std::byte> out) {
  if (out.empty()) return std::size_t{0};
  if (auto f = USK_FAIL_POINT(fault::Site::kNetRecv); f.fail || f.transient) {
    if (f.fail) return f.err;
    charge(kPerPacket);  // transient: a dropped+retransmitted packet
  }
  std::unique_lock slk(s.mu_);
  for (;;) {
    if (s.rd_shutdown_) return std::size_t{0};
    if (s.rx_.size() > 0) {
      std::size_t n = s.rx_.pop(out);
      s.wq_.wake_all();  // a sender parked on a full queue
      slk.unlock();
      charge(((n + 1023) / 1024) * kPerKib);
      return n;
    }
    if (s.rx_eof_ || s.state_ == SockState::kClosed ||
        (s.state_ == SockState::kConnected && s.peer_.expired())) {
      return std::size_t{0};
    }
    if (s.state_ != SockState::kConnected) return Errno::kENOTCONN;
    if (s.nonblock_) return Errno::kEAGAIN;
    Errno be = block_on(slk, s.wq_, [&] {
      return s.rx_.size() > 0 || s.rx_eof_ || s.rd_shutdown_ ||
             s.state_ != SockState::kConnected || s.peer_.expired();
    });
    if (be != Errno::kOk) return be;
  }
}

SysRet Net::do_send(uk::Process& p, int fd, const void* ubuf,
                    std::size_t n) {
  // Validate the descriptor before even looking at the user pointer (the
  // uniform EBADF discipline: send(-1, NULL, n) is EBADF, not EFAULT,
  // and no boundary work is charged on a bad fd).
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  if (ubuf == nullptr) return sysret_err(Errno::kEFAULT);
  n = std::min(n, uk::Kernel::kMaxIo);
  // Uninitialised: copy_from_user overwrites all n bytes before any read.
  auto kbuf = std::make_unique_for_overwrite<std::byte[]>(n);
  if (Result<std::size_t> c =
          k_.boundary().copy_from_user(p.task, kbuf.get(), ubuf, n);
      !c) {
    return sysret_err(c.error());
  }
  Result<std::size_t> r = send_from(*rs.value(), std::span(kbuf.get(), n));
  if (!r) return sysret_err(r.error());
  return static_cast<SysRet>(r.value());
}

SysRet Net::sys_send(uk::Process& p, int fd, const void* ubuf,
                         std::size_t n) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kSend);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "send");
  USK_TRACEPOINT("net", "send", static_cast<std::uint64_t>(fd), n);
  return scope.done(do_send(p, fd, ubuf, n));
}

SysRet Net::do_recv(uk::Process& p, int fd, void* ubuf, std::size_t n) {
  // fd first, user pointer second: recv(-1, NULL, n) is EBADF, not
  // EFAULT (same discipline as do_send).
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  if (ubuf == nullptr) return sysret_err(Errno::kEFAULT);
  Socket& s = *rs.value();
  // recv_into never returns more than the queue holds, so the staging
  // buffer is capped at its capacity and left uninitialised: only the
  // r.value() bytes recv_into wrote reach copy_to_user.
  n = std::min({n, uk::Kernel::kMaxIo, s.rx_.capacity()});
  auto kbuf = std::make_unique_for_overwrite<std::byte[]>(n);
  Result<std::size_t> r = recv_into(s, std::span(kbuf.get(), n));
  if (!r) return sysret_err(r.error());
  if (r.value() > 0) {
    // The bytes were already drained from the socket; a faulted copy-out
    // loses them, exactly like a real recv whose user page vanished.
    if (Result<std::size_t> c =
            k_.boundary().copy_to_user(p.task, ubuf, kbuf.get(), r.value());
        !c) {
      return sysret_err(c.error());
    }
  }
  return static_cast<SysRet>(r.value());
}

SysRet Net::sys_recv(uk::Process& p, int fd, void* ubuf, std::size_t n) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kRecv);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "recv");
  USK_TRACEPOINT("net", "recv", static_cast<std::uint64_t>(fd), n);
  return scope.done(do_recv(p, fd, ubuf, n));
}

// --- shutdown / close ------------------------------------------------------

SysRet Net::do_shutdown(uk::Process& p, int fd, int how) {
  Result<std::shared_ptr<Socket>> rs = socket_of(p, fd);
  if (!rs) return sysret_err(rs.error());
  if (how != kShutRd && how != kShutWr && how != kShutRdWr) {
    return sysret_err(Errno::kEINVAL);
  }
  Socket& s = *rs.value();
  std::shared_ptr<Socket> peer;
  {
    std::lock_guard slk(s.mu_);
    if (s.state_ != SockState::kConnected) return sysret_err(Errno::kENOTCONN);
    if (how == kShutRd || how == kShutRdWr) s.rd_shutdown_ = true;
    if (how == kShutWr || how == kShutRdWr) {
      s.tx_shutdown_ = true;
      peer = s.peer_.lock();
    }
    notify_watchers_locked(s);
    s.wq_.wake_all();
  }
  if (peer != nullptr) {
    std::lock_guard plk(peer->mu_);
    peer->rx_eof_ = true;  // our FIN: peer's recv drains then returns 0
    notify_watchers_locked(*peer);
    peer->wq_.wake_all();
  }
  return 0;
}

SysRet Net::sys_shutdown(uk::Process& p, int fd, int how) {
  uk::Kernel::Scope scope(k_, p, uk::Sys::kShutdown);
  if (SysRet g = scope.gate(); g != 0) return g;
  return scope.done(do_shutdown(p, fd, how));
}

void Net::drop_socket(const std::shared_ptr<Socket>& s) {
  std::shared_ptr<Socket> peer;
  std::deque<std::shared_ptr<Socket>> orphans;
  bool owns_port = false;
  std::uint16_t port = 0;
  {
    std::lock_guard slk(s->mu_);
    if (s->state_ == SockState::kClosed) return;
    // Only bind() claims a port, and a bound socket stays bound or
    // listening until it closes; an accepted half merely copies the
    // listener's port number.
    owns_port = s->state_ == SockState::kBound ||
                s->state_ == SockState::kListening;
    port = s->port_;
    peer = s->peer_.lock();
    orphans.swap(s->accept_q_);
    s->state_ = SockState::kClosed;
    s->rx_eof_ = true;
    notify_watchers_locked(*s);
    s->wq_.wake_all();
  }
  {
    TableShard& sh = shard_of(s->id());
    std::lock_guard lk(sh.mu);
    sh.sockets.erase(s->id());
  }
  if (owns_port) {
    std::lock_guard tlk(tab_mu_);
    auto it = ports_.find(port);
    if (it != ports_.end() && it->second.lock() == s) ports_.erase(it);
  }
  if (peer != nullptr) {
    std::lock_guard plk(peer->mu_);
    peer->rx_eof_ = true;
    notify_watchers_locked(*peer);
    peer->wq_.wake_all();
  }
  // Connections queued on a closing listener never reach accept: reset
  // both halves so their clients see EOF/ECONNRESET rather than hanging.
  for (const std::shared_ptr<Socket>& conn : orphans) drop_socket(conn);
}

void Net::drop_epoll(const std::shared_ptr<Epoll>& ep) {
  TableShard& sh = shard_of(ep->id());
  std::lock_guard lk(sh.mu);
  sh.epolls.erase(ep->id());
}

void Net::fd_released(fs::InodeNum ino) {
  if (std::shared_ptr<Socket> s = find_socket(ino)) {
    if (s->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drop_socket(s);
    }
    return;
  }
  if (std::shared_ptr<Epoll> ep = find_epoll(ino)) {
    if (ep->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      drop_epoll(ep);
    }
  }
}

void Net::fd_duped(fs::InodeNum ino) {
  if (std::shared_ptr<Socket> s = find_socket(ino)) {
    s->refs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (std::shared_ptr<Epoll> ep = find_epoll(ino)) {
    ep->refs_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace usk::net
