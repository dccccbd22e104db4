#include "consolidation/servercalls.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::consolidation {

using uk::Kernel;
using uk::Process;

SysRet sys_accept_recv(net::Net& net, Kernel& k, Process& p, int listenfd,
                       void* ubuf, std::size_t n, int* uconnfd) {
  // Span before Scope: destruction order lets the Scope epilogue
  // attribute the kAcceptRecv crossing to this span before it publishes.
  trace::SpanScope span("net.accept_recv",
                        trace::SpanVehicle::kConsolidated);
  Kernel::Scope scope(k, p, uk::Sys::kAcceptRecv);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "accept_recv");
  if (ubuf == nullptr || uconnfd == nullptr) {
    return scope.fail(Errno::kEFAULT);
  }
  Result<std::shared_ptr<net::Socket>> ls = net.socket_of(p, listenfd);
  if (!ls) return scope.fail(ls.error());

  Result<int> connfd = net.accept_pop(p, *ls.value());
  if (!connfd) return scope.fail(connfd.error());

  std::shared_ptr<net::Socket> conn = net.find_socket(
      p.fds.get(connfd.value())->ino);
  // Capped at the queue's capacity and uninitialised, as in Net::do_recv:
  // only the bytes recv_into returns are ever copied out.
  n = std::min({n, Kernel::kMaxIo, conn->rx_.capacity()});
  auto kbuf = std::make_unique_for_overwrite<std::byte[]>(n);
  Result<std::size_t> r = net.recv_into(*conn, std::span(kbuf.get(), n));
  if (!r) {
    // The accept succeeded; hand the fd back even though the first read
    // failed (EAGAIN on a nonblocking empty connection is normal). A
    // faulted fd copy-out trumps the recv error -- the user can't learn
    // the fd, so EFAULT is what they must see.
    if (Result<std::size_t> c = k.boundary().copy_to_user(
            p.task, uconnfd, &connfd.value(), sizeof(int));
        !c) {
      return scope.fail(c.error());
    }
    return scope.fail(r.error());
  }
  if (Result<std::size_t> c = k.boundary().copy_to_user(
          p.task, uconnfd, &connfd.value(), sizeof(int));
      !c) {
    return scope.fail(c.error());
  }
  if (r.value() > 0) {
    if (Result<std::size_t> c =
            k.boundary().copy_to_user(p.task, ubuf, kbuf.get(), r.value());
        !c) {
      return scope.fail(c.error());
    }
  }
  return scope.done(static_cast<SysRet>(r.value()));
}

SysRet sys_sendfile(net::Net& net, Kernel& k, Process& p, int sockfd,
                    const char* upath, std::uint64_t offset,
                    std::size_t count) {
  trace::SpanScope span("net.sendfile", trace::SpanVehicle::kConsolidated);
  Kernel::Scope scope(k, p, uk::Sys::kSendfile);
  if (SysRet g = scope.gate(); g != 0) return g;
  USK_TRACE_LATENCY("net", "sendfile");
  // Descriptor first, path copy-in second: a bad fd must be reported
  // before any boundary copy work is charged (the uniform-EBADF rule;
  // contrast the pre-fix sys_write, which charged the copy on EBADF).
  Result<std::shared_ptr<net::Socket>> rs = net.socket_of(p, sockfd);
  if (!rs) return scope.fail(rs.error());
  if (upath == nullptr) return scope.fail(Errno::kEFAULT);
  char kpath[Kernel::kMaxPath];
  Result<std::size_t> plen =
      k.boundary().strncpy_from_user(p.task, kpath, upath, Kernel::kMaxPath);
  if (!plen) return scope.fail(plen.error());
  const std::size_t len = plen.value();

  Result<int> fd = k.vfs().open(
      p.fds, std::string_view(kpath, len),
      fs::kORdOnly, 0);
  if (!fd) return scope.fail(fd.error());

  // Pump file -> socket entirely kernel-side, one page-sized chunk at a
  // time. No copy_{from,to}_user: this is the zero-copy path the paper's
  // consolidated calls point toward.
  constexpr std::size_t kChunk = 4096;
  std::array<std::byte, kChunk> kbuf;  // uninitialised: read fills it
  std::uint64_t pos = offset;
  std::size_t total = 0;
  Errno err = Errno::kOk;
  while (total < count) {
    std::size_t want = std::min(kChunk, count - total);
    Result<std::uint64_t> sk = k.vfs().lseek(
        p.fds, fd.value(), static_cast<std::int64_t>(pos), fs::kSeekSet);
    if (!sk) {
      err = sk.error();
      break;
    }
    Result<std::size_t> rd =
        k.vfs().read(p.fds, fd.value(), std::span(kbuf.data(), want));
    if (!rd) {
      err = rd.error();
      break;
    }
    if (rd.value() == 0) break;  // EOF
    Result<std::size_t> sn =
        net.send_from(*rs.value(), std::span(kbuf.data(), rd.value()));
    if (!sn) {
      err = sn.error();
      break;
    }
    total += sn.value();
    pos += sn.value();
    if (sn.value() < rd.value()) break;  // nonblocking short send
  }
  k.vfs().close(p.fds, fd.value());
  if (total == 0 && err != Errno::kOk) return scope.fail(err);
  net.note_sendfile(total);
  return scope.done(static_cast<SysRet>(total));
}

}  // namespace usk::consolidation
