// Socket objects for the in-kernel loopback network stack.
//
// A Socket is the net analogue of an inode: a kernel object with a
// bounded receive queue, addressed by an InodeNum so it can sit behind
// the fd table like any file (net::SocketFs adapts it to fs::FileSystem,
// which is what makes read/write/close and Cosy compounds work on
// connections unchanged). The loopback "wire" is modelled the way
// blockdev models the disk: moving bytes costs per-packet and per-KiB
// work units charged to the sending/receiving task, so crossings and
// copies measured by benchmarks are backed by real CPU time.
//
// Locking: each Socket has one mutex. The documented lock order is
// socket -> epoll (a socket holding its own lock may signal an epoll
// instance; epoll code never touches a socket while holding the epoll
// lock). Send locks only the *peer* socket when pushing into its queue;
// no path ever holds two socket locks at once. The socket's WaitQueue
// mutex is a leaf below all of these (see sched/waitqueue.hpp): wakers
// call wq_.wake_all() with mu_ held, sleepers take their token under mu_
// and park after dropping it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fs/types.hpp"
#include "sched/waitqueue.hpp"

namespace usk::net {

class Epoll;

/// Loopback costs in work units, approximating 2005-era loopback TCP
/// relative to the ~450-unit syscall crossing.
inline constexpr std::size_t kMtu = 1448;  ///< payload bytes per packet
inline constexpr std::uint64_t kPerPacket = 300;  ///< device + protocol work
inline constexpr std::uint64_t kPerKib = 120;  ///< checksum/segmentation
inline constexpr std::uint64_t kConnectSetup = 1200;  ///< client handshake
inline constexpr std::uint64_t kAcceptSetup = 700;    ///< server handshake
inline constexpr std::uint64_t kPollOp = 40;  ///< readiness check per entry
inline constexpr std::size_t kRxCapacity = 1 << 16;  ///< rx queue bytes
inline constexpr int kBacklogMax = 128;  ///< listen() backlog ceiling

/// Bounded byte ring: the per-connection receive queue.
///
/// push and pop move their whole span with at most two memcpy calls, one
/// up to the wrap point and one from the start of the buffer, so the
/// wrap is computed once per call, not once per byte. The storage is
/// left uninitialised: a byte is only ever read after push wrote it.
/// When a pop drains the queue, head_ returns to 0, so a
/// request/response connection keeps reusing the same (cache-warm)
/// bytes at the front of the buffer instead of walking the whole ring.
class ByteQueue {
 public:
  explicit ByteQueue(std::size_t capacity)
      : buf_(std::make_unique_for_overwrite<std::byte[]>(capacity)),
        cap_(capacity) {}

  /// Append as much of `in` as fits; returns bytes accepted.
  std::size_t push(std::span<const std::byte> in) {
    const std::size_t n = std::min(in.size(), cap_ - size_);
    if (n == 0) return 0;
    std::size_t tail = head_ + size_;
    if (tail >= cap_) tail -= cap_;
    const std::size_t first = std::min(n, cap_ - tail);
    std::memcpy(buf_.get() + tail, in.data(), first);
    if (n > first) std::memcpy(buf_.get(), in.data() + first, n - first);
    size_ += n;
    return n;
  }

  /// Remove up to out.size() bytes; returns bytes delivered.
  std::size_t pop(std::span<std::byte> out) {
    const std::size_t n = std::min(out.size(), size_);
    if (n == 0) return 0;
    const std::size_t first = std::min(n, cap_ - head_);
    std::memcpy(out.data(), buf_.get() + head_, first);
    if (n > first) std::memcpy(out.data() + first, buf_.get(), n - first);
    size_ -= n;
    if (size_ == 0) {
      head_ = 0;  // drained: the next push starts at the warm front
    } else {
      head_ += n;
      if (head_ >= cap_) head_ -= cap_;
    }
    return n;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t free_space() const { return cap_ - size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

enum class SockState : std::uint8_t {
  kNew,        ///< socket() done, no address yet
  kBound,      ///< bind() done
  kListening,  ///< listen() done, accepting connections
  kConnected,  ///< data socket (either side of a connection)
  kClosed,     ///< last fd released
};

const char* sock_state_name(SockState s);

/// Readiness bits (epoll event mask; also the wire format in EpollEvent).
inline constexpr std::uint32_t kEpollIn = 0x1;
inline constexpr std::uint32_t kEpollOut = 0x4;
inline constexpr std::uint32_t kEpollHup = 0x10;

class Socket {
 public:
  Socket(fs::InodeNum id, bool nonblock) : id_(id), rx_(kRxCapacity) {
    nonblock_ = nonblock;
  }

  [[nodiscard]] fs::InodeNum id() const { return id_; }

 private:
  const fs::InodeNum id_;

 public:

  // All fields below are guarded by mu_ unless noted. The struct-like
  // exposure keeps Net (the protocol implementation, net.cpp) as the one
  // place with socket logic, mirroring how struct sock is manipulated by
  // the protocol code rather than through accessors.
  std::mutex mu_;
  /// Parked accept/connect/send/recv waiters. Wake with mu_ held, after
  /// mutating whatever condition the sleeper re-checks under mu_.
  sched::WaitQueue wq_;

  SockState state_ = SockState::kNew;
  std::uint16_t port_ = 0;     ///< bound/listening port (0 = unbound)
  std::uint16_t peer_port_ = 0;
  bool nonblock_ = false;      ///< set at socket(); inherited by accept
  bool rd_shutdown_ = false;   ///< SHUT_RD: recv returns 0
  bool tx_shutdown_ = false;   ///< SHUT_WR: send returns EPIPE
  bool rx_eof_ = false;        ///< peer shut down / closed its write side

  ByteQueue rx_;
  std::weak_ptr<Socket> peer_;

  // Listener state.
  std::deque<std::shared_ptr<Socket>> accept_q_;
  int backlog_ = 0;

  // Epoll instances watching this socket: (epoll, userfd registered under).
  std::vector<std::pair<std::weak_ptr<Epoll>, int>> watchers_;

  // Byte/packet counters (guarded by mu_; snapshotted for /proc/net).
  std::uint64_t bytes_rx_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t pkts_rx_ = 0;
  std::uint64_t pkts_tx_ = 0;

  /// fd references (dup/close bookkeeping via SocketFs hooks). Atomic so
  /// SocketFs can adjust it without the socket lock.
  std::atomic<int> refs_{1};

  /// Current readiness mask. Caller holds mu_.
  [[nodiscard]] std::uint32_t readiness_locked() const {
    std::uint32_t ev = 0;
    if (state_ == SockState::kListening) {
      if (!accept_q_.empty()) ev |= kEpollIn;
      return ev;
    }
    if (rx_.size() > 0 || rx_eof_ || rd_shutdown_) ev |= kEpollIn;
    if (state_ == SockState::kConnected && !tx_shutdown_) {
      std::shared_ptr<Socket> peer = peer_.lock();
      // kEpollOut is a hint: precise free space needs the peer lock, which
      // we must not take here (one-socket-lock rule). Peer liveness is
      // enough for level-triggered wakeups; send re-checks space itself.
      if (peer != nullptr) ev |= kEpollOut;
    }
    if (state_ == SockState::kClosed ||
        (state_ == SockState::kConnected && peer_.expired())) {
      ev |= kEpollHup;
    }
    return ev;
  }
};

}  // namespace usk::net
