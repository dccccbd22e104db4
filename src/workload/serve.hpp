// One static-content server and one load generator (paper §2.2).
//
// The paper motivates crossing elimination with server traces:
// "long-running daemons (e.g., Sendmail and Apache)" whose inner loop is
// accept-recv-open-read-send-close. This workload runs that loop for
// real over net::Net's loopback transport: cfg.workers server workers
// (one per virtual CPU, worker w listening on kBasePort + w) serve the
// kDocs documents /www/f0.. through one of four vehicles:
//  - kPlain:        classic syscalls per request
//                   (recv, stat, open, read*, send*, close).
//  - kConsolidated: accept_recv for the connection prologue and sendfile
//                   for every response (file bytes never cross).
//  - kCosy:         one compound per connection serves every request
//                   in a single crossing (plus accept + first recv).
//  - kRing:         batched submission rings (src/ring): the worker
//                   queues linked SQE chains (accept->recv prologue,
//                   recv->open->read->send->close per request) and one
//                   ring_enter drains a window of ring_batch chains.
//
// Request frame (kFrameBytes, null-padded):
//     "GET <path> [<abs_deadline_ns> <tenant>]"
// <abs_deadline_ns> is the ABSOLUTE deadline (steady-clock ns): the
// scheduled arrival plus the end-to-end budget. The server computes the
// residual at recv time, so schedule slip, retry backoff, transit AND
// the server's own ingress queue all tick against the budget -- the
// gRPC convention for deadline propagation, and the only encoding that
// stays truthful under overload (a residual-at-send-time would freeze
// while the request sat in the accept backlog, which is exactly where
// overloaded requests spend their budget). One ingress parses every
// frame; for a frame with a deadline, and kdl armed, it attaches a
// dl::DeadlineScope and consults the pool's one dl::Admission before
// serving (the ring vehicle parses frames but attaches nothing).
//
// Response: the raw document. A shed (or a malformed frame) is the
// server closing the connection before the first byte.
//
// The generator runs closed or open arrivals:
//  - closed (requests == 0): one client per worker opens conns_per_worker
//    connections of requests_per_conn requests each (1 = one-shot), and
//    waits for every response; the ring vehicle pipelines ring_batch
//    requests so a window of chains has requests to drain.
//  - open (requests > 0): arrivals follow a fixed schedule at
//    offered_rps whether or not earlier requests finished -- the schedule
//    a front-end fleet imposes on a backend. client_threads executors
//    fire one-shot connections, per-tenant dl::RetryBudgets retry shed
//    or failed attempts, and an optional canceller storms the server
//    tasks with Scheduler::cancel.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "uk/userlib.hpp"

namespace usk::sup {
class Supervisor;
}
namespace usk::ring {
class RingDev;
}

namespace usk::workload {

enum class Vehicle {
  kPlain,
  kConsolidated,
  kCosy,
  kRing,
};

[[nodiscard]] const char* vehicle_name(Vehicle v);

/// Fixed request frame size.
inline constexpr std::size_t kFrameBytes = 64;
/// Worker w listens on kBasePort + w; each run owns its net::Net.
inline constexpr std::uint16_t kBasePort = 8000;
/// Served documents: /www/f0 .. /www/f{kDocs-1}, cfg.file_bytes each.
inline constexpr std::size_t kDocs = 4;
/// Open arrivals: retry-budget domains.
inline constexpr std::size_t kTenants = 4;

struct ServeConfig {
  Vehicle vehicle = Vehicle::kPlain;
  std::size_t workers = 4;           ///< server workers == virtual CPUs
  std::size_t conns_per_worker = 8;  ///< closed: connections per client
  std::size_t requests_per_conn = 8; ///< closed: 1 = one-shot
  std::size_t file_bytes = 8192;     ///< served document size
  /// Optional extension supervisor. Each non-plain worker registers its
  /// serving path ("websrvN.<vehicle>") and every in-kernel invocation
  /// runs under the breaker: a quarantined worker degrades to classic
  /// serving and is re-admitted by backoff probes. Under open arrivals
  /// the tenants register too, and an exhausted retry budget records a
  /// kRetryBudget violation.
  sup::Supervisor* supervisor = nullptr;
  /// kRing only: the ring device (required) and the number of response
  /// chains per ring_enter window (also the client's pipelining depth).
  ring::RingDev* ring = nullptr;
  std::size_t ring_batch = 8;

  // Open arrivals; requests == 0 means closed arrivals. Ring workers
  // serve exactly conns_per_worker connections, so they take closed
  // arrivals only.
  // Arrival i belongs to tenant i % kTenants; admission and retry
  // budgets use the dl defaults.
  std::size_t requests = 0;         ///< scheduled arrivals (excl. retries)
  double offered_rps = 4000.0;      ///< total arrival rate
  std::size_t client_threads = 8;   ///< arrival executors
  std::uint64_t deadline_ms = 50;   ///< per-request end-to-end budget
  /// > 0: a canceller thread issues Scheduler::cancel against a server
  /// worker task every `cancel_period_us` (seeded task choice).
  std::uint64_t cancel_period_us = 0;
};

struct ServeReport {
  // Client side. `requests` counts responses received in full.
  std::uint64_t offered = 0;  ///< scheduled requests (excl. retries)
  std::uint64_t requests = 0;
  std::uint64_t ok_in_deadline = 0;  ///< goodput (open arrivals)
  std::uint64_t ok_late = 0;         ///< served past the deadline
  std::uint64_t shed = 0;            ///< attempts: EOF before the first byte
  std::uint64_t failed = 0;          ///< attempts: conn error, short payload
  std::uint64_t dropped = 0;         ///< requests abandoned unserved

  // p99 latency of served requests (exact). Closed arrivals: one request
  // (a one-shot one from its connect). Open arrivals: from the
  // *scheduled* arrival, so queueing behind a late executor and retry
  // backoffs count; `admitted_p99_ns` is the successful attempt alone.
  std::uint64_t p99_ns = 0;
  std::uint64_t admitted_p99_ns = 0;

  // Server side, summed over the worker Procs (clients excluded).
  std::uint64_t conns = 0;  ///< connections retired
  std::uint64_t server_crossings = 0;   ///< boundary crossings (syscalls)
  std::uint64_t server_user_bytes = 0;  ///< user<->kernel copy bytes
  std::uint64_t server_kernel_units = 0;
  std::uint64_t cancels_issued = 0;

  // Leak oracle, sampled after every worker and client exited: fds still
  // open in any worker or client table, live sockets beyond those before
  // the pool started, and the kmalloc outstanding-byte delta.
  std::uint64_t leaked_fds = 0;
  std::uint64_t leaked_sockets = 0;
  std::int64_t kmalloc_delta = 0;

  double elapsed_s = 0.0;
  double req_per_sec = 0.0;

  [[nodiscard]] double crossings_per_req() const {
    return requests ? static_cast<double>(server_crossings) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  [[nodiscard]] double user_bytes_per_req() const {
    return requests ? static_cast<double>(server_user_bytes) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

/// Create /www and the served documents. Call once per kernel before
/// serving (any Proc will do; the files are shared).
void populate_www(uk::Proc& p, const ServeConfig& cfg);

/// The server pool. Construction returns once every worker listens.
/// Under closed arrivals each worker exits after retiring
/// conns_per_worker connections; under open arrivals it serves until
/// stop(), then drains what is still queued.
class Server {
 public:
  Server(uk::Kernel& k, net::Net& net, const ServeConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Join the workers (and the canceller) and return the server-side
  /// half of the report, leak oracle included. Call once.
  ServeReport stop();

  struct Pool;

 private:
  std::unique_ptr<Pool> pool_;
  std::vector<std::thread> threads_;
};

/// Serve one run: a Server plus the generator. populate_www must have
/// been called. The caller owns kdl arming (dl::Kdl::instance()).
ServeReport run_serve(uk::Kernel& k, net::Net& net, const ServeConfig& cfg);

}  // namespace usk::workload
