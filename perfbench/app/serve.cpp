// serve_classic / serve_inkernel: a static-content server and its
// clients, both driven by this file through the kernel's public entry
// points, over a seeded document set.
//
// A stream is one host thread that plays the client and the server of
// its connections in turn. Every socket is nonblocking and every batch
// fits the receive queues (8 x the largest document < 64 KiB), so a
// stream never parks waiting on itself.
//
// serve_classic serves each request the plain way (recv, stat, open,
// read, send, close) and the client waits for each response before it
// sends the next request. serve_inkernel pipelines all 8 requests of a
// connection and rotates connections among the three in-kernel vehicles:
// consolidated (accept_recv + sendfile), one Cosy compound per
// connection, and kring (one ring_enter for accept->recv, one for the
// 8-chain response window).
#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "consolidation/newcalls.hpp"
#include "consolidation/servercalls.hpp"
#include "cosy/exec.hpp"
#include "fs/memfs.hpp"
#include "net/net.hpp"
#include "ring/ring.hpp"
#include "uk/userlib.hpp"

namespace pb {
using namespace usk;
namespace {

constexpr std::size_t kDocs = 512;
constexpr std::size_t kDirs = 16;
constexpr double kMinDoc = 256;
constexpr double kMaxDoc = 6144;
constexpr double kZipfS = 0.9;
constexpr std::size_t kReqPerConn = 8;
constexpr std::size_t kReqBytes = 64;  ///< "GET <path>", NUL-padded
constexpr std::size_t kSlot = 8192;    ///< per-response buffer, >= kMaxDoc
constexpr std::size_t kChunk = 4096;   ///< classic server read/send chunk
constexpr std::size_t kConnsPerRound = 96;  ///< a multiple of 3 vehicles
constexpr std::size_t kStreams = 2;
constexpr std::uint16_t kBasePort = 8000;

// Ring arena: response slots, the received requests, the open paths.
constexpr std::size_t kArenaReq = kReqPerConn * kSlot;
constexpr std::size_t kArenaPath = kArenaReq + kReqPerConn * kReqBytes;
constexpr std::size_t kArenaBytes = kArenaPath + kReqPerConn * kReqBytes;
constexpr std::uint64_t kUdAccept = 1000;
constexpr std::uint64_t kUdRecv = 1001;
constexpr std::uint64_t kUdClose = 1002;

enum class Vehicle : std::uint8_t { kClassic, kConsolidated, kCosy, kRing };

struct Doc {
  std::string path;
  std::vector<std::byte> bytes;
};

struct ConnPlan {
  Vehicle v = Vehicle::kClassic;
  std::array<std::uint16_t, kReqPerConn> doc{};
};

std::string parse_path(const char* req) {
  std::string s(req, strnlen(req, kReqBytes));
  std::size_t sp = s.find(' ');
  return sp == std::string::npos ? std::string() : s.substr(sp + 1);
}

void put_request(char* dst, const std::string& path) {
  std::memset(dst, 0, kReqBytes);
  std::snprintf(dst, kReqBytes, "GET %s", path.c_str());
}

/// One client/server pair on its own port, driven by one host thread.
struct Stream {
  Stream(uk::Kernel& k, std::size_t n)
      : id(n), srv(k, "srv" + std::to_string(n)),
        cli(k, "cli" + std::to_string(n)), cosy(k),
        port(static_cast<std::uint16_t>(kBasePort + n)) {}

  std::size_t id;
  uk::Proc srv;
  uk::Proc cli;
  cosy::CosyExtension cosy;
  cosy::SharedBuffer shared{kReqPerConn * kSlot};
  std::uint16_t port;
  int lfd = -1;
  int ringfd = -1;
  std::shared_ptr<ring::Ring> rg;
  /// The server's document-size table (filled by readdirplus at start).
  std::unordered_map<std::string, std::uint32_t> sizes;
  Tracer tr;
  std::uint64_t next_op = 0;
  std::vector<std::byte> rbuf = std::vector<std::byte>(kSlot);
  Phase ph;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(bool inkernel, std::uint64_t seed)
      : k_(fs_), net_(k_), rdev_(k_, net_) {
    fs_.set_cost_hook(k_.charge_hook());
    generate(inkernel, seed);
    populate();
    for (std::size_t s = 0; s < kStreams; ++s) {
      streams_.push_back(std::make_unique<Stream>(k_, s));
      start_server(*streams_.back(), inkernel);
    }
  }

  ~ServeWorkload() override {
    for (auto& st : streams_) {
      if (st->ringfd >= 0) st->srv.close(st->ringfd);
      if (st->lfd >= 0) st->srv.close(st->lfd);
    }
  }

  Phase run(double seconds, std::uint64_t min_rounds, bool traced) override {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (auto& sp : streams_) {
      Stream* st = sp.get();
      st->ph = Phase{};
      st->tr.set_enabled(traced);
      threads.emplace_back([this, st, deadline, min_rounds] {
        while (st->ph.rounds < min_rounds || now_ns() < deadline) {
          round(*st);
          ++st->ph.rounds;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Phase out;
    out.wall_ns = now_ns() - t0;
    for (auto& st : streams_) {
      st->tr.set_enabled(false);
      out.attempted += st->ph.attempted;
      out.failed += st->ph.failed;
      out.rounds += st->ph.rounds;
      out.cosy_requests += st->ph.cosy_requests;
      out.latency_ns.insert(out.latency_ns.end(), st->ph.latency_ns.begin(),
                            st->ph.latency_ns.end());
    }
    return out;
  }

  Counters counters() override {
    Counters c;
    for (auto& st : streams_) {
      const sched::Task& t = st->srv.task();
      c.crossings += t.syscalls;
      c.copied_bytes += t.bytes_from_user + t.bytes_to_user;
      c.kernel_units += t.times().kernel;
      c.cosy_ops += st->cosy.stats().ops_executed;
    }
    c.net_packets = net_.stats().packets_sent;
    const fs::DcacheStats ds = k_.vfs().dcache().stats();
    c.dcache_lookups = ds.lookups;
    c.dcache_hits = ds.hits;
    const mm::AllocatorStats& ks = k_.kmalloc().stats();
    c.kmalloc_calls = ks.alloc_calls;
    c.sched_parks = k_.scheduler().stats().parks.load();
    c.sched_schedules = k_.scheduler().stats().schedules.load();
    const ring::RingStats rs = rdev_.total_stats();
    c.ring_enters = rs.enters;
    c.ring_sqes = rs.sqes;
    return c;
  }

  Resources resources() override {
    Resources r;
    for (auto& st : streams_) {
      r.open_fds += st->srv.process().fds.open_count() +
                    st->cli.process().fds.open_count();
    }
    r.live_sockets = net_.live_sockets();
    r.kmalloc_outstanding_b =
        static_cast<std::int64_t>(k_.kmalloc().stats().outstanding_bytes);
    return r;
  }

  std::uint64_t sequence_hash() const override { return seq_hash_; }

  std::vector<const Tracer*> tracers() const override {
    std::vector<const Tracer*> v;
    for (const auto& st : streams_) v.push_back(&st->tr);
    return v;
  }

 private:
  /// Documents and one round's request plan. The seed decides which
  /// file holds each popularity rank, the sizes within their strata, the
  /// content and the request order; how often each size is requested is
  /// the same for every seed, so per-op figures do not depend on it.
  void generate(bool inkernel, std::uint64_t seed) {
    Rng r{seed};
    // Size stratum of each popularity rank: a fixed shuffle.
    std::vector<std::size_t> stratum(kDocs);
    for (std::size_t i = 0; i < kDocs; ++i) stratum[i] = i;
    Rng fixed{0x5EED5EED};
    shuffle(stratum, fixed);
    std::vector<std::uint16_t> doc_of_rank(kDocs);
    for (std::size_t i = 0; i < kDocs; ++i) doc_of_rank[i] = static_cast<std::uint16_t>(i);
    shuffle(doc_of_rank, r);
    docs_.resize(kDocs);
    for (std::size_t rank = 0; rank < kDocs; ++rank) {
      const std::size_t i = doc_of_rank[rank];
      char path[64];
      std::snprintf(path, sizeof path, "/www/d%02zu/f%03zu", i % kDirs, i);
      docs_[i].path = path;
      docs_[i].bytes.resize(static_cast<std::size_t>(
          log_uniform_stratum(kMinDoc, kMaxDoc, stratum[rank], kDocs, r)));
      fill_pattern(r.next(), docs_[i].bytes);
    }
    // Zipf popularity, sampled systematically: request j of the round
    // takes the rank at cumulative probability (j + 1/2) / N, so every
    // seed requests each rank equally often; the seed orders the requests.
    std::vector<double> cdf(kDocs);
    double sum = 0;
    for (std::size_t i = 0; i < kDocs; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      cdf[i] = sum;
    }
    constexpr std::size_t kRequests = kConnsPerRound * kReqPerConn;
    std::vector<std::uint16_t> reqs(kRequests);
    for (std::size_t j = 0; j < kRequests; ++j) {
      const double p = (static_cast<double>(j) + 0.5) / kRequests * sum;
      const auto k = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), p) - cdf.begin());
      reqs[j] = doc_of_rank[std::min(k, kDocs - 1)];
    }
    // serve_inkernel: request j goes to vehicle j % 3, so each vehicle
    // serves the same size mix; the seed orders each vehicle's requests.
    const std::size_t groups = inkernel ? 3 : 1;
    std::vector<std::vector<std::uint16_t>> group(groups);
    for (std::size_t j = 0; j < kRequests; ++j) group[j % groups].push_back(reqs[j]);
    for (auto& g : group) shuffle(g, r);
    SeqHash h;
    plan_.resize(kConnsPerRound);
    for (std::size_t c = 0; c < kConnsPerRound; ++c) {
      const std::size_t g = c % groups;
      plan_[c].v = inkernel ? static_cast<Vehicle>(1 + g) : Vehicle::kClassic;
      h.add(static_cast<std::uint64_t>(plan_[c].v));
      for (std::size_t q = 0; q < kReqPerConn; ++q) {
        const std::uint16_t d = group[g][(c / groups) * kReqPerConn + q];
        plan_[c].doc[q] = d;
        h.add(d);
        h.add(docs_[d].bytes.size());
      }
    }
    seq_hash_ = h.h;
  }

  void populate() {
    uk::Proc p(k_, "populate");
    p.mkdir("/www");
    for (std::size_t d = 0; d < kDirs; ++d) {
      char dir[32];
      std::snprintf(dir, sizeof dir, "/www/d%02zu", d);
      p.mkdir(dir);
    }
    for (const Doc& d : docs_) {
      int fd = p.open(d.path.c_str(), fs::kOWrOnly | fs::kOCreat | fs::kOTrunc);
      if (fd < 0 || p.write(fd, d.bytes.data(), d.bytes.size()) !=
                        static_cast<SysRet>(d.bytes.size())) {
        std::fprintf(stderr, "perfbench: cannot populate %s\n", d.path.c_str());
        std::exit(1);
      }
      p.close(fd);
    }
  }

  void start_server(Stream& st, bool inkernel) {
    uk::Process& p = st.srv.process();
    st.lfd = static_cast<int>(net_.sys_socket(p, net::kSockNonblock));
    if (st.lfd < 0 || net_.sys_bind(p, st.lfd, st.port) != 0 ||
        net_.sys_listen(p, st.lfd, 16) != 0) {
      std::fprintf(stderr, "perfbench: cannot listen on port %u\n", st.port);
      std::exit(1);
    }
    if (!inkernel) return;
    st.ringfd = static_cast<int>(rdev_.sys_ring_setup(
        p, 64, static_cast<std::uint32_t>(kArenaBytes)));
    if (st.ringfd < 0) {
      std::fprintf(stderr, "perfbench: ring_setup failed\n");
      std::exit(1);
    }
    st.rg = rdev_.user_map(p, st.ringfd).value();
    // The in-kernel server learns document sizes once, the consolidated
    // way: one readdirplus listing per directory.
    std::vector<std::byte> buf(16384);
    for (std::size_t d = 0; d < kDirs; ++d) {
      char dir[32];
      std::snprintf(dir, sizeof dir, "/www/d%02zu", d);
      std::uint64_t cookie = 0;
      for (;;) {
        SysRet n = consolidation::sys_readdirplus(k_, p, dir, buf.data(),
                                                  buf.size(), &cookie);
        if (n <= 0) break;
        std::vector<std::pair<uk::UserDirent, fs::StatBuf>> ents;
        uk::decode_dirents_plus(
            std::span<const std::byte>(buf.data(), static_cast<std::size_t>(n)),
            &ents);
        for (const auto& [de, sb] : ents) {
          if (de.type != fs::FileType::kRegular) continue;
          st.sizes[std::string(dir) + "/" + de.name] =
              static_cast<std::uint32_t>(sb.size);
        }
      }
    }
  }

  void round(Stream& st) {
    const std::size_t off = st.id * kConnsPerRound / kStreams;
    for (std::size_t c = 0; c < kConnsPerRound; ++c) {
      const ConnPlan& cp = plan_[(c + off) % kConnsPerRound];
      if (cp.v == Vehicle::kClassic) {
        conn_classic(st, cp);
      } else {
        conn_pipelined(st, cp);
      }
    }
  }

  // --- client side ------------------------------------------------------------

  int client_connect(Stream& st) {
    uk::Process& p = st.cli.process();
    int cfd = st.tr.call(Call::kSocket, [&] {
      return static_cast<int>(net_.sys_socket(p, net::kSockNonblock));
    });
    if (cfd < 0) return -1;
    if (st.tr.call(Call::kConnect,
                   [&] { return net_.sys_connect(p, cfd, st.port); }) != 0) {
      st.tr.call(Call::kClose, [&] { return st.cli.close(cfd); });
      return -1;
    }
    return cfd;
  }

  /// Receive one whole response and compare every byte.
  bool client_read(Stream& st, int cfd, const Doc& d) {
    uk::Process& p = st.cli.process();
    std::size_t got = 0;
    bool same = true;
    while (got < d.bytes.size()) {
      SysRet n = st.tr.call(Call::kRecv, [&] {
        return net_.sys_recv(p, cfd, st.rbuf.data(), d.bytes.size() - got);
      });
      if (n <= 0) return false;
      const auto un = static_cast<std::size_t>(n);
      same = same && std::memcmp(st.rbuf.data(), d.bytes.data() + got, un) == 0;
      got += un;
    }
    return same;
  }

  void record(Stream& st, std::uint64_t start, std::uint64_t end, bool ok) {
    st.ph.latency_ns.push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(end - start, UINT32_MAX)));
    ++st.ph.attempted;
    if (!ok) ++st.ph.failed;
  }

  // --- serve_classic ----------------------------------------------------------

  /// recv, stat, open, read+send per 4 KiB, close.
  bool serve_plain(Stream& st, int sfd) {
    uk::Process& p = st.srv.process();
    char req[kReqBytes];
    if (st.tr.call(Call::kRecv, [&] {
          return net_.sys_recv(p, sfd, req, kReqBytes);
        }) != static_cast<SysRet>(kReqBytes)) {
      return false;
    }
    const std::string path = parse_path(req);
    fs::StatBuf sb{};
    if (st.tr.call(Call::kStat, [&] { return st.srv.stat(path.c_str(), &sb); }) != 0) {
      return false;
    }
    int fd = st.tr.call(Call::kOpen,
                        [&] { return st.srv.open(path.c_str(), fs::kORdOnly); });
    if (fd < 0) return false;
    std::byte buf[kChunk];
    std::uint64_t left = sb.size;
    bool ok = true;
    while (left > 0 && ok) {
      const std::size_t want = std::min<std::uint64_t>(left, kChunk);
      SysRet n = st.tr.call(Call::kRead, [&] { return st.srv.read(fd, buf, want); });
      ok = n > 0 && st.tr.call(Call::kSend, [&] {
                      return net_.sys_send(p, sfd, buf, static_cast<std::size_t>(n));
                    }) == n;
      if (ok) left -= static_cast<std::uint64_t>(n);
    }
    st.tr.call(Call::kClose, [&] { return st.srv.close(fd); });
    return ok;
  }

  void conn_classic(Stream& st, const ConnPlan& cp) {
    uk::Process& sp = st.srv.process();
    uk::Process& cpr = st.cli.process();
    std::uint64_t t0 = now_ns();
    st.tr.begin_op(st.next_op, 1);
    const int cfd = client_connect(st);
    const int sfd = cfd < 0 ? -1 : st.tr.call(Call::kAccept, [&] {
      return static_cast<int>(net_.sys_accept(sp, st.lfd));
    });
    for (std::size_t r = 0; r < kReqPerConn; ++r) {
      if (r > 0) {
        t0 = now_ns();
        st.tr.begin_op(st.next_op, 1);
      }
      ++st.next_op;
      const Doc& d = docs_[cp.doc[r]];
      char req[kReqBytes];
      put_request(req, d.path);
      bool ok = sfd >= 0 && st.tr.call(Call::kSend, [&] {
                  return net_.sys_send(cpr, cfd, req, kReqBytes);
                }) == static_cast<SysRet>(kReqBytes);
      ok = ok && serve_plain(st, sfd);
      ok = ok && client_read(st, cfd, d);
      const std::uint64_t end = now_ns();
      // Teardown belongs to the last request's span, not its latency.
      if (r + 1 == kReqPerConn) ok = close_both(st, cfd, sfd) && ok;
      record(st, t0, end, ok);
      st.tr.end_op();
    }
  }

  /// Client closes; the server sees EOF and closes its end.
  bool close_both(Stream& st, int cfd, int sfd) {
    bool ok = cfd >= 0 && sfd >= 0;
    if (cfd >= 0) st.tr.call(Call::kClose, [&] { return st.cli.close(cfd); });
    if (sfd >= 0) {
      char b;
      ok = st.tr.call(Call::kRecv, [&] {
             return net_.sys_recv(st.srv.process(), sfd, &b, 1);
           }) == 0 && ok;
      st.tr.call(Call::kClose, [&] { return st.srv.close(sfd); });
    }
    return ok;
  }

  // --- serve_inkernel ---------------------------------------------------------

  void conn_pipelined(Stream& st, const ConnPlan& cp) {
    const std::uint64_t t0 = now_ns();
    st.tr.begin_op(st.next_op, kReqPerConn);
    st.next_op += kReqPerConn;
    const int cfd = client_connect(st);
    const std::uint64_t t1 = now_ns();
    char reqs[kReqPerConn * kReqBytes];
    for (std::size_t r = 0; r < kReqPerConn; ++r) {
      put_request(reqs + r * kReqBytes, docs_[cp.doc[r]].path);
    }
    bool served = cfd >= 0 && st.tr.call(Call::kSend, [&] {
                    return net_.sys_send(st.cli.process(), cfd, reqs, sizeof reqs);
                  }) == static_cast<SysRet>(sizeof reqs);
    if (served) {
      switch (cp.v) {
        case Vehicle::kConsolidated: served = serve_consolidated(st); break;
        case Vehicle::kCosy: served = serve_cosy(st); break;
        case Vehicle::kRing: served = serve_ring(st); break;
        case Vehicle::kClassic: served = false; break;
      }
    }
    for (std::size_t r = 0; r < kReqPerConn; ++r) {
      const bool ok = served && cfd >= 0 && client_read(st, cfd, docs_[cp.doc[r]]);
      record(st, r == 0 ? t0 : t1, now_ns(), ok);
    }
    if (cfd >= 0) st.tr.call(Call::kClose, [&] { return st.cli.close(cfd); });
    st.tr.end_op();
  }

  /// Receive the rest of the pipelined requests into `reqs` (already
  /// holding `have` bytes).
  bool recv_requests(Stream& st, int sfd, char* reqs, std::size_t have) {
    while (have < kReqPerConn * kReqBytes) {
      SysRet n = st.tr.call(Call::kRecv, [&] {
        return net_.sys_recv(st.srv.process(), sfd, reqs + have,
                             kReqPerConn * kReqBytes - have);
      });
      if (n <= 0) return false;
      have += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Path and size of request `r`, from the server's size table.
  bool lookup(Stream& st, const char* reqs, std::size_t r, std::string* path,
              std::uint32_t* size) {
    *path = parse_path(reqs + r * kReqBytes);
    auto it = st.sizes.find(*path);
    if (it == st.sizes.end()) return false;
    *size = it->second;
    return true;
  }

  /// accept_recv for the prologue, sendfile per response.
  bool serve_consolidated(Stream& st) {
    uk::Process& p = st.srv.process();
    char reqs[kReqPerConn * kReqBytes];
    int sfd = -1;
    SysRet n = st.tr.call(Call::kAcceptRecv, [&] {
      return consolidation::sys_accept_recv(net_, k_, p, st.lfd, reqs,
                                            sizeof reqs, &sfd);
    });
    if (sfd < 0) return false;
    bool ok = n > 0 && recv_requests(st, sfd, reqs, static_cast<std::size_t>(n));
    for (std::size_t r = 0; r < kReqPerConn && ok; ++r) {
      std::string path;
      std::uint32_t size = 0;
      ok = lookup(st, reqs, r, &path, &size) &&
           st.tr.call(Call::kSendfile, [&] {
             return consolidation::sys_sendfile(net_, k_, p, sfd, path.c_str(),
                                                0, size);
           }) == static_cast<SysRet>(size);
    }
    st.tr.call(Call::kClose, [&] { return st.srv.close(sfd); });
    return ok;
  }

  /// accept + recv, then one compound: open, read, close, write per
  /// request and the connection's close.
  bool serve_cosy(Stream& st) {
    uk::Process& p = st.srv.process();
    const int sfd = st.tr.call(Call::kAccept, [&] {
      return static_cast<int>(net_.sys_accept(p, st.lfd));
    });
    if (sfd < 0) return false;
    char reqs[kReqPerConn * kReqBytes];
    std::array<std::uint32_t, kReqPerConn> sizes{};
    std::array<int, kReqPerConn> writes{};
    bool ok = recv_requests(st, sfd, reqs, 0);
    cosy::CompoundBuilder b;
    for (std::size_t r = 0; r < kReqPerConn && ok; ++r) {
      std::string path;
      ok = lookup(st, reqs, r, &path, &sizes[r]);
      const auto slot = static_cast<std::int64_t>(r * kSlot);
      int o = b.open(b.str(path), cosy::imm(fs::kORdOnly), cosy::imm(0));
      int rd = b.read(cosy::result_of(o), cosy::shared(slot),
                      cosy::imm(static_cast<std::int64_t>(kSlot)));
      b.close(cosy::result_of(o));
      writes[r] = b.write(cosy::imm(sfd), cosy::shared(slot), cosy::result_of(rd));
    }
    if (!ok) {
      st.tr.call(Call::kClose, [&] { return st.srv.close(sfd); });
      return false;
    }
    const int close_op = b.close(cosy::imm(sfd));
    const cosy::Compound c = b.finish();
    const cosy::CosyResult res = st.tr.call(
        Call::kCosyExecute, [&] { return st.cosy.execute(p, c, st.shared); });
    st.tr.add_units(Call::kCosyExecute, kReqPerConn);
    st.ph.cosy_requests += kReqPerConn;
    ok = res.ret == 0 && res.results.size() > static_cast<std::size_t>(close_op);
    for (std::size_t r = 0; r < kReqPerConn && ok; ++r) {
      ok = res.results[static_cast<std::size_t>(writes[r])] ==
           static_cast<SysRet>(sizes[r]);
    }
    if (!ok || res.results[static_cast<std::size_t>(close_op)] != 0) {
      st.tr.call(Call::kClose, [&] { return st.srv.close(sfd); });
      return false;
    }
    return true;
  }

  bool ring_push(Stream& st, const ring::Sqe& e) {
    return st.tr.call(Call::kRingPrepare, [&] { return st.rg->user_prepare(e); });
  }

  /// One ring_enter that drains `chains` queued chains; reaps into `out`.
  void ring_enter(Stream& st, std::size_t chains, std::vector<ring::Cqe>& out) {
    st.tr.call(Call::kRingEnter, [&] {
      return rdev_.sys_ring_enter(st.srv.process(), st.ringfd,
                                  ring::RingDev::kDrainAll, 0, 0);
    });
    st.tr.add_units(Call::kRingEnter, chains);
    out.clear();
    ring::Cqe buf[64];
    std::size_t n;
    while ((n = st.tr.call(Call::kRingReap, [&] { return st.rg->user_reap(buf, 64); })) > 0) {
      out.insert(out.end(), buf, buf + n);
    }
  }

  static SysRet cqe_res(const std::vector<ring::Cqe>& cqes, std::uint64_t ud) {
    for (const ring::Cqe& c : cqes) {
      if (c.user_data == ud) return c.res;
    }
    return -1;
  }

  /// enter 1: accept -> recv; enter 2: per request open -> read -> send
  /// -> close, plus the connection's close.
  bool serve_ring(Stream& st) {
    std::vector<ring::Cqe> cqes;
    ring::Sqe a{};
    a.user_data = kUdAccept;
    a.op = ring::RingOp::kAccept;
    a.flags = ring::kSqeLink;
    a.fd = st.lfd;
    ring::Sqe rv{};
    rv.user_data = kUdRecv;
    rv.op = ring::RingOp::kRecv;
    rv.fd = ring::kFdChain;
    rv.addr = kArenaReq;
    rv.len = kReqPerConn * kReqBytes;
    if (!ring_push(st, a) || !ring_push(st, rv)) return false;
    ring_enter(st, 1, cqes);
    const int sfd = static_cast<int>(cqe_res(cqes, kUdAccept));
    if (sfd < 0) return false;
    char reqs[kReqPerConn * kReqBytes];
    const SysRet got = cqe_res(cqes, kUdRecv);
    std::memcpy(reqs, st.rg->user_data(kArenaReq, sizeof reqs), sizeof reqs);
    bool ok = got > 0 && recv_requests(st, sfd, reqs, static_cast<std::size_t>(got));
    std::array<std::uint32_t, kReqPerConn> sizes{};
    for (std::size_t r = 0; r < kReqPerConn && ok; ++r) {
      std::string path;
      ok = lookup(st, reqs, r, &path, &sizes[r]);
      const std::uint64_t poff = kArenaPath + r * kReqBytes;
      std::memcpy(st.rg->user_data(poff, kReqBytes), path.c_str(), path.size() + 1);
      ring::Sqe o{};
      o.user_data = r * 8 + 1;
      o.op = ring::RingOp::kOpen;
      o.flags = ring::kSqeLink;
      o.addr = poff;
      o.len = static_cast<std::uint32_t>(path.size() + 1);
      o.aux = static_cast<std::uint64_t>(fs::kORdOnly);
      ring::Sqe rd{};
      rd.user_data = r * 8 + 2;
      rd.op = ring::RingOp::kRead;
      rd.flags = ring::kSqeLink;
      rd.fd = ring::kFdChain;
      rd.addr = r * kSlot;
      rd.len = kSlot;
      ring::Sqe sn{};
      sn.user_data = r * 8 + 3;
      sn.op = ring::RingOp::kSend;
      sn.flags = ring::kSqeLink;
      sn.fd = sfd;
      sn.addr = r * kSlot;
      sn.len = sizes[r];
      ring::Sqe cl{};
      cl.user_data = r * 8 + 4;
      cl.op = ring::RingOp::kClose;
      cl.fd = ring::kFdChain;
      ok = ok && ring_push(st, o) && ring_push(st, rd) && ring_push(st, sn) &&
           ring_push(st, cl);
    }
    ring::Sqe c{};
    c.user_data = kUdClose;
    c.op = ring::RingOp::kClose;
    c.fd = sfd;
    if (!ring_push(st, c)) {
      st.tr.call(Call::kClose, [&] { return st.srv.close(sfd); });
      return false;
    }
    ring_enter(st, kReqPerConn + 1, cqes);
    for (std::size_t r = 0; r < kReqPerConn && ok; ++r) {
      ok = cqe_res(cqes, r * 8 + 3) == static_cast<SysRet>(sizes[r]) &&
           cqe_res(cqes, r * 8 + 4) == 0;
    }
    return ok && cqe_res(cqes, kUdClose) == 0;
  }

  fs::MemFs fs_;
  uk::Kernel k_;
  net::Net net_;
  ring::RingDev rdev_;
  std::vector<Doc> docs_;
  std::vector<ConnPlan> plan_;
  std::uint64_t seq_hash_ = 0;
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(bool inkernel, std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(inkernel, seed);
}

}  // namespace pb
