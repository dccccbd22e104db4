// Per-CPU counters merge exactly: two dispatchers drive one kernel from
// their own CPU slots, and every merged figure (syscall histograms,
// NetStats, MemFs/Vfs stats, the sharded socket table) equals the sum of
// what each thread did -- nothing lost to a shared word, nothing counted
// twice by the merge.
//
// Part of `scripts/run_tier1.sh stress` (repeated 20x) and the TSan run:
//   cmake -B build-tsan -S . -DUSK_SANITIZE=thread
//   cmake --build build-tsan -j --target test_percpu_merge
//   ./build-tsan/tests/test_percpu_merge
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "trace/ktrace.hpp"
#include "uk/userlib.hpp"

namespace usk {
namespace {

constexpr int kThreads = 2;

/// Run `body(t)` on kThreads threads at once and join them.
template <class Fn>
void on_two_cpus(Fn&& body) {
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) ts.emplace_back(body, t);
  for (std::thread& th : ts) th.join();
}

std::string slurp(uk::Proc& p, const char* path) {
  const int fd = p.open(path, fs::kORdOnly);
  EXPECT_GE(fd, 0) << path;
  std::string out;
  char buf[1024];
  for (;;) {
    const SysRet n = p.read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  p.close(fd);
  return out;
}

/// One /proc/net/sockets row.
struct SockRow {
  std::uint64_t ino = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t pkts_tx = 0;
};

std::vector<SockRow> parse_sockets(const std::string& table) {
  std::istringstream in(table);
  std::string line;
  std::getline(in, line);  // header
  EXPECT_EQ(line.rfind("ino state port peer_port rxq bytes_rx bytes_tx", 0),
            0u);
  std::vector<SockRow> rows;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    SockRow r;
    std::string state;
    unsigned port = 0, peer_port = 0;
    std::size_t rxq = 0;
    std::uint64_t bytes_rx = 0, pkts_rx = 0;
    f >> r.ino >> state >> port >> peer_port >> rxq >> bytes_rx >>
        r.bytes_tx >> pkts_rx >> r.pkts_tx;
    EXPECT_FALSE(f.fail()) << line;
    rows.push_back(r);
  }
  return rows;
}

class PerCpuMergeTest : public ::testing::Test {
 protected:
  PerCpuMergeTest() : kernel_(fs_), net_(kernel_), setup_(kernel_, "setup") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  fs::MemFs fs_;
  uk::Kernel kernel_;
  net::Net net_;
  uk::Proc setup_;
};

TEST_F(PerCpuMergeTest, SyscallHistogramCountsEveryCall) {
  constexpr int kCalls = 5000;
  const auto nr = static_cast<std::uint16_t>(uk::Sys::kGetpid);
  kernel_.mount_procfs();
  const std::uint64_t before = trace::ktrace().syscall_snapshot(nr).count;

  on_two_cpus([&](int t) {
    uk::Proc p(kernel_, "hist" + std::to_string(t));
    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(p.getpid(), static_cast<SysRet>(p.task().pid()));
    }
  });

  const trace::HistogramSnapshot h = trace::ktrace().syscall_snapshot(nr);
  EXPECT_EQ(h.count - before, std::uint64_t{kThreads} * kCalls);
  std::uint64_t in_buckets = 0;
  for (std::uint64_t b : h.buckets) in_buckets += b;
  EXPECT_EQ(in_buckets, h.count);

  // The /proc surface renders the same merge.
  const std::string text = slurp(setup_, "/proc/trace/hist/syscall");
  const std::string want = "getpid count " + std::to_string(h.count) + " ";
  EXPECT_NE(text.find(want), std::string::npos) << text;
}

TEST_F(PerCpuMergeTest, NetBytesSentEqualsPerSocketBytesTx) {
  constexpr int kMsgs = 400;
  std::vector<std::uint64_t> sent(kThreads, 0);

  on_two_cpus([&](int t) {
    uk::Proc pr(kernel_, "net" + std::to_string(t));
    uk::Process& p = pr.process();
    const auto port = static_cast<std::uint16_t>(7300 + t);
    const int lfd = static_cast<int>(net_.sys_socket(p));
    ASSERT_EQ(net_.sys_bind(p, lfd, port), 0);
    ASSERT_EQ(net_.sys_listen(p, lfd, 4), 0);
    const int cli = static_cast<int>(net_.sys_socket(p));
    ASSERT_EQ(net_.sys_connect(p, cli, port), 0);
    const int srv = static_cast<int>(net_.sys_accept(p, lfd));
    ASSERT_GE(srv, 0);
    std::vector<char> buf(4096 + 97, static_cast<char>('a' + t));
    for (int i = 0; i < kMsgs; ++i) {
      // Sizes from 1 B to past one MTU; both directions.
      const std::size_t n = 1 + static_cast<std::size_t>(i * 37 + t) % buf.size();
      const int from = i % 2 == 0 ? cli : srv;
      const int to = i % 2 == 0 ? srv : cli;
      ASSERT_EQ(net_.sys_send(p, from, buf.data(), n), static_cast<SysRet>(n));
      ASSERT_EQ(net_.sys_recv(p, to, buf.data(), n), static_cast<SysRet>(n));
      sent[t] += n;
    }
    // Sockets stay open: their rows carry the per-socket totals.
  });

  const net::NetStats st = net_.stats();
  std::uint64_t bytes_tx = 0, pkts_tx = 0;
  for (const SockRow& r : parse_sockets(net_.format_sockets())) {
    bytes_tx += r.bytes_tx;
    pkts_tx += r.pkts_tx;
  }
  EXPECT_EQ(st.bytes_sent, sent[0] + sent[1]);
  EXPECT_EQ(st.bytes_sent, bytes_tx);
  EXPECT_EQ(st.packets_sent, pkts_tx);
  EXPECT_EQ(st.sockets_created, std::uint64_t{kThreads} * 3);
  EXPECT_EQ(st.conns_accepted, std::uint64_t{kThreads});
}

TEST_F(PerCpuMergeTest, MemFsAndVfsStatsAreExact) {
  constexpr int kRounds = 300;
  ASSERT_EQ(setup_.mkdir("/d"), 0);
  const std::string payload(700, 'x');
  for (int t = 0; t <= kThreads; ++t) {
    const std::string path = "/d/f" + std::to_string(t);
    const int fd = setup_.open(path.c_str(), fs::kOWrOnly | fs::kOCreat);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(setup_.write(fd, payload.data(), payload.size()),
              static_cast<SysRet>(payload.size()));
    setup_.close(fd);
  }
  auto round = [](uk::Proc& p, const std::string& path) {
    fs::StatBuf st;
    char buf[1024];
    EXPECT_EQ(p.stat(path.c_str(), &st), 0);
    const int fd = p.open(path.c_str(), fs::kORdOnly);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(p.read(fd, buf, sizeof(buf)), 700);
    EXPECT_EQ(p.close(fd), 0);
  };
  // Warm every path's dentries, then measure one thread's worth of rounds
  // on a file of the same shape: the two-thread run must cost exactly 2x.
  for (int t = 0; t <= kThreads; ++t) round(setup_, "/d/f" + std::to_string(t));
  const fs::MemFsStats m0 = fs_.stats();
  const fs::VfsStats v0 = kernel_.vfs().stats();
  for (int i = 0; i < kRounds; ++i) round(setup_, "/d/f" + std::to_string(kThreads));
  const fs::MemFsStats m1 = fs_.stats();
  const fs::VfsStats v1 = kernel_.vfs().stats();

  on_two_cpus([&](int t) {
    uk::Proc p(kernel_, "fs" + std::to_string(t));
    const std::string path = "/d/f" + std::to_string(t);
    for (int i = 0; i < kRounds; ++i) round(p, path);
  });
  const fs::MemFsStats m2 = fs_.stats();
  const fs::VfsStats v2 = kernel_.vfs().stats();

  EXPECT_EQ(m1.reads - m0.reads, std::uint64_t{kRounds});
  EXPECT_EQ(m1.bytes_read - m0.bytes_read, std::uint64_t{kRounds} * 700);
  EXPECT_GE(m1.getattrs - m0.getattrs, std::uint64_t{kRounds});
  EXPECT_EQ(m2.reads - m1.reads, kThreads * (m1.reads - m0.reads));
  EXPECT_EQ(m2.bytes_read - m1.bytes_read,
            kThreads * (m1.bytes_read - m0.bytes_read));
  EXPECT_EQ(m2.getattrs - m1.getattrs,
            kThreads * (m1.getattrs - m0.getattrs));
  EXPECT_EQ(m2.lookups - m1.lookups, kThreads * (m1.lookups - m0.lookups));
  EXPECT_EQ(m2.writes, m1.writes);

  EXPECT_EQ(v1.opens - v0.opens, std::uint64_t{kRounds});
  EXPECT_EQ(v2.opens - v1.opens, kThreads * (v1.opens - v0.opens));
  EXPECT_EQ(v2.closes - v1.closes, kThreads * (v1.closes - v0.closes));
  EXPECT_EQ(v2.reads - v1.reads, kThreads * (v1.reads - v0.reads));
  EXPECT_EQ(v2.stats - v1.stats, kThreads * (v1.stats - v0.stats));
  EXPECT_EQ(v2.path_components - v1.path_components,
            kThreads * (v1.path_components - v0.path_components));
}

TEST_F(PerCpuMergeTest, LiveSocketsReturnToBaselineAfterStorm) {
  constexpr int kRounds = 300;
  const std::size_t baseline = net_.live_sockets();

  on_two_cpus([&](int t) {
    uk::Proc pr(kernel_, "storm" + std::to_string(t));
    uk::Process& p = pr.process();
    const auto port = static_cast<std::uint16_t>(7400 + t);
    const int lfd = static_cast<int>(net_.sys_socket(p));
    ASSERT_EQ(net_.sys_bind(p, lfd, port), 0);
    ASSERT_EQ(net_.sys_listen(p, lfd, 4), 0);
    for (int i = 0; i < kRounds; ++i) {
      const int cli = static_cast<int>(net_.sys_socket(p));
      ASSERT_EQ(net_.sys_connect(p, cli, port), 0);
      const int srv = static_cast<int>(net_.sys_accept(p, lfd));
      ASSERT_GE(srv, 0);
      char c = 'x';
      ASSERT_EQ(net_.sys_send(p, cli, &c, 1), 1);
      ASSERT_EQ(net_.sys_recv(p, srv, &c, 1), 1);
      // Alternate which half closes first.
      ASSERT_EQ(pr.close(i % 2 == 0 ? cli : srv), 0);
      ASSERT_EQ(pr.close(i % 2 == 0 ? srv : cli), 0);
      if (i % 25 == 0) {
        // A listener that binds, listens and closes: its port is free
        // again at once.
        const auto tport = static_cast<std::uint16_t>(7500 + 2 * t);
        for (int k = 0; k < 2; ++k) {
          const int tl = static_cast<int>(net_.sys_socket(p));
          ASSERT_EQ(net_.sys_bind(p, tl, tport), 0);
          ASSERT_EQ(net_.sys_listen(p, tl, 1), 0);
          ASSERT_EQ(pr.close(tl), 0);
        }
      }
    }
    ASSERT_EQ(pr.close(lfd), 0);
  });

  EXPECT_EQ(net_.live_sockets(), baseline);
  EXPECT_EQ(parse_sockets(net_.format_sockets()).size(), baseline);
  // Both listeners' ports were released with them.
  uk::Process& p = setup_.process();
  for (int t = 0; t < kThreads; ++t) {
    const int s = static_cast<int>(net_.sys_socket(p));
    EXPECT_EQ(net_.sys_bind(p, s, static_cast<std::uint16_t>(7400 + t)), 0);
    setup_.close(s);
  }
  EXPECT_EQ(net_.live_sockets(), baseline);
}

TEST_F(PerCpuMergeTest, ProcNetSocketsRowsAscendByIno) {
  constexpr int kPerThread = 150;  // > the table's shard count
  on_two_cpus([&](int t) {
    uk::Proc pr(kernel_, "mk" + std::to_string(t));
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_GE(net_.sys_socket(pr.process()), 0);
    }
    // The fds stay open: the Proc's task outlives this thread.
  });
  net_.register_proc(kernel_.mount_procfs());
  const std::vector<SockRow> rows =
      parse_sockets(slurp(setup_, "/proc/net/sockets"));
  ASSERT_EQ(rows.size(), std::size_t{kThreads} * kPerThread);
  EXPECT_EQ(rows.size(), net_.live_sockets());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].ino, rows[i].ino) << "row " << i;
  }
}

}  // namespace
}  // namespace usk
