// spool_fsync: a single-writer mail spool on a kernel rooted on a
// store-attached JournalFs (real backing image, real fsync).
//
// The backing image is an anonymous in-memory file (memfd, tmpfs-backed),
// reopened by the store through /proc/self/fd: fsync costs what it costs
// on tmpfs, so the store's own path is measured rather than the host
// disk, no two runs share a file, and the image vanishes with the
// process.
//
// A transaction delivers one message durably (create, write, fsync,
// close) and reads back an earlier one (open, read, close). Every 16th
// transaction also lists the spool with readdirplus and expunges the 16
// oldest messages, so the spool holds 64..80 messages and every round of
// 256 transactions makes the same calls. One writer, because JournalFs
// takes no lock of its own.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "blockdev/buffer_cache.hpp"
#include "blockdev/disk.hpp"
#include "consolidation/newcalls.hpp"
#include "fs/journalfs.hpp"
#include "store/store.hpp"
#include "uk/userlib.hpp"

namespace pb {
using namespace usk;
namespace {

using JFs = usk::fs::JournalFs<usk::fs::RawPtrPolicy>;

constexpr std::size_t kWindow = 64;        ///< live messages after an expunge
constexpr std::size_t kExpungeEvery = 16;
constexpr std::size_t kTxnsPerRound = 256;
/// Read-back: the transactions of one 32-message block read the previous
/// block's messages in a seeded order, each exactly once (1..63 back).
constexpr std::size_t kBlock = 32;
constexpr double kMinMsg = 256;
constexpr double kMaxMsg = 3072;
constexpr std::size_t kReadBuf = 4096;

class SpoolWorkload final : public Workload {
 public:
  explicit SpoolWorkload(std::uint64_t seed)
      : seed_(seed), memfd_(::memfd_create("perfbench-spool", MFD_CLOEXEC)) {
    if (memfd_ < 0) fail("memfd_create");
    // One size per stratum, in seeded order, so every round writes (and
    // reads back) the same size mix for every seed.
    Rng r{seed};
    SeqHash h;
    std::vector<std::size_t> stratum(kTxnsPerRound);
    for (std::size_t j = 0; j < kTxnsPerRound; ++j) stratum[j] = j;
    shuffle(stratum, r);
    for (std::size_t j = 0; j < kTxnsPerRound; ++j) {
      size_[j] = static_cast<std::uint32_t>(
          log_uniform_stratum(kMinMsg, kMaxMsg, stratum[j], kTxnsPerRound, r));
      h.add(size_[j]);
    }
    for (auto& perm : pick_) {
      std::vector<std::uint8_t> v(kBlock);
      for (std::size_t i = 0; i < kBlock; ++i) v[i] = static_cast<std::uint8_t>(i);
      shuffle(v, r);
      std::copy(v.begin(), v.end(), perm.begin());
      for (std::uint8_t x : v) h.add(x);
    }
    seq_hash_ = h.h;

    usk::store::StoreConfig cfg;
    cfg.data_blocks = 2112;     // inode table + bitmap + JournalFs blocks
    cfg.journal_blocks = 2048;
    if (!store_.open("/proc/self/fd/" + std::to_string(memfd_), cfg).ok()) {
      fail("cannot create the backing image");
    }
    jfs_ = std::make_unique<JFs>(256, 2048, 4096, 256);
    if (!jfs_->attach_store(&store_, &cache_).ok()) fail("cannot attach the store");
    k_ = std::make_unique<usk::uk::Kernel>(*jfs_);
    jfs_->set_cost_hook(k_->charge_hook());
    disk_.set_charge_hook(k_->charge_hook());
    app_ = std::make_unique<usk::uk::Proc>(*k_, "spool");
    if (app_->mkdir("/spool") != 0) fail("mkdir /spool");
    for (; next_ < kWindow; ++next_) {
      if (!deliver(next_, false)) fail("cannot pre-fill the spool");
    }
    if (app_->sync() != 0) fail("sync");
  }

  ~SpoolWorkload() override {
    app_.reset();
    k_.reset();
    jfs_.reset();
    store_.close();
    ::close(memfd_);
  }

  Phase run(double seconds, std::uint64_t min_rounds, bool traced) override {
    Phase ph;
    tr_.set_enabled(traced);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    while (ph.rounds < min_rounds || now_ns() < deadline) {
      for (std::size_t j = 0; j < kTxnsPerRound; ++j) txn(ph);
      ++ph.rounds;
    }
    ph.wall_ns = now_ns() - t0;
    tr_.set_enabled(false);
    return ph;
  }

  Counters counters() override {
    Counters c;
    const usk::sched::Task& t = app_->task();
    c.crossings = t.syscalls;
    c.copied_bytes = t.bytes_from_user + t.bytes_to_user;
    c.kernel_units = t.times().kernel;
    const usk::fs::DcacheStats ds = k_->vfs().dcache().stats();
    c.dcache_lookups = ds.lookups;
    c.dcache_hits = ds.hits;
    const usk::mm::AllocatorStats& ks = k_->kmalloc().stats();
    c.kmalloc_calls = ks.alloc_calls;
    c.sched_parks = k_->scheduler().stats().parks.load();
    c.sched_schedules = k_->scheduler().stats().schedules.load();
    c.store_commit_units = store_.journal()->stats().commit_units;
    c.store_checkpoints = store_.stats().checkpoints;
    c.image_bytes_written = store_.image().stats().bytes_written;
    const usk::blockdev::CacheStats cs = cache_.stats();
    c.cache_lookups = cs.lookups;
    c.cache_hits = cs.hits;
    c.cache_writebacks = cs.writebacks;
    return c;
  }

  Resources resources() override {
    Resources r;
    r.open_fds = app_->process().fds.open_count();
    r.kmalloc_outstanding_b =
        static_cast<std::int64_t>(k_->kmalloc().stats().outstanding_bytes);
    return r;
  }

  std::uint64_t sequence_hash() const override { return seq_hash_; }
  std::vector<const Tracer*> tracers() const override { return {&tr_}; }

 private:
  [[noreturn]] static void fail(const char* what) {
    std::fprintf(stderr, "perfbench: spool set-up failed: %s\n", what);
    std::exit(1);
  }

  static std::string name(std::uint64_t seq) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "/spool/m%08llx",
                  static_cast<unsigned long long>(seq));
    return buf;
  }
  std::uint32_t size_of(std::uint64_t seq) const { return size_[seq % kTxnsPerRound]; }
  void content(std::uint64_t seq, std::vector<std::byte>& out) const {
    out.resize(size_of(seq));
    fill_pattern(seed_ * 0x9E3779B97F4A7C15ull + seq, out);
  }

  /// create, write, [fsync,] close.
  bool deliver(std::uint64_t seq, bool durable) {
    content(seq, msg_);
    const std::string path = name(seq);
    const int fd = tr_.call(Call::kOpen, [&] {
      return app_->open(path.c_str(),
                        usk::fs::kOWrOnly | usk::fs::kOCreat | usk::fs::kOTrunc);
    });
    if (fd < 0) return false;
    bool ok = tr_.call(Call::kWrite, [&] {
                return app_->write(fd, msg_.data(), msg_.size());
              }) == static_cast<SysRet>(msg_.size());
    if (durable) {
      ok = tr_.call(Call::kFsync, [&] { return app_->fsync(fd); }) == 0 && ok;
    }
    return tr_.call(Call::kClose, [&] { return app_->close(fd); }) == 0 && ok;
  }

  /// open, read, close, compare with the message's pattern.
  bool read_back(std::uint64_t seq) {
    content(seq, msg_);
    const std::string path = name(seq);
    const int fd = tr_.call(Call::kOpen, [&] {
      return app_->open(path.c_str(), usk::fs::kORdOnly);
    });
    if (fd < 0) return false;
    const SysRet n = tr_.call(Call::kRead, [&] {
      return app_->read(fd, rbuf_.data(), rbuf_.size());
    });
    const bool ok = n == static_cast<SysRet>(msg_.size()) &&
                    std::memcmp(rbuf_.data(), msg_.data(), msg_.size()) == 0;
    return tr_.call(Call::kClose, [&] { return app_->close(fd); }) == 0 && ok;
  }

  /// readdirplus listing: every live message, with its size.
  bool list() {
    std::uint64_t cookie = 0;
    std::size_t found = 0;
    bool ok = true;
    for (;;) {
      const SysRet n = tr_.call(Call::kReaddirplus, [&] {
        return usk::consolidation::sys_readdirplus(
            *k_, app_->process(), "/spool", dirbuf_.data(), dirbuf_.size(), &cookie);
      });
      if (n < 0) return false;
      if (n == 0) break;
      std::vector<std::pair<usk::uk::UserDirent, usk::fs::StatBuf>> ents;
      usk::uk::decode_dirents_plus(
          std::span<const std::byte>(dirbuf_.data(), static_cast<std::size_t>(n)),
          &ents);
      tr_.add_units(Call::kReaddirplus, ents.size());
      for (const auto& [de, sb] : ents) {
        if (de.type != usk::fs::FileType::kRegular) continue;
        const unsigned long long seq = std::strtoull(de.name.c_str() + 1, nullptr, 16);
        ok = ok && seq >= oldest_ && seq < next_ && sb.size == size_of(seq);
        ++found;
      }
    }
    return ok && found == next_ - oldest_;
  }

  void txn(Phase& ph) {
    const std::uint64_t seq = next_;
    const std::size_t j = (seq - kWindow) % kTxnsPerRound;
    const std::size_t i = seq % kBlock;
    const std::uint64_t earlier = seq - i - kBlock + pick_[j / kBlock][i];
    const std::uint64_t t0 = now_ns();
    tr_.begin_op(seq, 1);
    bool ok = deliver(seq, true);
    ++next_;
    ok = read_back(earlier) && ok;
    if (j % kExpungeEvery == kExpungeEvery - 1) {
      ok = list() && ok;
      for (std::size_t n = 0; n < kExpungeEvery; ++n, ++oldest_) {
        const std::string path = name(oldest_);
        ok = tr_.call(Call::kUnlink, [&] { return app_->unlink(path.c_str()); }) == 0 && ok;
      }
    }
    tr_.end_op();
    ph.latency_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(now_ns() - t0, UINT32_MAX)));
    ++ph.attempted;
    if (!ok) ++ph.failed;
  }

  std::uint64_t seed_;
  int memfd_;
  std::array<std::uint32_t, kTxnsPerRound> size_{};
  std::array<std::array<std::uint8_t, kBlock>, kTxnsPerRound / kBlock> pick_{};
  std::uint64_t seq_hash_ = 0;
  usk::blockdev::Disk disk_{8192};
  usk::blockdev::BufferCache cache_{disk_, 3072};
  usk::store::Store store_;
  std::unique_ptr<JFs> jfs_;
  std::unique_ptr<usk::uk::Kernel> k_;
  std::unique_ptr<usk::uk::Proc> app_;
  std::uint64_t next_ = 0;    ///< sequence number of the next message
  std::uint64_t oldest_ = 0;  ///< oldest live message
  std::vector<std::byte> msg_;
  std::vector<std::byte> rbuf_ = std::vector<std::byte>(kReadBuf);
  std::vector<std::byte> dirbuf_ = std::vector<std::byte>(8192);
  Tracer tr_;
};

}  // namespace

std::unique_ptr<Workload> make_spool(std::uint64_t seed) {
  return std::make_unique<SpoolWorkload>(seed);
}

}  // namespace pb
