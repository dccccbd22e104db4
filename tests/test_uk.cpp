// Tests for the user/kernel boundary, the syscall layer, auditing, and the
// user-side library (Proc + dirent decoding).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>

#include "uk/kernel.hpp"
#include "uk/userlib.hpp"

namespace usk::uk {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_(fs_), proc_(kernel_, "test-proc") {
    fs_.set_cost_hook(kernel_.charge_hook());
  }

  fs::MemFs fs_;
  Kernel kernel_;
  Proc proc_;
};

TEST_F(KernelTest, BoundaryCrossingsCounted) {
  std::uint64_t before = kernel_.boundary().stats().crossings;
  proc_.getpid();
  proc_.getpid();
  EXPECT_EQ(kernel_.boundary().stats().crossings, before + 2);
}

TEST_F(KernelTest, CrossingChargesKernelTime) {
  std::uint64_t before = proc_.task().times().kernel;
  proc_.getpid();
  EXPECT_GT(proc_.task().times().kernel, before);
  EXPECT_FALSE(proc_.task().in_kernel());  // exited cleanly
}

TEST_F(KernelTest, OpenWriteReadCloseThroughSyscalls) {
  int fd = proc_.open("/f.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  const char msg[] = "syscall data";
  EXPECT_EQ(proc_.write(fd, msg, sizeof(msg)),
            static_cast<SysRet>(sizeof(msg)));
  EXPECT_EQ(proc_.close(fd), 0);

  int rfd = proc_.open("/f.txt", fs::kORdOnly);
  ASSERT_GE(rfd, 0);
  char buf[64] = {};
  EXPECT_EQ(proc_.read(rfd, buf, sizeof(buf)),
            static_cast<SysRet>(sizeof(msg)));
  EXPECT_STREQ(buf, msg);
  proc_.close(rfd);
}

TEST_F(KernelTest, CopyBytesAccounted) {
  int fd = proc_.open("/c.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  std::uint64_t from_before = kernel_.boundary().stats().bytes_from_user;
  char block[1000];
  std::memset(block, 'x', sizeof(block));
  proc_.write(fd, block, sizeof(block));
  // Path was already copied at open; this write copies exactly 1000 bytes.
  EXPECT_EQ(kernel_.boundary().stats().bytes_from_user, from_before + 1000);
  proc_.close(fd);

  int rfd = proc_.open("/c.txt", fs::kORdOnly);
  std::uint64_t to_before = kernel_.boundary().stats().bytes_to_user;
  proc_.read(rfd, block, sizeof(block));
  EXPECT_EQ(kernel_.boundary().stats().bytes_to_user, to_before + 1000);
  proc_.close(rfd);
}

TEST_F(KernelTest, WriteBadFdFailsBeforeCopyIn) {
  // EBADF on write must be reported before the copy-in is charged:
  // the caller pays nothing for bytes the kernel never accepted.
  char block[512];
  std::memset(block, 'x', sizeof(block));
  std::uint64_t from_before = kernel_.boundary().stats().bytes_from_user;
  EXPECT_EQ(proc_.write(42, block, sizeof(block)), sysret_err(Errno::kEBADF));
  EXPECT_EQ(kernel_.boundary().stats().bytes_from_user, from_before);

  // Same for a descriptor that exists but was opened read-only.
  int fd = proc_.open("/ro.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  proc_.close(fd);
  fd = proc_.open("/ro.txt", fs::kORdOnly);
  ASSERT_GE(fd, 0);
  from_before = kernel_.boundary().stats().bytes_from_user;
  EXPECT_EQ(proc_.write(fd, block, sizeof(block)), sysret_err(Errno::kEBADF));
  EXPECT_EQ(kernel_.boundary().stats().bytes_from_user, from_before);
  proc_.close(fd);
}

/// Delegating filesystem that counts sync/fsync arrivals -- the
/// observation point for EBADF-before-work on the fsync syscalls.
class FsyncCountingFs final : public fs::FileSystem {
 public:
  [[nodiscard]] fs::InodeNum root() const override { return inner_.root(); }
  [[nodiscard]] const char* fstype() const override { return "countfs"; }
  Result<fs::InodeNum> lookup(fs::InodeNum d, std::string_view n) override {
    return inner_.lookup(d, n);
  }
  Result<fs::InodeNum> create(fs::InodeNum d, std::string_view n,
                              fs::FileType t, std::uint32_t m) override {
    return inner_.create(d, n, t, m);
  }
  Result<void> unlink(fs::InodeNum d, std::string_view n) override {
    return inner_.unlink(d, n);
  }
  Result<void> rmdir(fs::InodeNum d, std::string_view n) override {
    return inner_.rmdir(d, n);
  }
  Result<void> rename(fs::InodeNum sd, std::string_view sn, fs::InodeNum dd,
                      std::string_view dn) override {
    return inner_.rename(sd, sn, dd, dn);
  }
  Result<std::size_t> read(fs::InodeNum i, std::uint64_t off,
                           std::span<std::byte> out) override {
    return inner_.read(i, off, out);
  }
  Result<std::size_t> write(fs::InodeNum i, std::uint64_t off,
                            std::span<const std::byte> in) override {
    return inner_.write(i, off, in);
  }
  Result<void> truncate(fs::InodeNum i, std::uint64_t s) override {
    return inner_.truncate(i, s);
  }
  Result<void> getattr(fs::InodeNum i, fs::StatBuf* st) override {
    return inner_.getattr(i, st);
  }
  Result<std::vector<fs::DirEntry>> readdir(fs::InodeNum d) override {
    return inner_.readdir(d);
  }
  Result<void> sync() override {
    ++syncs;
    return inner_.sync();
  }
  Result<void> fsync(fs::InodeNum ino, bool datasync) override {
    ++fsyncs;
    last_datasync = datasync;
    return inner_.fsync(ino, datasync);
  }

  int syncs = 0;
  int fsyncs = 0;
  bool last_datasync = false;

 private:
  fs::MemFs inner_;
};

TEST(FsyncSyscallTest, BadFdFailsBeforeAnyFilesystemWork) {
  FsyncCountingFs cfs;
  Kernel kernel(cfs);
  Proc proc(kernel, "fsync-proc");

  // EBADF must be decided before the filesystem sees anything: no fsync,
  // and no degradation to a whole-filesystem sync either.
  EXPECT_EQ(proc.fsync(42), sysret_err(Errno::kEBADF));
  EXPECT_EQ(proc.fdatasync(-1), sysret_err(Errno::kEBADF));
  EXPECT_EQ(cfs.fsyncs, 0);
  EXPECT_EQ(cfs.syncs, 0);

  int fd = proc.open("/durable.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc.write(fd, "abc", 3), 3);
  EXPECT_EQ(proc.fsync(fd), 0);
  EXPECT_EQ(cfs.fsyncs, 1);
  EXPECT_FALSE(cfs.last_datasync);
  EXPECT_EQ(proc.fdatasync(fd), 0);
  EXPECT_EQ(cfs.fsyncs, 2);
  EXPECT_TRUE(cfs.last_datasync);
  proc.close(fd);

  // A closed descriptor is a bad descriptor again.
  EXPECT_EQ(proc.fsync(fd), sysret_err(Errno::kEBADF));
  EXPECT_EQ(cfs.fsyncs, 2);
}

TEST_F(KernelTest, DupCopiesDescriptor) {
  int fd = proc_.open("/d.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(proc_.write(fd, "abcdef", 6), 6);
  proc_.close(fd);

  fd = proc_.open("/d.txt", fs::kORdOnly);
  int d = proc_.dup(fd);
  ASSERT_GE(d, 0);
  EXPECT_NE(d, fd);
  char buf[8] = {};
  ASSERT_EQ(proc_.read(fd, buf, 3), 3);
  // The duplicate carries its own file position (dup takes a snapshot).
  ASSERT_EQ(proc_.read(d, buf, 6), 6);
  EXPECT_EQ(std::string(buf, 6), "abcdef");
  proc_.close(fd);
  ASSERT_EQ(proc_.read(d, buf, 3), 0);  // still open via the dup; at EOF
  proc_.close(d);
  EXPECT_EQ(proc_.dup(99), sysret_err(Errno::kEBADF));
}

TEST_F(KernelTest, ErrnoReturnedAsNegative) {
  EXPECT_EQ(proc_.open("/missing", fs::kORdOnly),
            -static_cast<int>(Errno::kENOENT));
  char b;
  EXPECT_EQ(proc_.read(42, &b, 1), sysret_err(Errno::kEBADF));
  EXPECT_EQ(proc_.unlink("/missing"), sysret_err(Errno::kENOENT));
}

TEST_F(KernelTest, StatCopiesStatBuf) {
  int fd = proc_.open("/s.txt", fs::kOWrOnly | fs::kOCreat);
  char data[123];
  std::memset(data, 1, sizeof(data));
  proc_.write(fd, data, sizeof(data));
  proc_.close(fd);
  fs::StatBuf st{};
  ASSERT_EQ(proc_.stat("/s.txt", &st), 0);
  EXPECT_EQ(st.size, 123u);
  fs::StatBuf st2{};
  int rfd = proc_.open("/s.txt", fs::kORdOnly);
  ASSERT_EQ(proc_.fstat(rfd, &st2), 0);
  EXPECT_EQ(st2.ino, st.ino);
  proc_.close(rfd);
}

TEST_F(KernelTest, ReaddirPacksEntries) {
  proc_.mkdir("/dir");
  for (int i = 0; i < 10; ++i) {
    std::string p = "/dir/file" + std::to_string(i);
    int fd = proc_.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
    proc_.close(fd);
  }
  auto entries = proc_.list_dir("/dir");
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(entries[0].name, "file0");
  EXPECT_EQ(entries[0].type, fs::FileType::kRegular);
}

TEST_F(KernelTest, ReaddirSmallBufferResumes) {
  proc_.mkdir("/many");
  for (int i = 0; i < 50; ++i) {
    std::string p = "/many/f" + std::to_string(i);
    int fd = proc_.open(p.c_str(), fs::kOWrOnly | fs::kOCreat);
    proc_.close(fd);
  }
  // A 64-byte buffer holds only ~4 entries per call; resumption must
  // still return all 50 exactly once.
  auto entries = proc_.list_dir("/many", 64);
  EXPECT_EQ(entries.size(), 50u);
  std::set<std::string> names;
  for (auto& e : entries) names.insert(e.name);
  EXPECT_EQ(names.size(), 50u);
}

TEST_F(KernelTest, RenameAndTruncate) {
  int fd = proc_.open("/a", fs::kOWrOnly | fs::kOCreat);
  char d[10] = {};
  proc_.write(fd, d, sizeof(d));
  proc_.close(fd);
  EXPECT_EQ(proc_.rename("/a", "/b"), 0);
  EXPECT_EQ(proc_.truncate("/b", 3), 0);
  fs::StatBuf st;
  ASSERT_EQ(proc_.stat("/b", &st), 0);
  EXPECT_EQ(st.size, 3u);
}

TEST_F(KernelTest, LinkAndChmodSyscalls) {
  int fd = proc_.open("/orig", fs::kOWrOnly | fs::kOCreat);
  char d[5] = {1, 2, 3, 4, 5};
  proc_.write(fd, d, sizeof(d));
  proc_.close(fd);

  EXPECT_EQ(proc_.link("/orig", "/alias"), 0);
  fs::StatBuf a{}, b{};
  ASSERT_EQ(proc_.stat("/orig", &a), 0);
  ASSERT_EQ(proc_.stat("/alias", &b), 0);
  EXPECT_EQ(a.ino, b.ino);
  EXPECT_EQ(a.nlink, 2u);

  EXPECT_EQ(proc_.chmod("/alias", 0755), 0);
  ASSERT_EQ(proc_.stat("/orig", &a), 0);
  EXPECT_EQ(a.mode, 0755u);

  EXPECT_EQ(proc_.link("/missing", "/x"), sysret_err(Errno::kENOENT));
  EXPECT_EQ(proc_.chmod("/missing", 0600), sysret_err(Errno::kENOENT));
  EXPECT_EQ(proc_.link("/orig", "/alias"), sysret_err(Errno::kEEXIST));
}

TEST_F(KernelTest, AuditRecordsSyscalls) {
  kernel_.audit().enable();
  kernel_.audit().clear();
  int fd = proc_.open("/audited", fs::kOWrOnly | fs::kOCreat);
  char b = 'x';
  proc_.write(fd, &b, 1);
  proc_.close(fd);
  kernel_.audit().disable();

  const auto& recs = kernel_.audit().records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].nr, Sys::kOpen);
  EXPECT_EQ(recs[1].nr, Sys::kWrite);
  EXPECT_EQ(recs[2].nr, Sys::kClose);
  EXPECT_GT(recs[0].bytes_in, 0u);  // the path
  EXPECT_EQ(recs[1].bytes_in, 1u);  // the byte written
  EXPECT_EQ(recs[0].pid, proc_.task().pid());
}

TEST_F(KernelTest, AuditDisabledRecordsNothing) {
  kernel_.audit().clear();
  proc_.getpid();
  EXPECT_TRUE(kernel_.audit().records().empty());
}

TEST_F(KernelTest, NullPointersFault) {
  EXPECT_EQ(proc_.open(nullptr, fs::kORdOnly),
            -static_cast<int>(Errno::kEFAULT));
  int fd = proc_.open("/n", fs::kOWrOnly | fs::kOCreat);
  EXPECT_EQ(proc_.write(fd, nullptr, 4), sysret_err(Errno::kEFAULT));
  // read() on a write-only descriptor is EBADF even with a bad buffer:
  // descriptor validity is decided before the user pointer is examined.
  EXPECT_EQ(proc_.read(fd, nullptr, 4), sysret_err(Errno::kEBADF));
  proc_.close(fd);
}

TEST_F(KernelTest, SyscallCountPerTask) {
  std::uint64_t before = proc_.task().syscalls;
  proc_.getpid();
  proc_.getpid();
  proc_.getpid();
  EXPECT_EQ(proc_.task().syscalls, before + 3);
}

TEST_F(KernelTest, TwoProcessesIsolatedFds) {
  Proc other(kernel_, "other");
  int fd = proc_.open("/shared", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  // The same numeric fd is invalid in the other process.
  char b;
  EXPECT_EQ(other.read(fd, &b, 1), sysret_err(Errno::kEBADF));
  proc_.close(fd);
  EXPECT_NE(proc_.getpid(), other.getpid());
}

TEST_F(KernelTest, DecodeDirentsHandlesTruncatedBuffer) {
  std::vector<std::byte> garbage(5, std::byte{0xFF});
  std::vector<UserDirent> out;
  EXPECT_EQ(decode_dirents(garbage, &out), 0u);
  EXPECT_TRUE(out.empty());
}

/// Resident set size of this process in bytes, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// The simulated RAM is demand-zero: a boot maps only the frames the
// kernel actually allocates, not the whole 256 MiB pool.
TEST(KernelBootTest, SimulatedRamIsDemandZero) {
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  fs::MemFs rootfs;
  Kernel kernel(rootfs);
  Proc proc(kernel, "boot");
  const int fd = proc.open("/boot.txt", fs::kOWrOnly | fs::kOCreat);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(proc.write(fd, "up", 2), 2);
  EXPECT_EQ(proc.close(fd), 0);
  const std::size_t after = resident_bytes();
  EXPECT_EQ(kernel.phys().frame_count() * vm::kPageSize, 256u << 20);
  EXPECT_LT(after - std::min(after, before), 64u << 20)
      << "RSS " << (before >> 20) << " -> " << (after >> 20) << " MiB";
}

TEST(BoundaryTest, CopiesAreReal) {
  base::WorkEngine engine;
  Boundary b(engine);
  sched::Task t(1, "t");
  char src[32] = "boundary";
  char dst[32] = {};
  t.enter_kernel();
  Result<std::size_t> c = b.copy_from_user(t, dst, src, sizeof(src));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), sizeof(src));
  EXPECT_STREQ(dst, "boundary");
  EXPECT_EQ(b.stats().bytes_from_user, sizeof(src));
  t.exit_kernel();
}

TEST(BoundaryTest, StrncpyRejectsOverlong) {
  base::WorkEngine engine;
  Boundary b(engine);
  sched::Task t(1, "t");
  char big[32];
  std::memset(big, 'a', sizeof(big));  // no NUL
  char out[16];
  Result<std::size_t> r = b.strncpy_from_user(t, out, big, 16);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Errno::kENAMETOOLONG);
}

TEST(BoundaryTest, CrossingCostIsTunable) {
  base::WorkEngine engine;
  CostModel cheap;
  cheap.crossing_alu = 10;
  cheap.crossing_cache = 0;
  CostModel pricey;
  pricey.crossing_alu = 100000;
  pricey.crossing_cache = 0;
  Boundary cheap_b(engine, cheap);
  Boundary pricey_b(engine, pricey);
  sched::Task t1(1, "a"), t2(2, "b");

  cheap_b.enter_kernel(t1);
  cheap_b.exit_kernel(t1);
  pricey_b.enter_kernel(t2);
  pricey_b.exit_kernel(t2);
  EXPECT_GT(t2.times().kernel, t1.times().kernel * 100);
}

}  // namespace
}  // namespace usk::uk
