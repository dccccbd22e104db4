// MemFs: the ext2-like base filesystem.
//
// An in-memory filesystem with inode table, hierarchical directories, and
// per-operation work costs (metadata ops and per-byte data movement charge
// a cost hook) so higher layers measure realistic relative costs: a file
// read costs more than a getattr, a create costs more than a lookup.
// SMP: an inode-table rwlock makes MemFs safe under parallel dispatch.
// The read-mostly metadata path (lookup/getattr/read) takes the lock
// shared -- timestamps it still touches are accessed through atomic_ref --
// and namespace mutations take it exclusive. The lock is a per-CPU
// big-reader lock (base::PerCpuRwLock), so concurrent readers write no
// shared line; counters are per-CPU too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/percpu.hpp"
#include "blockdev/buffer_cache.hpp"
#include "fs/filesystem.hpp"

namespace usk::fs {

/// Work-unit prices for filesystem operations. These approximate the
/// relative costs of in-memory metadata vs. data paths in a 2.6 kernel.
struct FsCosts {
  std::uint64_t lookup = 150;
  std::uint64_t create = 500;
  std::uint64_t remove = 400;
  std::uint64_t rename = 600;
  std::uint64_t getattr = 450;  ///< inode-table access dominates a stat
  std::uint64_t readdir_base = 60;
  std::uint64_t readdir_per_entry = 6;
  std::uint64_t data_per_kib = 30;
  std::uint64_t truncate = 150;
};

struct MemFsStats {
  std::uint64_t lookups = 0;
  std::uint64_t creates = 0;
  std::uint64_t removes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t getattrs = 0;
  std::uint64_t readdirs = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class MemFs final : public FileSystem {
 public:
  MemFs();

  /// Charge hook: invoked with work units for every operation. The kernel
  /// wires this to its WorkEngine + current task's kernel-time account.
  void set_cost_hook(std::function<void(std::uint64_t)> hook) {
    charge_ = std::move(hook);
  }
  void set_costs(const FsCosts& c) { costs_ = c; }

  /// Attach a buffer cache over a simulated disk: file data reads/writes
  /// then touch on-disk blocks through the cache, with a simple extent
  /// layout (each inode gets a contiguous strip, so sequential file access
  /// is sequential on disk). nullptr detaches (pure in-memory behaviour).
  void set_io_model(blockdev::BufferCache* cache) { io_ = cache; }

  [[nodiscard]] InodeNum root() const override { return kRootIno; }
  [[nodiscard]] const char* fstype() const override { return "memfs"; }

  Result<InodeNum> lookup(InodeNum dir, std::string_view name) override;
  Result<InodeNum> create(InodeNum dir, std::string_view name, FileType type,
                          std::uint32_t mode) override;
  Result<void> unlink(InodeNum dir, std::string_view name) override;
  Result<void> link(InodeNum dir, std::string_view name, InodeNum target) override;
  Result<void> chmod(InodeNum ino, std::uint32_t mode) override;
  Result<void> rmdir(InodeNum dir, std::string_view name) override;
  Result<void> rename(InodeNum src_dir, std::string_view src_name, InodeNum dst_dir,
               std::string_view dst_name) override;
  Result<std::size_t> read(InodeNum ino, std::uint64_t offset,
                           std::span<std::byte> out) override;
  Result<std::size_t> write(InodeNum ino, std::uint64_t offset,
                            std::span<const std::byte> in) override;
  Result<void> truncate(InodeNum ino, std::uint64_t size) override;
  Result<void> getattr(InodeNum ino, StatBuf* st) override;
  Result<std::vector<DirEntry>> readdir(InodeNum dir) override;
  Result<std::vector<DirEntry>> readdir_window(
      InodeNum dir, std::size_t start, std::size_t max_entries) override;

  /// Every CPU's counters, merged (live-readable; see base::CpuCounter).
  [[nodiscard]] MemFsStats stats() const;

 private:
  static constexpr InodeNum kRootIno = 1;
  static constexpr std::size_t kMaxName = 255;

  struct Inode {
    FileType type = FileType::kRegular;
    std::uint32_t mode = 0644;
    std::uint32_t nlink = 1;
    std::uint64_t atime = 0;
    std::uint64_t mtime = 0;
    std::uint64_t ctime = 0;
    std::uint64_t dir_gen = 0;  ///< bumped on every namespace mutation
    std::vector<std::byte> data;                 // regular files
    std::map<std::string, InodeNum, std::less<>> children;  // directories
  };

  /// Per-directory listing snapshot so getdents-style windows resume in
  /// O(window) instead of O(position) (like a real fs's readdir cursor).
  struct DirCache {
    std::uint64_t gen = ~0ull;
    std::vector<DirEntry> entries;
  };

  /// MemFsStats, one slot per CPU: an op bumps its own CPU's words only.
  struct CpuStats {
    base::CpuCounter lookups;
    base::CpuCounter creates;
    base::CpuCounter removes;
    base::CpuCounter reads;
    base::CpuCounter writes;
    base::CpuCounter getattrs;
    base::CpuCounter readdirs;
    base::CpuCounter bytes_read;
    base::CpuCounter bytes_written;
  };

  void charge(std::uint64_t units) {
    if (charge_) charge_(units);
  }
  /// The logical clock: every mutation (under the exclusive lock) ticks
  /// it; a read stamps atime with its current value and does not tick it.
  std::uint64_t now() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  Inode* get(InodeNum ino);
  Result<Inode*> get_dir(InodeNum ino);
  Result<std::size_t> read_locked(InodeNum ino, std::uint64_t offset,
                                  std::span<std::byte> out);

  const std::vector<DirEntry>& dir_snapshot(InodeNum ino, Inode& dir);

  /// Touch the disk blocks backing [offset, offset+len) of `ino`.
  /// kEIO when the io model's disk access fails (kfail injection).
  Result<void> touch_blocks(InodeNum ino, std::uint64_t offset,
                            std::size_t len, bool write);

  // rw_ guards inodes_, dir_cache_, next_ino_, extent_, and the io model;
  // see the SMP note at the top of this header.
  base::PerCpuRwLock rw_;
  std::unordered_map<InodeNum, Inode> inodes_;
  std::unordered_map<InodeNum, DirCache> dir_cache_;
  InodeNum next_ino_ = 2;
  std::atomic<std::uint64_t> clock_{0};
  FsCosts costs_;
  base::PerCpu<CpuStats> stats_;
  std::function<void(std::uint64_t)> charge_;
  blockdev::BufferCache* io_ = nullptr;
  std::unordered_map<InodeNum, blockdev::Lba> extent_;
  blockdev::Lba next_extent_ = 64;  // leave room for "metadata" blocks
};

}  // namespace usk::fs
