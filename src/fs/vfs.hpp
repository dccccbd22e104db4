// VFS: path resolution (via the dcache), mount points, open-file table,
// and the kernel-side implementations the system calls dispatch to.
//
// Multiple filesystems compose into one namespace: `mount()` grafts a
// filesystem onto an existing directory, path walking switches filesystem
// at mount points, and cross-mount renames/links fail with EXDEV, as in
// POSIX. All buffers at this layer are kernel buffers; the user/kernel
// boundary (src/uk) performs the copy_{to,from}_user on either side.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/percpu.hpp"
#include "fs/dcache.hpp"
#include "fs/filesystem.hpp"

namespace usk::fs {

struct OpenFile {
  InodeNum ino = kInvalidInode;
  std::uint64_t pos = 0;
  int flags = 0;
  FileSystem* fsp = nullptr;  ///< owning filesystem (nullptr = root fs)
  std::uint32_t fs_id = 0;
};

/// Per-process file-descriptor table.
class FdTable {
 public:
  explicit FdTable(std::size_t max_fds = 1024) : max_fds_(max_fds) {}

  Result<int> install(const OpenFile& f);
  OpenFile* get(int fd);
  Result<void> release(int fd);
  [[nodiscard]] std::size_t open_count() const;

 private:
  std::size_t max_fds_;
  std::vector<std::optional<OpenFile>> files_;
};

/// The VFS is stateless per call apart from its counters (path walks read
/// the dcache and mount table), and those are per-CPU, so concurrent
/// dispatchers share one Vfs without sharing a written line. The mount
/// table stays a plain map -- mounts are set up before worker threads
/// start, like most real-world mount activity.
struct VfsStats {
  std::uint64_t opens = 0;
  std::uint64_t closes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stats = 0;
  std::uint64_t path_components = 0;
  std::uint64_t mount_crossings = 0;
};

class Vfs {
 public:
  explicit Vfs(FileSystem& rootfs, std::size_t dcache_capacity = 8192,
               std::size_t dcache_shards = Dcache::kDefaultShards)
      : fs_(rootfs), dcache_(dcache_capacity, dcache_shards) {}

  /// A position in the (possibly multi-filesystem) namespace.
  struct Loc {
    FileSystem* fs = nullptr;
    InodeNum ino = kInvalidInode;
    std::uint32_t fs_id = 0;
  };

  // --- mounts ------------------------------------------------------------------
  /// Graft `fs` onto the existing directory at `dir_path`.
  Result<void> mount(std::string_view dir_path, FileSystem& fs);
  Result<void> unmount(std::string_view dir_path);
  [[nodiscard]] std::size_t mount_count() const { return mounts_.size(); }

  // --- path resolution -----------------------------------------------------
  /// Resolve an absolute path (every component must exist).
  Result<Loc> resolve_loc(std::string_view path);
  /// Resolve the parent directory of `path`; returns (dir loc, leaf name).
  Result<std::pair<Loc, std::string>> resolve_parent(std::string_view path);
  /// Root-filesystem-inode shorthand kept for single-fs callers.
  Result<InodeNum> resolve(std::string_view path);

  // --- file operations (kernel buffers) -------------------------------------
  Result<int> open(FdTable& fds, std::string_view path, int flags,
                   std::uint32_t mode);
  Result<void> close(FdTable& fds, int fd);
  /// Duplicate `fd` into the lowest free slot (dup(2)-style; the copy has
  /// its own file position). The owning filesystem sees dup_file so
  /// fd-refcounted objects (sockets) survive sharing.
  Result<int> dup(FdTable& fds, int fd);
  Result<std::size_t> read(FdTable& fds, int fd, std::span<std::byte> out);
  Result<std::size_t> write(FdTable& fds, int fd,
                            std::span<const std::byte> in);
  Result<std::uint64_t> lseek(FdTable& fds, int fd, std::int64_t off,
                              int whence);
  Result<void> fstat(FdTable& fds, int fd, StatBuf* st);
  /// fsync(2)/fdatasync(2) on an open fd. EBADF is decided before any
  /// filesystem work (the gateway's EBADF-before-work ordering).
  Result<void> fsync(FdTable& fds, int fd, bool datasync);
  Result<void> stat(std::string_view path, StatBuf* st);
  /// Windowed listing for getdents-style resumable reads.
  Result<std::vector<DirEntry>> readdir_window(FdTable& fds, int fd,
                                               std::size_t start,
                                               std::size_t max_entries);
  /// Windowed listing by location (readdirplus's in-kernel path).
  Result<std::vector<DirEntry>> readdir_window_at(const Loc& dir,
                                                  std::size_t start,
                                                  std::size_t max_entries);
  Result<void> getattr_at(const Loc& loc, StatBuf* st);

  // --- namespace operations ---------------------------------------------------
  Result<void> mkdir(std::string_view path, std::uint32_t mode);
  Result<void> rmdir(std::string_view path);
  Result<void> unlink(std::string_view path);
  /// Hard link `to` -> the file at `from` (same filesystem only: EXDEV).
  Result<void> link(std::string_view from, std::string_view to);
  Result<void> chmod(std::string_view path, std::uint32_t mode);
  /// Rename within one filesystem (cross-mount renames return EXDEV).
  Result<void> rename(std::string_view from, std::string_view to);
  Result<void> truncate(std::string_view path, std::uint64_t size);

  [[nodiscard]] FileSystem& filesystem() { return fs_; }
  [[nodiscard]] Dcache& dcache() { return dcache_; }
  /// Every CPU's counters, merged (live-readable; see base::CpuCounter).
  [[nodiscard]] VfsStats stats() const;

 private:
  struct MountEntry {
    FileSystem* fs;
    std::uint32_t fs_id;
  };

  [[nodiscard]] Loc root_loc() { return Loc{&fs_, fs_.root(), 0}; }

  /// One component step within the current filesystem, then a mount-point
  /// redirect if the result is covered.
  Result<Loc> step(const Loc& dir, std::string_view name);

  FileSystem& fs_;
  Dcache dcache_;
  // (fs_id, covered inode) -> mounted filesystem.
  std::map<std::pair<std::uint32_t, InodeNum>, MountEntry> mounts_;
  std::uint32_t next_fs_id_ = 1;

  struct CpuStats {
    base::CpuCounter opens;
    base::CpuCounter closes;
    base::CpuCounter reads;
    base::CpuCounter writes;
    base::CpuCounter stats;
    base::CpuCounter path_components;
    base::CpuCounter mount_crossings;
  };
  base::PerCpu<CpuStats> vstats_;
};

}  // namespace usk::fs
