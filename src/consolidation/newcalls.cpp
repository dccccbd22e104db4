#include "consolidation/newcalls.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace usk::consolidation {

using uk::Kernel;
using uk::Process;

SysRet sys_readdirplus(Kernel& k, Process& p, const char* upath, void* ubuf,
                       std::size_t n, std::uint64_t* ucookie) {
  Kernel::Scope scope(k, p, uk::Sys::kReaddirPlus);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr || ucookie == nullptr) {
    return scope.fail(Errno::kEFAULT);
  }
  char kpath[Kernel::kMaxPath];
  std::int64_t len = k.get_user_path(p, upath, kpath);
  if (len < 0) return scope.done(len);

  std::uint64_t cookie = 0;
  if (Result<std::size_t> c =
          k.boundary().copy_from_user(p.task, &cookie, ucookie, sizeof(cookie));
      !c) {
    return scope.fail(c.error());
  }

  Result<fs::Vfs::Loc> dir = k.vfs().resolve_loc(
      std::string_view(kpath, static_cast<std::size_t>(len)));
  if (!dir) return scope.fail(dir.error());

  n = std::min(n, Kernel::kMaxIo);
  std::size_t max_entries =
      std::max<std::size_t>(1, n / sizeof(uk::DirentPlusHdr));
  Result<std::vector<fs::DirEntry>> win =
      k.vfs().readdir_window_at(dir.value(), cookie, max_entries);
  if (!win) return scope.fail(win.error());

  std::vector<std::byte> kbuf(n);
  std::size_t off = 0;
  std::uint64_t taken = 0;
  for (const fs::DirEntry& de : win.value()) {
    std::size_t rec = sizeof(uk::DirentPlusHdr) + de.name.size();
    if (off + rec > n) break;
    uk::DirentPlusHdr hdr{};
    // In-kernel stat: no extra crossing, no path re-walk (we already hold
    // the inode number).
    Errno e = k.vfs().getattr_at(
        fs::Vfs::Loc{dir.value().fs, de.ino, dir.value().fs_id}, &hdr.st);
    if (e != Errno::kOk) continue;  // raced with unlink; skip
    hdr.namelen = static_cast<std::uint8_t>(de.name.size());
    std::memcpy(kbuf.data() + off, &hdr, sizeof(hdr));
    std::memcpy(kbuf.data() + off + sizeof(hdr), de.name.data(),
                de.name.size());
    off += rec;
    ++taken;
  }
  // Entries first, cookie second: if either copy-out faults the cookie in
  // user memory still matches what the user actually received.
  if (off > 0) {
    if (Result<std::size_t> c =
            k.boundary().copy_to_user(p.task, ubuf, kbuf.data(), off);
        !c) {
      return scope.fail(c.error());
    }
  }
  cookie += taken;
  if (Result<std::size_t> c =
          k.boundary().copy_to_user(p.task, ucookie, &cookie, sizeof(cookie));
      !c) {
    return scope.fail(c.error());
  }
  return scope.done(static_cast<SysRet>(off));
}

SysRet sys_open_read_close(Kernel& k, Process& p, const char* upath,
                           void* ubuf, std::size_t n, std::uint64_t offset) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenReadClose);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr) return scope.fail(Errno::kEFAULT);
  char kpath[Kernel::kMaxPath];
  std::int64_t len = k.get_user_path(p, upath, kpath);
  if (len < 0) return scope.done(len);

  Result<int> fd =
      k.vfs().open(p.fds, std::string_view(kpath, static_cast<std::size_t>(len)),
                   fs::kORdOnly, 0);
  if (!fd) return scope.fail(fd.error());

  n = std::min(n, Kernel::kMaxIo);
  std::vector<std::byte> kbuf(n);
  Result<std::uint64_t> pos = k.vfs().lseek(p.fds, fd.value(),
                                            static_cast<std::int64_t>(offset),
                                            fs::kSeekSet);
  if (!pos) {
    k.vfs().close(p.fds, fd.value());
    return scope.fail(pos.error());
  }
  Result<std::size_t> r = k.vfs().read(p.fds, fd.value(),
                                       std::span(kbuf.data(), n));
  k.vfs().close(p.fds, fd.value());
  if (!r) return scope.fail(r.error());
  if (r.value() > 0) {
    if (Result<std::size_t> c =
            k.boundary().copy_to_user(p.task, ubuf, kbuf.data(), r.value());
        !c) {
      return scope.fail(c.error());
    }
  }
  return scope.done(static_cast<SysRet>(r.value()));
}

SysRet sys_open_write_close(Kernel& k, Process& p, const char* upath,
                            const void* ubuf, std::size_t n,
                            std::uint64_t offset, int flags) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenWriteClose);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ubuf == nullptr) return scope.fail(Errno::kEFAULT);
  char kpath[Kernel::kMaxPath];
  std::int64_t len = k.get_user_path(p, upath, kpath);
  if (len < 0) return scope.done(len);

  int open_flags = fs::kOWrOnly | (flags & (fs::kOCreat | fs::kOTrunc |
                                            fs::kOAppend));
  Result<int> fd =
      k.vfs().open(p.fds, std::string_view(kpath, static_cast<std::size_t>(len)),
                   open_flags, 0644);
  if (!fd) return scope.fail(fd.error());

  n = std::min(n, Kernel::kMaxIo);
  std::vector<std::byte> kbuf(n);
  if (Result<std::size_t> c =
          k.boundary().copy_from_user(p.task, kbuf.data(), ubuf, n);
      !c) {
    k.vfs().close(p.fds, fd.value());
    return scope.fail(c.error());
  }
  if ((flags & fs::kOAppend) == 0) {
    Result<std::uint64_t> pos = k.vfs().lseek(
        p.fds, fd.value(), static_cast<std::int64_t>(offset), fs::kSeekSet);
    if (!pos) {
      k.vfs().close(p.fds, fd.value());
      return scope.fail(pos.error());
    }
  }
  Result<std::size_t> r = k.vfs().write(p.fds, fd.value(),
                                        std::span(kbuf.data(), n));
  k.vfs().close(p.fds, fd.value());
  if (!r) return scope.fail(r.error());
  return scope.done(static_cast<SysRet>(r.value()));
}

SysRet sys_open_fstat(Kernel& k, Process& p, const char* upath,
                      fs::StatBuf* ust) {
  Kernel::Scope scope(k, p, uk::Sys::kOpenFstat);
  if (SysRet g = scope.gate(); g != 0) return g;
  if (ust == nullptr) return scope.fail(Errno::kEFAULT);
  char kpath[Kernel::kMaxPath];
  std::int64_t len = k.get_user_path(p, upath, kpath);
  if (len < 0) return scope.done(len);

  Result<int> fd =
      k.vfs().open(p.fds, std::string_view(kpath, static_cast<std::size_t>(len)),
                   fs::kORdOnly, 0);
  if (!fd) return scope.fail(fd.error());
  fs::StatBuf st;
  Errno e = k.vfs().fstat(p.fds, fd.value(), &st);
  k.vfs().close(p.fds, fd.value());
  if (e != Errno::kOk) return scope.fail(e);
  if (Result<std::size_t> c =
          k.boundary().copy_to_user(p.task, ust, &st, sizeof(st));
      !c) {
    return scope.fail(c.error());
  }
  return scope.done(0);
}

}  // namespace usk::consolidation
