#include "cosy/exec.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "base/klog.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "trace/span.hpp"
#include "trace/tracepoint.hpp"

namespace usk::cosy {

namespace {
constexpr std::uint64_t kMaxExecutedOps = 1 << 22;  // hard stop (defence in depth)
/// Per-op decode cost in work units ("the overhead to decode a compound
/// increases with the complexity of the language").
constexpr std::uint64_t kDecodeCost = 25;
}

CosyResult CosyExtension::execute(uk::Process& p, const Compound& c,
                                  SharedBuffer& shared) {
  CosyResult out;
  // Supervision: open an InvocationGuard BEFORE the syscall scope so the
  // supervisor's gateway hook (which fires in the scope epilogue) still
  // sees this thread bound to the extension. If the caller already opened
  // a guard for this extension (a routed invocation or a re-admission
  // probe), reuse it instead of nesting a second accounting frame.
  std::optional<sup::InvocationGuard> own_guard;
  sup::InvocationGuard* guard = sup::InvocationGuard::current();
  if (sup_ == nullptr) {
    guard = nullptr;
  } else if (guard == nullptr || !guard->matches(*sup_, sup_id_)) {
    own_guard.emplace(*sup_, sup_id_, &p.task, sup::Route::kKernel,
                      &out.ret);
    guard = &*own_guard;
  }
  // Compound-entry span, declared BEFORE the syscall scope so the scope
  // epilogue attributes the kCosy crossing to it. Destruction order then
  // publishes the span after attribution lands.
  trace::SpanScope span("cosy.compound", trace::SpanVehicle::kCosy,
                        sup_ != nullptr ? sup_id_ : -1);
  span.watch_result(&out.ret);
  uk::Kernel::Scope scope(k_, p, uk::Sys::kCosy);
  if (SysRet g = scope.gate(); g != 0) {
    out.ret = g;
    return out;
  }
  USK_TRACE_LATENCY("cosy", "execute");
  USK_TRACEPOINT("cosy", "execute", c.ops.size());
  ++stats_.compounds;

  ValidationResult v = validate(c, shared.size());
  if (!v.ok) {
    ++stats_.validation_failures;
    base::klogf(base::LogLevel::kErr, "cosy: rejected compound at op %zu: %s",
                v.bad_op, v.reason.c_str());
    out.ret = scope.fail(Errno::kEINVAL);
    return out;
  }

  out.results.assign(c.ops.size(), 0);
  auto& vfs = k_.vfs();
  auto& engine = k_.engine();
  auto& sched = k_.scheduler();

  auto charge = [&](std::uint64_t units) {
    engine.alu(units);
    p.task.charge_kernel(units);
  };

  // Resolve an argument to an integer.
  auto val = [&](const Arg& a) -> std::int64_t {
    switch (a.kind) {
      case ArgKind::kImm:
        return a.a;
      case ArgKind::kLocal:
        return out.locals[a.a];
      case ArgKind::kResultOf:
        return out.results[static_cast<std::size_t>(a.a)];
      case ArgKind::kShared:
        return a.a;  // offsets are their own value
      case ArgKind::kStr:
      case ArgKind::kNone:
        return 0;
    }
    return 0;
  };
  auto sv = [&](const Arg& a) -> std::string_view {
    return std::string_view(c.strpool.data() + a.a,
                            static_cast<std::size_t>(a.b));
  };

  std::size_t pc = 0;
  std::uint64_t executed = 0;
  bool done = false;

  // Descriptors opened by THIS compound, for rollback if the compound is
  // aborted mid-stream (kfail, quota overrun, watchdog kill): a half-run
  // compound must not leak fds into the process (the caller never learned
  // their numbers, so nobody would close them).
  std::vector<int> opened_fds;
  auto rollback_fds = [&] {
    for (int ofd : opened_fds) {
      if (vfs.close(p.fds, ofd) == Errno::kOk) ++stats_.fds_rolled_back;
    }
  };
  auto fault_abort = [&](Errno e) {
    rollback_fds();
    ++stats_.fault_aborts;
    ++stats_.aborted;
    out.ret = scope.fail(e);
    return out;
  };
  // A quota overrun kills only the offending invocation: same rollback as
  // a fault abort, surfaced as EDQUOT and counted separately.
  auto quota_abort = [&] {
    rollback_fds();
    ++stats_.quota_aborts;
    ++stats_.aborted;
    out.ret = scope.fail(Errno::kEDQUOT);
    return out;
  };

  // Deterministic fuel exhaustion: the harness can void this compound's
  // fuel budget at entry -- before op 0, so no side effect has happened
  // and a fallback retry is always safe (bench_serve R2's supervised storm).
  if (auto f = USK_FAIL_POINT(fault::Site::kCosyFuel); f.fail) {
    if (guard != nullptr) guard->force_kind(sup::ViolationKind::kQuotaFuel);
    return quota_abort();
  } else if (f.transient) {
    charge(50);  // simulated budget-refill stall
  }

  while (!done) {
    if (executed++ > kMaxExecutedOps) {
      rollback_fds();
      out.ret = scope.fail(Errno::kETIME);
      ++stats_.aborted;
      return out;
    }
    // The injection point sits BETWEEN ops: a compound can die after any
    // prefix, which is exactly the partial-completion schedule the
    // rollback above must survive.
    if (auto f = USK_FAIL_POINT(fault::Site::kCosyOp); f.fail) {
      return fault_abort(f.err);
    }
    // kdl: deadline/cancel is checked at the same between-op boundary --
    // the abort reuses the fault path's fd rollback, so an expired
    // compound leaves nothing behind after any prefix either.
    if (dl::dl_enabled()) {
      if (Errno de = dl::check(&p.task); de != Errno::kOk) {
        dl::Kdl::instance().stats().cosy_aborts.fetch_add(
            1, std::memory_order_relaxed);
        return fault_abort(de);
      }
    }
    const std::size_t cur = pc;
    const OpRecord& rec = c.ops[cur];
    charge(kDecodeCost);
    ++stats_.ops_executed;
    ++out.ops_run;

    if (guard != nullptr) {
      // One fuel unit per decoded op; VM instructions add theirs below.
      if (!guard->charge_fuel(1)) return quota_abort();
      if (guard->over_unit_quota()) {
        guard->force_kind(sup::ViolationKind::kQuotaUnits);
        return quota_abort();
      }
    }

    SysRet r = 0;
    bool jumped = false;

    switch (rec.op) {
      case Op::kEnd:
        done = true;
        continue;

      case Op::kOpen: {
        if (rec.args[0].kind != ArgKind::kStr) {
          out.ret = scope.fail(Errno::kEINVAL);
          ++stats_.aborted;
          return out;
        }
        Result<int> fd = vfs.open(p.fds, sv(rec.args[0]),
                                  static_cast<int>(val(rec.args[1])),
                                  static_cast<std::uint32_t>(val(rec.args[2])));
        if (fd) opened_fds.push_back(fd.value());
        if (guard != nullptr && !guard->check_fds(opened_fds.size())) {
          return quota_abort();
        }
        r = fd ? fd.value() : sysret_err(fd.error());
        break;
      }
      case Op::kClose: {
        const int cfd = static_cast<int>(val(rec.args[0]));
        Errno e = vfs.close(p.fds, cfd);
        if (e == Errno::kOk) {
          opened_fds.erase(
              std::remove(opened_fds.begin(), opened_fds.end(), cfd),
              opened_fds.end());
        }
        r = e == Errno::kOk ? 0 : sysret_err(e);
        break;
      }
      case Op::kRead: {
        int fd = static_cast<int>(val(rec.args[0]));
        std::size_t len = static_cast<std::size_t>(
            std::max<std::int64_t>(0, val(rec.args[2])));
        if (rec.args[1].kind != ArgKind::kNone) {
          // Destination is a shared-buffer offset: static (kShared) or
          // computed at run time (local/imm/result). range() bounds-checks
          // dynamic offsets.
          std::span<std::byte> dst = shared.range(val(rec.args[1]), len);
          if (dst.size() != len) {
            r = sysret_err(Errno::kEFAULT);
            break;
          }
          // Zero copy: the filesystem writes straight into shared memory.
          Result<std::size_t> n = vfs.read(p.fds, fd, dst);
          if (n) shared.bytes_via_shared += n.value();
          r = n ? static_cast<SysRet>(n.value()) : sysret_err(n.error());
        } else {
          // Discard mode: data is consumed in-kernel (scratch buffer).
          std::byte scratch[4096];
          std::size_t total = 0;
          while (total < len) {
            std::size_t chunk = std::min(len - total, sizeof(scratch));
            Result<std::size_t> n =
                vfs.read(p.fds, fd, std::span(scratch, chunk));
            if (!n) {
              r = sysret_err(n.error());
              break;
            }
            total += n.value();
            if (n.value() < chunk) break;
          }
          if (r == 0) r = static_cast<SysRet>(total);
        }
        break;
      }
      case Op::kWrite: {
        int fd = static_cast<int>(val(rec.args[0]));
        std::size_t len = static_cast<std::size_t>(
            std::max<std::int64_t>(0, val(rec.args[2])));
        if (rec.args[1].kind == ArgKind::kNone ||
            rec.args[1].kind == ArgKind::kStr) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        std::span<std::byte> src = shared.range(val(rec.args[1]), len);
        if (src.size() != len) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        Result<std::size_t> n = vfs.write(
            p.fds, fd, std::span<const std::byte>(src.data(), src.size()));
        if (n) shared.bytes_via_shared += n.value();
        r = n ? static_cast<SysRet>(n.value()) : sysret_err(n.error());
        break;
      }
      case Op::kLseek: {
        Result<std::uint64_t> pos = vfs.lseek(
            p.fds, static_cast<int>(val(rec.args[0])), val(rec.args[1]),
            static_cast<int>(val(rec.args[2])));
        r = pos ? static_cast<SysRet>(pos.value()) : sysret_err(pos.error());
        break;
      }
      case Op::kStat: {
        if (rec.args[0].kind != ArgKind::kStr ||
            rec.args[1].kind == ArgKind::kNone ||
            rec.args[1].kind == ArgKind::kStr) {
          r = sysret_err(Errno::kEINVAL);
          break;
        }
        fs::StatBuf st;
        Errno e = vfs.stat(sv(rec.args[0]), &st);
        if (e != Errno::kOk) {
          r = sysret_err(e);
          break;
        }
        std::span<std::byte> dst = shared.range(val(rec.args[1]), sizeof(st));
        if (dst.size() != sizeof(st)) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        std::memcpy(dst.data(), &st, sizeof(st));
        shared.bytes_via_shared += sizeof(st);
        break;
      }
      case Op::kFstat: {
        if (rec.args[1].kind == ArgKind::kNone ||
            rec.args[1].kind == ArgKind::kStr) {
          r = sysret_err(Errno::kEINVAL);
          break;
        }
        fs::StatBuf st;
        Errno e = vfs.fstat(p.fds, static_cast<int>(val(rec.args[0])), &st);
        if (e != Errno::kOk) {
          r = sysret_err(e);
          break;
        }
        std::span<std::byte> dst = shared.range(val(rec.args[1]), sizeof(st));
        if (dst.size() != sizeof(st)) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        std::memcpy(dst.data(), &st, sizeof(st));
        shared.bytes_via_shared += sizeof(st);
        break;
      }
      case Op::kGetpid:
        r = static_cast<SysRet>(p.task.pid());
        break;
      case Op::kReaddir: {
        int fd = static_cast<int>(val(rec.args[0]));
        fs::OpenFile* f = p.fds.get(fd);
        if (f == nullptr) {
          r = sysret_err(Errno::kEBADF);
          break;
        }
        if (rec.args[1].kind == ArgKind::kNone ||
            rec.args[1].kind == ArgKind::kStr) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        std::size_t max_bytes = static_cast<std::size_t>(
            std::max<std::int64_t>(0, val(rec.args[2])));
        std::span<std::byte> dst = shared.range(val(rec.args[1]), max_bytes);
        if (dst.size() != max_bytes) {
          r = sysret_err(Errno::kEFAULT);
          break;
        }
        Result<uk::DirentPack> pk =
            uk::pack_dirents(vfs, p.fds, fd, f->pos, dst);
        if (!pk) {
          r = sysret_err(pk.error());
          break;
        }
        f->pos += pk.value().entries;
        shared.bytes_via_shared += pk.value().bytes;
        r = static_cast<SysRet>(pk.value().bytes);
        break;
      }
      case Op::kUnlink: {
        if (rec.args[0].kind != ArgKind::kStr) {
          r = sysret_err(Errno::kEINVAL);
          break;
        }
        Errno e = vfs.unlink(sv(rec.args[0]));
        r = e == Errno::kOk ? 0 : sysret_err(e);
        break;
      }
      case Op::kMkdir: {
        if (rec.args[0].kind != ArgKind::kStr) {
          r = sysret_err(Errno::kEINVAL);
          break;
        }
        Errno e = vfs.mkdir(sv(rec.args[0]),
                            static_cast<std::uint32_t>(val(rec.args[1])));
        r = e == Errno::kOk ? 0 : sysret_err(e);
        break;
      }

      case Op::kSet:
        out.locals[rec.aux] = val(rec.args[0]);
        break;
      case Op::kArith: {
        std::int64_t lhs = val(rec.args[0]);
        std::int64_t rhs = val(rec.args[1]);
        std::int64_t res = 0;
        // Wrapping two's-complement arithmetic (compute in unsigned to
        // avoid signed-overflow UB in the interpreter itself).
        auto u = [](std::int64_t x) { return static_cast<std::uint64_t>(x); };
        switch (static_cast<ArithOp>(rec.aux2)) {
          case ArithOp::kAdd:
            res = static_cast<std::int64_t>(u(lhs) + u(rhs));
            break;
          case ArithOp::kSub:
            res = static_cast<std::int64_t>(u(lhs) - u(rhs));
            break;
          case ArithOp::kMul:
            res = static_cast<std::int64_t>(u(lhs) * u(rhs));
            break;
          case ArithOp::kDiv:
            if (rhs == 0) {
              out.ret = scope.fail(Errno::kEINVAL);
              ++stats_.aborted;
              return out;
            }
            res = lhs / rhs;
            break;
          case ArithOp::kMod:
            if (rhs == 0) {
              out.ret = scope.fail(Errno::kEINVAL);
              ++stats_.aborted;
              return out;
            }
            res = lhs % rhs;
            break;
          case ArithOp::kLt: res = lhs < rhs ? 1 : 0; break;
          case ArithOp::kLe: res = lhs <= rhs ? 1 : 0; break;
          case ArithOp::kGt: res = lhs > rhs ? 1 : 0; break;
          case ArithOp::kGe: res = lhs >= rhs ? 1 : 0; break;
          case ArithOp::kEq: res = lhs == rhs ? 1 : 0; break;
          case ArithOp::kNe: res = lhs != rhs ? 1 : 0; break;
        }
        out.locals[rec.aux] = res;
        break;
      }

      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
      case Op::kJneg: {
        bool take = rec.op == Op::kJmp;
        if (!take) {
          std::int64_t cond = val(rec.args[0]);
          take = (rec.op == Op::kJz && cond == 0) ||
                 (rec.op == Op::kJnz && cond != 0) ||
                 (rec.op == Op::kJneg && cond < 0);
        }
        if (take) {
          std::size_t target = static_cast<std::size_t>(rec.aux);
          if (target <= cur) {
            // Back-edge: preemption point for the infinite-loop defence.
            ++stats_.back_edges;
            if (!sched.preempt_point()) {
              // The watchdog kill is a mid-compound abort like any other:
              // roll back this compound's fds so the kill cannot leak
              // descriptors into the process.
              rollback_fds();
              ++stats_.watchdog_rollbacks;
              base::klogf(base::LogLevel::kCrit,
                          "cosy: compound killed by watchdog at op %zu", cur);
              out.ret = scope.fail(Errno::kEKILLED);
              ++stats_.aborted;
              return out;
            }
          }
          pc = target;
          jumped = true;
        }
        break;
      }

      case Op::kCallFunc: {
        VmFunction* fn = funcs_.get(rec.aux);
        if (fn == nullptr) {
          out.ret = scope.fail(Errno::kEINVAL);
          ++stats_.aborted;
          return out;
        }
        std::int64_t fargs[kMaxArgs] = {};
        for (std::size_t i = 0; i < rec.nargs; ++i) fargs[i] = val(rec.args[i]);
        VmRunStats vstats;
        Result<std::int64_t> res =
            fn->run(std::span(fargs, rec.nargs), sched, engine,
                    guard != nullptr ? &vstats : nullptr);
        if (!res) {
          // A protection fault or watchdog kill inside the user function
          // aborts the compound (the paper's crash-the-module policy), and
          // a violator loses any earned trust.
          if (trust_threshold_ > 0 &&
              fn->mode() == SafetyMode::kDataSegmentOnly) {
            fn->set_mode(SafetyMode::kIsolatedSegments);
            ++stats_.trust_demotions;
            base::klogf(base::LogLevel::kWarn,
                        "cosy: function '%s' re-isolated after violation",
                        fn->name().c_str());
            // The supervisor keeps the re-isolation in its event ledger
            // so operators see the trust revocation, not just the abort.
            if (sup_ != nullptr) sup_->record_reisolation(sup_id_, fn->name());
          }
          fn->clean_runs = 0;
          rollback_fds();
          out.ret = scope.fail(res.error());
          ++stats_.aborted;
          return out;
        }
        // Every interpreted VM instruction burns one fuel unit.
        if (guard != nullptr && !guard->charge_fuel(vstats.instructions)) {
          return quota_abort();
        }
        // Heuristic trust: enough clean executions turn the expensive
        // isolation off (paper §2.4).
        if (trust_threshold_ > 0 &&
            ++fn->clean_runs >= trust_threshold_ &&
            fn->mode() == SafetyMode::kIsolatedSegments) {
          fn->set_mode(SafetyMode::kDataSegmentOnly);
          ++stats_.trust_promotions;
          base::klogf(base::LogLevel::kInfo,
                      "cosy: function '%s' trusted after %llu clean runs",
                      fn->name().c_str(),
                      static_cast<unsigned long long>(fn->clean_runs));
        }
        r = res.value();
        break;
      }
    }

    out.results[cur] = r;
    if (rec.aux2 >= 0 && rec.op != Op::kArith) {
      out.locals[rec.aux2] = r;
    }
    if (!jumped) ++pc;
  }

  out.ret = scope.done(0);
  return out;
}

CosyResult CosyExtension::execute_image(
    uk::Process& p, const std::vector<std::uint8_t>& image,
    SharedBuffer& shared) {
  Compound c;
  if (!deserialize(image, &c)) {
    CosyResult out;
    uk::Kernel::Scope scope(k_, p, uk::Sys::kCosy);
    if (SysRet g = scope.gate(); g != 0) {
      out.ret = g;
      return out;
    }
    ++stats_.compounds;
    ++stats_.validation_failures;
    base::klogf(base::LogLevel::kErr,
                "cosy: rejected malformed compound image (%zu bytes)",
                image.size());
    out.ret = scope.fail(Errno::kEINVAL);
    return out;
  }
  return execute(p, c, shared);
}

}  // namespace usk::cosy
