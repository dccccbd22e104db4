// E7 (paper §3.4): KGCC-instrumented filesystem overhead.
//
// "We compared the performance of a KGCC-compiled Reiserfs module to a
// vanilla GCC-compiled module on Linux 2.6.7. We ran a CPU-intensive
// benchmark, an Am-utils compile. The system time for KGCC-compiled
// Reiserfs was 33% greater than vanilla GCC, while the elapsed time was
// 20% greater. We also ran the I/O-intensive benchmark PostMark. In this
// case, the system time was 14 times greater for KGCC-compiled Reiserfs
// while the elapsed time was 3 times greater."
//
// Vanilla = JournalFs<RawPtrPolicy> (plain pointers); KGCC =
// JournalFs<BccPtrPolicy> (every dereference and pointer-arithmetic step
// goes through the bounds-checking runtime's splay-tree object map).
// "System" = wall time inside system calls; "elapsed" = total wall time.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "bcc/checked_ptr.hpp"
#include "bench/common.hpp"
#include "fs/journalfs.hpp"
#include "uk/userlib.hpp"
#include "workload/amutils.hpp"
#include "workload/postmark.hpp"

namespace {

using namespace usk;

struct RunResult {
  double elapsed = 0;
  double system = 0;  // seconds inside syscalls
};

template <typename Policy>
RunResult run_build() {
  fs::JournalFs<Policy> jfs(2048, 1 << 14, 512);
  uk::Kernel kernel(jfs);
  jfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "make");
  workload::AmUtilsConfig cfg;
  cfg.source_files = 60;
  cfg.header_files = 15;
  workload::AmUtilsBuild build(cfg);
  build.populate(proc);
  std::uint64_t sys0 = proc.task().kernel_wall_ns;
  RunResult r;
  r.elapsed = bench::time_once([&] {
    workload::AmUtilsReport rep = build.build(proc);
    if (rep.errors != 0) std::abort();
  });
  r.system = static_cast<double>(proc.task().kernel_wall_ns - sys0) * 1e-9;
  return r;
}

template <typename Policy>
RunResult run_postmark() {
  fs::JournalFs<Policy> jfs(2048, 1 << 14, 512);
  uk::Kernel kernel(jfs);
  jfs.set_cost_hook(kernel.charge_hook());
  uk::Proc proc(kernel, "postmark");
  workload::PostMarkConfig cfg;
  cfg.file_count = 120;
  cfg.transactions = 800;
  std::uint64_t sys0 = proc.task().kernel_wall_ns;
  RunResult r;
  r.elapsed = bench::time_once([&] {
    workload::PostMark pm(cfg);
    workload::PostMarkReport rep = pm.run(proc);
    if (rep.errors != 0) std::abort();
  });
  r.system = static_cast<double>(proc.task().kernel_wall_ns - sys0) * 1e-9;
  return r;
}

/// The bounds-checking runtime's work during one run, as deltas.
struct Counts {
  std::uint64_t checks = 0;
  std::uint64_t map_consults = 0;
  std::uint64_t cache_hits = 0;
  bool operator==(const Counts&) const = default;
};

/// Each side's fastest run, and the runtime work one run does.
struct Side {
  RunResult best{1e99, 1e99};
  Counts counts;
};

/// Alternated min-of-N: vanilla and kgcc runs interleave, so a host load
/// spike hits both sides, and each side reports its fastest elapsed and
/// system time. Every run boots its own kernel outside the timed region.
/// The runtime work must be identical on every repeat.
constexpr int kReps = 7;

void take(Side& side, RunResult (*run)(), int rep) {
  const bcc::RuntimeStats s0 = bcc::Runtime::instance().stats();
  const RunResult r = run();
  const bcc::RuntimeStats& s1 = bcc::Runtime::instance().stats();
  const Counts c{s1.checks - s0.checks, s1.map_consults - s0.map_consults,
                 s1.cache_hits - s0.cache_hits};
  if (rep == 0) {
    side.counts = c;
  } else if (c != side.counts) {
    std::fprintf(stderr, "runtime work differs between repeats\n");
    std::abort();
  }
  side.best.elapsed = std::min(side.best.elapsed, r.elapsed);
  side.best.system = std::min(side.best.system, r.system);
}

void report(const char* workload_name, const RunResult& vanilla,
            const RunResult& kgcc, const char* paper) {
  std::printf("%-12s %10.3f %10.3f %8.2fx | %10.4f %10.4f %8.2fx   %s\n",
              workload_name, vanilla.elapsed, kgcc.elapsed,
              bench::slowdown(vanilla.elapsed, kgcc.elapsed), vanilla.system,
              kgcc.system, bench::slowdown(vanilla.system, kgcc.system),
              paper);
}

}  // namespace

int main() {
  bench::print_title("E7", "KGCC-instrumented JournalFs (paper: build sys "
                           "+33%/elapsed +20%; PostMark sys 14x/elapsed 3x)");
  std::printf("%-12s %10s %10s %9s | %10s %10s %9s\n", "workload",
              "van-ela(s)", "kgcc-ela", "ratio", "van-sys(s)", "kgcc-sys",
              "ratio");

  // ops_per_sec is workload runs per second; elapsed is one run.
  bench::JsonWriter json("bench_kgcc");

  Side bv, bk, pv, pk;
  for (int rep = 0; rep < kReps; ++rep) {
    take(bv, run_build<fs::RawPtrPolicy>, rep);
    take(bk, run_build<bcc::BccPtrPolicy>, rep);
  }
  report("am-utils", bv.best, bk.best, "paper: elapsed +20%, sys +33%");
  for (int rep = 0; rep < kReps; ++rep) {
    take(pv, run_postmark<fs::RawPtrPolicy>, rep);
    take(pk, run_postmark<bcc::BccPtrPolicy>, rep);
  }
  report("postmark", pv.best, pk.best, "paper: elapsed 3x, sys 14x");

  json.record("amutils-vanilla", 1, 1.0 / bv.best.elapsed, bv.best.elapsed);
  json.record("amutils-kgcc", 1, 1.0 / bk.best.elapsed, bk.best.elapsed);
  json.record("postmark-vanilla", 1, 1.0 / pv.best.elapsed, pv.best.elapsed);
  json.record("postmark-kgcc", 1, 1.0 / pk.best.elapsed, pk.best.elapsed);

  // One run of each of the four configurations (vanilla runs check nothing).
  std::printf("  runtime checks executed    : build %" PRIu64
              ", postmark %" PRIu64 "\n",
              bk.counts.checks, pk.counts.checks);
  std::printf("  map consults / cache hits  : %" PRIu64 " / %" PRIu64 "\n",
              bv.counts.map_consults + bk.counts.map_consults +
                  pv.counts.map_consults + pk.counts.map_consults,
              bv.counts.cache_hits + bk.counts.cache_hits +
                  pv.counts.cache_hits + pk.counts.cache_hits);
  // Correct fs code must be clean.
  if (!bcc::Runtime::instance().errors().empty()) std::abort();
  bench::print_note("our substrate's system time is entirely the "
                    "instrumented fs, so the build's system ratio exceeds "
                    "the paper's +33% (their compile spent most system time "
                    "in uninstrumented subsystems); the metadata-vs-CPU "
                    "contrast is preserved");
  return 0;
}
