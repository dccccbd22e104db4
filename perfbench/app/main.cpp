// perfbench: one command that measures the kernel end to end and layer
// by layer (see ../README.md).
//
//   perfbench --workload <serve_classic|serve_inkernel|spool_fsync>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --selftest
//
// Untraced (--trace 0) it prints the end-to-end metrics. Traced
// (--trace 1) it runs half the time untraced, half with every layer call
// timed, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dl/dl.hpp"
#include "fault/kfail.hpp"
#include "fs/memfs.hpp"
#include "trace/span.hpp"
#include "uk/userlib.hpp"

namespace pb {
namespace {

constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double percentile_us(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k] / 1000.0;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- process-global knobs ------------------------------------------------------

/// The soak labels arm kfail/kspan/ksup/kdl through the environment; a
/// measurement must never inherit them.
bool environment_clean() {
  bool clean = true;
  for (const char* v : {"USK_FAIL_SPEC", "USK_SPAN", "USK_SUP_SPEC", "USK_DL"}) {
    if (std::getenv(v) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", v);
      clean = false;
    }
  }
  return clean;
}

void disarm_knobs() {
  usk::fault::Kfail::instance().disarm_all();
  usk::dl::Kdl::instance().set_enabled(false);
  usk::trace::Kspan::instance().disable();
  usk::uk::set_sup_gateway(nullptr, nullptr);
}

// --- calibration ---------------------------------------------------------------

/// Median ns of one getpid round trip on a fresh kernel with `cm`.
double null_syscall_ns(const usk::uk::CostModel& cm) {
  usk::fs::MemFs fs;
  usk::uk::KernelConfig cfg;
  cfg.boundary = cm;
  usk::uk::Kernel k(fs, cfg);
  fs.set_cost_hook(k.charge_hook());
  usk::uk::Proc p(k, "calibrate");
  constexpr int kBatch = 4000;
  for (int i = 0; i < kBatch; ++i) p.getpid();
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) p.getpid();
    per_call.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return median(per_call);
}

struct Calibration {
  double null_ns = 0;       ///< default CostModel
  double null_real_ns = 0;  ///< zeroed CostModel: the framework alone
};

Calibration calibrate() {
  return {null_syscall_ns(usk::uk::CostModel{}),
          null_syscall_ns(usk::uk::CostModel{0, 0, 0, 0})};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  disarm_knobs();
  if (name == "serve_classic") return make_serve(false, seed);
  if (name == "serve_inkernel") return make_serve(true, seed);
  if (name == "spool_fsync") return make_spool(seed);
  return nullptr;
}

// --- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

/// A measured phase: counters over the whole phase, and rates and
/// percentiles per one-second window, reported as their medians so that
/// a short stall on the host moves one window, not the run's figure.
struct Measured {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;
  std::uint64_t cosy_requests = 0;
  std::vector<double> ops_per_s, p50_us, p99_us, cpu_us_per_op;
  Counters c0, c1;

  [[nodiscard]] double per_op(std::uint64_t Counters::*f) const {
    return ratio(static_cast<double>(c1.*f - c0.*f), static_cast<double>(ops));
  }
};

constexpr double kWindowS = 1.0;

Measured measure(Workload& w, double seconds, bool traced) {
  Measured m;
  const int n = std::max(1, static_cast<int>(std::lround(seconds / kWindowS)));
  m.c0 = w.counters();
  for (int i = 0; i < n; ++i) {
    const double cpu0 = cpu_seconds();
    const Phase ph = w.run(seconds / n, 1, traced);
    const double cpu_s = cpu_seconds() - cpu0;
    m.ops += ph.attempted;
    m.failed += ph.failed;
    m.samples += ph.latency_ns.size();
    m.cosy_requests += ph.cosy_requests;
    m.ops_per_s.push_back(ratio(static_cast<double>(ph.attempted - ph.failed),
                                static_cast<double>(ph.wall_ns) * 1e-9));
    m.p50_us.push_back(percentile_us(ph.latency_ns, 0.50));
    m.p99_us.push_back(percentile_us(ph.latency_ns, 0.99));
    m.cpu_us_per_op.push_back(ratio(cpu_s * 1e6, static_cast<double>(ph.attempted)));
  }
  m.c1 = w.counters();
  return m;
}

std::vector<Metric> end_to_end_metrics(const Measured& m, double setup_s) {
  const auto ops = static_cast<double>(m.ops);
  const std::string n = "median of " + std::to_string(m.p50_us.size()) +
                        " windows, " + std::to_string(m.samples) + " samples";
  return {
      {"ops_per_s", median(m.ops_per_s), "ops/s", n},
      {"op_p50_us", median(m.p50_us), "us", n},
      {"op_p99_us", median(m.p99_us), "us", n},
      {"cpu_us_per_op", median(m.cpu_us_per_op), "us", n},
      {"crossings_per_op", m.per_op(&Counters::crossings), "count", ""},
      {"copied_bytes_per_op", m.per_op(&Counters::copied_bytes), "B", ""},
      {"kernel_units_per_op", m.per_op(&Counters::kernel_units), "units", ""},
      {"ok_ops_pct", 100.0 * ratio(ops - static_cast<double>(m.failed), ops), "%", ""},
      {"peak_rss_mib", peak_rss_mib(), "MiB", ""},
      {"setup_s", setup_s, "s", "median of " + std::to_string(kSetups) + " set-ups"},
  };
}

struct TraceTotals {
  std::array<CallAgg, kNumCalls> agg{};
  std::uint64_t op_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t outside = 0;
};

TraceTotals sum_tracers(const std::vector<const Tracer*>& ts) {
  TraceTotals t;
  for (const Tracer* tr : ts) {
    for (std::size_t i = 0; i < kNumCalls; ++i) {
      t.agg[i].calls += tr->aggs()[i].calls;
      t.agg[i].ns += tr->aggs()[i].ns;
      t.agg[i].units += tr->aggs()[i].units;
    }
    t.op_ns += tr->op_ns();
    t.ops += tr->traced_ops();
    t.outside += tr->calls_outside_ops();
  }
  return t;
}

std::vector<Metric> per_layer_metrics(const Calibration& cal, const Measured& tm,
                                      const TraceTotals& t, double overhead_pct,
                                      std::int64_t kmalloc_delta) {
  const Counters& c0 = tm.c0;
  const Counters& c1 = tm.c1;
  const auto& a = t.agg;
  auto mean_ns = [&](Call c) {
    const CallAgg& x = a[static_cast<std::size_t>(c)];
    return ratio(static_cast<double>(x.ns), static_cast<double>(x.calls));
  };
  auto ns_per_unit = [&](Call c, double unit) {
    const CallAgg& x = a[static_cast<std::size_t>(c)];
    return ratio(static_cast<double>(x.ns), static_cast<double>(x.units) / unit);
  };
  const auto ops = static_cast<double>(tm.ops);
  auto per_op = [&](std::uint64_t before, std::uint64_t after) {
    return ratio(static_cast<double>(after - before), ops);
  };
  std::array<double, static_cast<std::size_t>(Module::kCount)> module_ns{};
  double child_ns = 0;
  for (std::size_t i = 0; i < kNumCalls; ++i) {
    module_ns[static_cast<std::size_t>(kCalls[i].module)] += static_cast<double>(a[i].ns);
    child_ns += static_cast<double>(a[i].ns);
  }
  const auto tops = static_cast<double>(t.ops);
  std::vector<Metric> m = {
      {"uk.null_syscall_ns", cal.null_ns, "ns", "default CostModel"},
      {"uk.null_syscall_real_ns", cal.null_real_ns, "ns", "zeroed CostModel"},
      {"uk.stat_ns", mean_ns(Call::kStat), "ns", ""},
      {"uk.open_ns", mean_ns(Call::kOpen), "ns", ""},
      {"uk.read_ns", mean_ns(Call::kRead), "ns", ""},
      {"uk.write_ns", mean_ns(Call::kWrite), "ns", ""},
      {"uk.close_ns", mean_ns(Call::kClose), "ns", ""},
      {"uk.unlink_ns", mean_ns(Call::kUnlink), "ns", ""},
      {"net.send_ns_per_kib", ns_per_unit(Call::kSend, 1024), "ns/KiB", ""},
      {"net.recv_ns_per_kib", ns_per_unit(Call::kRecv, 1024), "ns/KiB", ""},
      {"net.connect_ns", mean_ns(Call::kConnect), "ns", ""},
      {"net.accept_ns", mean_ns(Call::kAccept), "ns", ""},
      {"net.packets_per_op", per_op(c0.net_packets, c1.net_packets), "count", ""},
      {"consolidation.sendfile_ns_per_kib", ns_per_unit(Call::kSendfile, 1024), "ns/KiB", ""},
      {"consolidation.accept_recv_ns", mean_ns(Call::kAcceptRecv), "ns", ""},
      {"consolidation.readdirplus_ns_per_entry", ns_per_unit(Call::kReaddirplus, 1), "ns", ""},
      {"cosy.execute_ns_per_req", ns_per_unit(Call::kCosyExecute, 1), "ns", ""},
      {"cosy.ops_per_req",
       ratio(static_cast<double>(c1.cosy_ops - c0.cosy_ops),
             static_cast<double>(tm.cosy_requests)),
       "count", ""},
      {"ring.enter_ns_per_chain", ns_per_unit(Call::kRingEnter, 1), "ns", ""},
      {"ring.sqes_per_enter",
       ratio(static_cast<double>(c1.ring_sqes - c0.ring_sqes),
             static_cast<double>(c1.ring_enters - c0.ring_enters)),
       "count", ""},
      {"ring.prepare_ns_per_sqe", mean_ns(Call::kRingPrepare), "ns", ""},
      {"ring.reap_ns_per_cqe", ns_per_unit(Call::kRingReap, 1), "ns", ""},
      {"fs.dcache_hit_rate",
       ratio(static_cast<double>(c1.dcache_hits - c0.dcache_hits),
             static_cast<double>(c1.dcache_lookups - c0.dcache_lookups)),
       "ratio", ""},
      {"fs.dcache_lookups_per_op", per_op(c0.dcache_lookups, c1.dcache_lookups), "count", ""},
      {"mm.kmalloc_calls_per_op", per_op(c0.kmalloc_calls, c1.kmalloc_calls), "count", ""},
      {"mm.kmalloc_outstanding_delta_b", static_cast<double>(kmalloc_delta), "B",
       "over the whole run"},
      {"store.fsync_ns", mean_ns(Call::kFsync), "ns", ""},
      {"store.commit_units_per_op", per_op(c0.store_commit_units, c1.store_commit_units),
       "count", ""},
      {"store.checkpoints_per_kop",
       1000.0 * per_op(c0.store_checkpoints, c1.store_checkpoints), "count", ""},
      {"store.image_bytes_written_per_op",
       per_op(c0.image_bytes_written, c1.image_bytes_written), "B", ""},
      {"blockdev.cache_hit_rate",
       ratio(static_cast<double>(c1.cache_hits - c0.cache_hits),
             static_cast<double>(c1.cache_lookups - c0.cache_lookups)),
       "ratio", ""},
      {"blockdev.writebacks_per_op", per_op(c0.cache_writebacks, c1.cache_writebacks),
       "count", ""},
      {"sched.parks_per_op", per_op(c0.sched_parks, c1.sched_parks), "count", ""},
      {"sched.schedules_per_op", per_op(c0.sched_schedules, c1.sched_schedules), "count", ""},
  };
  for (std::size_t i = 0; i < module_ns.size(); ++i) {
    m.push_back({std::string(kModuleNames[i]) + ".us_per_op",
                 ratio(module_ns[i] / 1000.0, tops), "us", "layer-call time"});
  }
  m.push_back({"bench.self_us_per_op", ratio((static_cast<double>(t.op_ns) - child_ns) / 1000.0, tops),
               "us", "op span minus its layer calls"});
  m.push_back({"bench.traced_op_us", ratio(static_cast<double>(t.op_ns) / 1000.0, tops), "us",
               "= sum of *.us_per_op + bench.self_us_per_op"});
  m.push_back({"bench.trace_overhead_pct", overhead_pct, "%",
               "traced vs untraced cpu_us_per_op"});
  return m;
}

// --- output --------------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-42s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// chrome://tracing JSON of the kept spans: op spans and their layer calls.
void write_trace(const std::string& path, const std::vector<const Tracer*>& ts) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t tid = 0; tid < ts.size(); ++tid) {
    for (const Span& s : ts[tid]->spans()) {
      const char* name = s.call < 0 ? "op" : kCalls[static_cast<std::size_t>(s.call)].name;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu, "
                   "\"parent\": %d, \"ops\": %u}}",
                   first ? "" : ",\n", name, tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.op), s.parent, s.ops);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- one measured run ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string trace_out;
};

int run(const Args& a) {
  std::vector<double> setups;
  std::vector<double> null_ns, null_real_ns;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const std::uint64_t t0 = now_ns();
    const Calibration c = calibrate();
    w = make_workload(a.workload, a.seed);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    null_ns.push_back(c.null_ns);
    null_real_ns.push_back(c.null_real_ns);
  }
  const Calibration cal{median(null_ns), median(null_real_ns)};

  const Resources r0 = w->resources();
  (void)w->run(0, 1, false);  // warm-up round: caches filled, lazy set-up done

  const Measured m = measure(*w, a.trace ? a.seconds / 2 : a.seconds, false);
  std::uint64_t attempted = m.ops;
  std::uint64_t failed = m.failed;
  bool correct = true;

  std::vector<Metric> ms;
  if (!a.trace) {
    ms = end_to_end_metrics(m, median(setups));
  } else {
    const Measured tm = measure(*w, a.seconds / 2, true);
    attempted += tm.ops;
    failed += tm.failed;
    const TraceTotals tt = sum_tracers(w->tracers());
    double child_ns = 0;
    for (const CallAgg& x : tt.agg) child_ns += static_cast<double>(x.ns);
    // Every layer call lies inside an op span, so the layers plus the
    // benchmark's own time add up to the op time.
    if (tt.outside != 0 || tt.ops != tm.ops || child_ns > static_cast<double>(tt.op_ns)) {
      std::fprintf(stderr, "perfbench: span accounting does not add up\n");
      correct = false;
    }
    const double overhead =
        100.0 * (ratio(median(tm.cpu_us_per_op), median(m.cpu_us_per_op)) - 1.0);
    ms = per_layer_metrics(cal, tm, tt, overhead,
                           w->resources().kmalloc_outstanding_b - r0.kmalloc_outstanding_b);
    if (!a.trace_out.empty()) write_trace(a.trace_out, w->tracers());
  }

  const Resources r1 = w->resources();
  if (!(r0 == r1)) {
    std::fprintf(stderr,
                 "perfbench: leak: fds %zu->%zu, sockets %zu->%zu, kmalloc %lld->%lld B\n",
                 r0.open_fds, r1.open_fds, r0.live_sockets, r1.live_sockets,
                 static_cast<long long>(r0.kmalloc_outstanding_b),
                 static_cast<long long>(r1.kmalloc_outstanding_b));
    correct = false;
  }
  if (failed != 0) correct = false;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %llu ops, %llu failed\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_result(correct, attempted, failed, ms);
  return 0;
}

// --- self-test -----------------------------------------------------------------

struct Smoke {
  std::uint64_t seq = 0;
  double crossings_per_op = 0;
  double copied_bytes_per_op = 0;
  std::uint64_t failed = 0;
  bool leak_free = false;
};

Smoke smoke(const std::string& name, std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(name, seed);
  const Resources r0 = w->resources();
  (void)w->run(0, 1, false);
  Measured m;
  m.c0 = w->counters();
  const Phase ph = w->run(0, 2, false);
  m.c1 = w->counters();
  m.ops = ph.attempted;
  return {w->sequence_hash(), m.per_op(&Counters::crossings),
          m.per_op(&Counters::copied_bytes), ph.failed, w->resources() == r0};
}

int selftest() {
  bool pass = true;
  auto check = [&pass](bool ok, const std::string& what) {
    std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    pass = pass && ok;
  };
  std::map<std::string, Smoke> first;
  for (const char* name : {"serve_classic", "serve_inkernel", "spool_fsync"}) {
    const Smoke a = smoke(name, 1);
    const Smoke b = smoke(name, 1);
    const Smoke c = smoke(name, 2);
    const std::string n = name;
    check(a.seq == b.seq, n + ": same seed, same op sequence");
    check(a.crossings_per_op == b.crossings_per_op &&
              a.copied_bytes_per_op == b.copied_bytes_per_op,
          n + ": same seed, same crossings_per_op (" +
              std::to_string(a.crossings_per_op) + ") and copied_bytes_per_op (" +
              std::to_string(a.copied_bytes_per_op) + ")");
    check(a.seq != c.seq, n + ": another seed, another op sequence");
    check(a.failed + b.failed + c.failed == 0, n + ": no failed ops");
    check(a.leak_free && b.leak_free && c.leak_free,
          n + ": fds, sockets and kmalloc bytes back to their start");
    first[n] = a;
  }
  const double classic = first["serve_classic"].crossings_per_op;
  const double inkernel = first["serve_inkernel"].crossings_per_op;
  check(classic >= 3.0 * inkernel,
        "crossings_per_op serve_classic " + std::to_string(classic) +
            " >= 3 x serve_inkernel " + std::to_string(inkernel));
  std::printf("selftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args a;
  if (!pb::parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] | --selftest\n");
    return 2;
  }
  if (!pb::environment_clean()) return 2;
  return a.selftest ? pb::selftest() : pb::run(a);
}
