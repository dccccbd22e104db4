#!/usr/bin/env python3
"""A/B-compare two checkouts on the perfbench workloads.

    scripts/bench_ab.py PARENT CHANGE [--workloads W ...] [--pairs N]
                        [--seconds S] [--seed K] [--trace 0|1]

PARENT and CHANGE are checkout directories (for example a `git archive`
of the parent commit and the working tree). For every workload and every
pair i = 0..N-1, both sides run their own `perfbench/run.py` with the
same seed (K + i) and run length; which side runs first alternates from
pair to pair, so a slow drift on the host hits both sides equally. Each
run's working directory is its own checkout and CARGO_TARGET_DIR is
unset, so each side builds into run.py's default <checkout>/.bench_build
and the two builds never share objects.

Metric names, units, directions and regression bounds come from
CHANGE/BENCHMARK.json, which is only read. Per workload and metric the
table shows each side's median with its quartiles [q1, q3], the change's
median relative to the parent's, the fraction of pairs the change won
(ties count for neither side), and up to two of three verdicts:

  worse       the change's median is worse than the parent's by more
              than the metric's bound (end-to-end metrics only)
  unresolved  either side's interquartile range, relative to the
              parent's median, is wider than the bound, and not every
              change run beats every parent run: the runs cannot tell
              "unchanged" from "worse" (end-to-end metrics only)
  gain        the change won at least 9/10 of the pairs and its median
              beats the parent's by more than the parent's interquartile
              range

With --trace 1 the per-layer metrics are listed too (no bound, so no
`worse` verdict).
Exit status: 0 when no end-to-end metric is worse, 1 otherwise, 2 when a
run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds, trace):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s: %s seed %d failed (exit %d)"
                           % (checkout, workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def compare(parent, change, higher_better):
    """Per-metric summary of paired runs (lists in pair order)."""
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = (wins >= 0.9 * len(parent)
            and sign * (cmed - pmed) > (pq3 - pq1))
    spread = max(pq3 - pq1, cq3 - cq1) / abs(pmed) if pmed else 0.0
    if higher_better:
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3),
            "wins": wins, "pairs": len(parent), "gain": gain,
            "spread": spread, "dominates": dominates}


def relative_worsening(pmed, cmed, higher_better):
    """How much worse the change's median is, as a fraction of the
    parent's (negative when better)."""
    delta = (pmed - cmed) if higher_better else (cmed - pmed)
    if pmed == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(pmed)


def fmt(x):
    if x == 0 or abs(x) >= 100:
        return "%.0f" % x
    if abs(x) >= 1:
        return "%.2f" % x
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = [(m, True) for m in bench["end_to_end"]]
    if args.trace:
        metrics += [(m, False) for m in bench["per_layer"]]

    runs = {}
    for wl in workloads:
        runs[wl] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                try:
                    m = run_side(sides[side], wl, args.seed + i, seconds,
                                 args.trace)
                except RuntimeError as e:
                    print("bench_ab: %s" % e, file=sys.stderr)
                    return 2
                runs[wl][side].append(m)
            print("bench_ab: %s pair %d/%d done (%s first)"
                  % (wl, i + 1, args.pairs, order[0]), file=sys.stderr)

    any_worse = False
    print("%d pairs x %g s per workload, seeds %d..%d, parent %s, change %s"
          % (args.pairs, seconds, args.seed, args.seed + args.pairs - 1,
             sides["parent"], sides["change"]))
    for wl in workloads:
        print("\n%s" % wl)
        print("  %-36s %-30s %-30s %8s %6s  %s"
              % ("metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "change/p", "wins", "verdict"))
        for m, end_to_end in metrics:
            name = m["name"]
            par = [r.get(name) for r in runs[wl]["parent"]]
            chg = [r.get(name) for r in runs[wl]["change"]]
            if None in par or None in chg:
                continue
            higher = m["better"] == "higher"
            s = compare(par, chg, higher)
            pmed, cmed = s["parent"][0], s["change"][0]
            verdict = []
            if end_to_end and relative_worsening(pmed, cmed, higher) > m["bound"]:
                verdict.append("WORSE (bound %g)" % m["bound"])
                any_worse = True
            elif (end_to_end and s["spread"] > m["bound"]
                  and not s["dominates"]):
                verdict.append("unresolved (spread %.3g > bound %g)"
                               % (s["spread"], m["bound"]))
            if s["gain"]:
                verdict.append("gain")
            ratio = "%.3f" % (cmed / pmed) if pmed else "-"
            print("  %-36s %-30s %-30s %8s %6s  %s"
                  % ("%s (%s)" % (name, m["unit"]),
                     "%s [%s, %s]" % tuple(fmt(x) for x in s["parent"]),
                     "%s [%s, %s]" % tuple(fmt(x) for x in s["change"]),
                     ratio, "%d/%d" % (s["wins"], s["pairs"]),
                     ", ".join(verdict)))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
