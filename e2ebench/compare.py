#!/usr/bin/env python3
"""Run-to-run spread and build-to-build comparison for the e2e benchmark.

Two modes, both driven by the bounds in BENCHMARK.json:

  spread   Runs `--sets` sets (default 2) of `--runs` runs (default 10) of
           one workload on this checkout, each run with its own seed, and
           reports per end-to-end metric the median, the quartiles, the
           spread (Q3 - Q1) / median, and how far the later sets' medians
           moved from the first, each against the metric's bound. A set
           passes when every metric's spread and median move are within
           its bound and the share of failed operations is the same in
           every run.

               python3 e2ebench/compare.py spread --workload govtrack-history

  builds   Runs `--runs` pairs of runs, alternating which side goes first,
           of the same workload on two checkouts (each with its own
           e2ebench/run.py and build tree), and reports per metric both
           medians and quartiles, the share of pairs the second build won,
           and whether its median is worse than the first's by more than
           the bound.

               python3 e2ebench/compare.py builds --base ../parent \\
                   --head . --workload wiki-history

Quartiles are those of Python's statistics.quantiles(values, n=4).
`--save FILE` writes every raw result as JSON; `--load FILE` re-reports
saved results without running anything.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(root, workload, seed, seconds, trace=0):
    """One run of run.py in checkout `root`; returns the parsed result."""
    cmd = [sys.executable, os.path.join(root, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (code %d): %s" % (proc.returncode,
                                                       " ".join(cmd)))
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, head):
    """Share by which `head` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0
    change = (head - base) / base
    return change if metric["better"] == "lower" else -change


def report_spread(sets, metrics):
    ok = True
    fail_shares = {r["failed"] / r["attempted"] for s in sets for r in s}
    print("failed share per run: %s" % sorted(fail_shares))
    if len(fail_shares) != 1:
        ok = False
    print("%-20s %12s %12s %12s %8s %8s %9s" %
          ("metric", "median", "q1", "q3", "spread", "bound",
           "med-move"))
    for name, m in metrics.items():
        first = None
        for i, s in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in s]
            med, q1, q3, spread = summary(vals)
            move = 0.0 if first is None else worse_by(m, first, med)
            if first is None:
                first = med
            flag = ""
            if spread > m["bound"]:
                flag += " SPREAD"
            if move > m["bound"]:
                flag += " MOVED"
            ok = ok and not flag
            print("%-20s %12.6g %12.6g %12.6g %8.3f %8.3f %9.3f%s" %
                  (name if i == 0 else "  set %d" % (i + 1), med, q1, q3,
                   spread, m["bound"], move, flag))
    return ok


def report_builds(pairs, metrics):
    print("%-20s %12s %12s %12s %12s %7s %8s" %
          ("metric", "base med", "head med", "base q1-q3", "head q1-q3",
           "wins", "worse"))
    ok = True
    for name, m in metrics.items():
        b = [p["base"]["metrics"][name]["value"] for p in pairs]
        h = [p["head"]["metrics"][name]["value"] for p in pairs]
        bmed, bq1, bq3, _ = summary(b)
        hmed, hq1, hq3, _ = summary(h)
        wins = sum(1 for x, y in zip(b, h)
                   if (y < x if m["better"] == "lower" else y > x))
        worse = worse_by(m, bmed, hmed)
        flag = " REGRESSED" if worse > m["bound"] else ""
        ok = ok and not flag
        print("%-20s %12.6g %12.6g %5.3g-%-6.3g %5.3g-%-6.3g %3d/%-3d %8.3f%s"
              % (name, bmed, hmed, bq1, bq3, hq1, hq3, wins, len(pairs),
                 worse, flag))
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("mode", choices=["spread", "builds"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--base", default=None)
    ap.add_argument("--head", default=ROOT)
    ap.add_argument("--save", default=None)
    ap.add_argument("--load", default=None)
    args = ap.parse_args()

    spec, metrics = load_spec(ROOT)
    seconds = args.seconds or spec["run_seconds"]
    if args.load:
        with open(args.load) as f:
            data = json.load(f)
    elif args.mode == "spread":
        data = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                runs.append(run_once(ROOT, args.workload, seed, seconds))
                print("set %d run %d seed %d done" % (s + 1, i + 1, seed),
                      file=sys.stderr)
            data.append(runs)
    else:
        if not args.base:
            raise SystemExit("builds mode needs --base")
        data = []
        for i in range(args.runs):
            seed = args.seed0 + i
            sides = [("base", args.base), ("head", args.head)]
            if i % 2:
                sides.reverse()
            pair = {name: run_once(os.path.abspath(root), args.workload,
                                   seed, seconds)
                    for name, root in sides}
            data.append(pair)
            print("pair %d seed %d done" % (i + 1, seed), file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f)
    print("workload %s" % args.workload)
    ok = (report_spread(data, metrics) if args.mode == "spread"
          else report_builds(data, metrics))
    print("OK" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
