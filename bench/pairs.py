#!/usr/bin/env python3
"""Interleaved A/B pairs of one perfbench workload: a base revision
against the working tree.

Run from the root of a source checkout:

    python3 bench/pairs.py --workload txn-feed --seed 1 --pairs 10 --base HEAD

(or `make perf-pairs W=txn-feed SEED=1 N=10 BASE=HEAD`).  The base
revision's committed files are exported with `git archive` into a fresh
directory under $TMPDIR, so each side builds from its own source into
its own `.bench_build`.  Pair i runs `perfbench/run.py` once per side,
base first on even pairs and the working tree first on odd ones, so
neither side always runs on a cooler or warmer machine.

Prints every pair's figures, then per metric: both medians, the change,
the base's interquartile range, how many pairs the working tree won,
and the verdict of the spread rule: a metric is `better` (or `worse`)
when one side wins at least 9 in 10 pairs and the medians differ by more
than the base's IQR (so `--pairs` must be at least 10).  Against its
bound in BENCHMARK.json a metric is:

- `unresolved` when the base's IQR, relative to the base median, is
  wider than the bound, unless every working-tree run reads better than
  every base run: the base's own spread cannot tell a regression from
  noise, so identical code could fail;
- `REGRESSED` when the working tree's median is worse than the base's
  by more than the bound, and either the metric is resolved or every
  working-tree run reads worse than every base run.

Exit status: 1 when a run fails a check, fails an operation, or a
metric regresses; else 3 when a metric is unresolved (the last line
names them); else 0.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


# The spread rule's 9-in-10 needs at least ten pairs.
MIN_PAIRS = 10


def export(rev, dest):
    """Committed files of [rev], extracted into [dest]."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"pairs.py: git archive {rev} failed")


def run_once(cwd, args):
    """One perfbench run in [cwd]; its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit(f"pairs.py: no result from {cwd} (exit {p.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        # Fewer pairs cannot meet the spread rule, and a small base IQR
        # misses a bimodal metric's other mode: identical code can fail.
        ap.error(f"--pairs must be at least {MIN_PAIRS} (got {args.pairs})")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec.get("per_layer", [])}

    unresolved = []
    tmp = tempfile.mkdtemp(prefix="verlib-pairs-")
    try:
        export(args.base, tmp)
        sides = {"base": tmp, "head": os.getcwd()}
        runs = {"base": [], "head": []}
        bad = False
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                r = run_once(sides[side], args)
                runs[side].append(r)
                bad |= (not r["correct"]) or r["failed"] > 0
            b, h = runs["base"][-1]["metrics"], runs["head"][-1]["metrics"]
            shown = [n for n in metrics if n in b and n in h][:6]
            print(f"pair {i + 1:2d} ({order[0]} first): "
                  + "  ".join(f"{n} {b[n]['value']:.4g}/{h[n]['value']:.4g}"
                              for n in shown), flush=True)

        print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs, "
              f"base {args.base} vs working tree (base/head)")
        print(f"{'metric':34s} {'base':>11s} {'head':>11s} {'change':>8s} "
              f"{'base IQR':>10s} {'wins':>6s}  verdict")
        for name, m in metrics.items():
            if name not in runs["base"][0]["metrics"]:
                continue
            bv = [r["metrics"][name]["value"] for r in runs["base"]]
            hv = [r["metrics"][name]["value"] for r in runs["head"]]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for x, y in zip(bv, hv) if sign * (y - x) > 0)
            losses = sum(1 for x, y in zip(bv, hv) if sign * (y - x) < 0)
            bmed, hmed = statistics.median(bv), statistics.median(hv)
            q1, q3 = quartiles(bv)
            iqr = q3 - q1
            gap = sign * (hmed - bmed)
            need = -(-9 * args.pairs // 10)
            if gap > iqr and wins >= need:
                verdict = "better"
            elif -gap > iqr and losses >= need:
                verdict = "worse"
            else:
                verdict = "same"
            bound = m.get("bound")
            if bound is not None and bmed != 0:
                past_bound = -gap / abs(bmed) > bound
                all_worse = all(sign * (y - x) < 0 for x in bv for y in hv)
                all_better = all(sign * (y - x) > 0 for x in bv for y in hv)
                if past_bound and all_worse:
                    verdict = "REGRESSED"
                elif iqr / abs(bmed) > bound and not all_better:
                    verdict = "unresolved"
                    unresolved.append(name)
                elif past_bound:
                    verdict = "REGRESSED"
                bad |= verdict == "REGRESSED"
            change = (hmed - bmed) / abs(bmed) * 100 if bmed else float("nan")
            print(f"{name:34s} {bmed:11.4g} {hmed:11.4g} {change:+7.1f}% "
                  f"{iqr:10.4g} {wins:3d}/{args.pairs:<2d}  {verdict}")
        fails = [r["failed"] for s in runs.values() for r in s]
        print(f"failed operations: {sum(fails)}; every reply checked: "
              f"{all(r['correct'] for s in runs.values() for r in s)}")
        if bad:
            return 1
        if unresolved:
            print(f"{args.workload}: unresolved (base IQR wider than the "
                  f"bound): {', '.join(unresolved)}")
            return 3
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
