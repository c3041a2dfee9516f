#!/usr/bin/env python3
"""Interleaved A/B runs of the live-TCP benchmark between two git refs.

    tools/ab_bench.py --base HEAD~1 --cand WORKTREE --pairs 10 \\
        --workloads lod_browse,sequoia_bulk [--trace 0]

Each side is exported into its own directory under a temporary work
directory (`git archive`, or for WORKTREE the checkout's tracked and
untracked-but-not-ignored files) and built there by perfbench/run.py.
A stamp file names what was exported (the commit, or a hash of the
WORKTREE files), so a reused --workdir is exported afresh whenever its
side has changed.  Then, for every workload, N pairs run back to back
at BENCHMARK.json's run_seconds; pair i uses seed --first-seed + i on
both sides and alternates which side goes first, so drift of the host's
speed lands on both sides alike.

For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles, the candidate's change of the median, and in how
many pairs the candidate was better.  Per-layer metrics found in the
results (run with --trace 1 to get them) are printed as medians.  Each
side's failed/attempted operations and incorrect runs are listed too.

--claim WORKLOAD:METRIC applies the benchmark's gain rule to one metric:
the candidate must be better in at least 9 of 10 pairs run (scaled to
--pairs; a pair without a result on either side counts as a loss), its
median must beat the base median by more than the base's interquartile
range, every candidate run must be correct, and the candidate may not
fail a larger share of its operations than the base.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"
STAMP = ".ab_bench_stamp"


def worktree_files():
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        check=True, stdout=subprocess.PIPE).stdout.decode()
    # A path deleted in the checkout but still in the index is skipped.
    return [path for path in filter(None, listed.split("\0"))
            if os.path.isfile(os.path.join(ROOT, path))]


def tree_hash(top, paths):
    """Hashes every path under `top` and its contents."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(top, path), "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return "worktree " + digest.hexdigest()


def stamp_of(ref):
    """Names what exporting `ref` yields: its commit, or for WORKTREE a
    hash of the files the export copies."""
    if ref != WORKTREE:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", ref + "^{commit}"],
            check=True, stdout=subprocess.PIPE, text=True).stdout.strip()
    return tree_hash(ROOT, worktree_files())


def export(ref, dest):
    """Writes the files of `ref` (a git ref or WORKTREE) into `dest`.
    A `dest` exported earlier from the same stamp is kept, with its
    build; any other `dest` is removed and exported afresh."""
    stamp = stamp_of(ref)
    stamp_path = os.path.join(dest, STAMP)
    if os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                print("reusing %s (%s)" % (dest, stamp), file=sys.stderr)
                return
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if ref != WORKTREE:
        archive = subprocess.run(["git", "-C", ROOT, "archive", stamp],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    else:
        paths = worktree_files()
        for path in paths:
            os.makedirs(os.path.dirname(os.path.join(dest, path)),
                        exist_ok=True)
            shutil.copy2(os.path.join(ROOT, path), os.path.join(dest, path))
        # Stamp what was copied, in case the checkout changed meanwhile.
        stamp = tree_hash(dest, paths)
    with open(stamp_path, "w") as f:
        f.write(stamp)


def build(checkout):
    """Builds perfbench in `checkout` with run.py's own build step.
    Returns whether it succeeded; on failure prints the build output."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         "import sys; sys.path.insert(0, 'perfbench'); import run; "
         "sys.exit(0 if run.build() else 1)"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
    return proc.returncode == 0


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns its result object or None."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric(result, name):
    entry = result["metrics"].get(name) if result else None
    return None if entry is None else entry["value"]


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def report(workload, pairs, spec):
    """Prints one workload's table; returns the stats claims are judged
    on: {"sides": {side: counts}, "metrics": {metric: stats}}."""
    print("\n== %s: %d pairs" % (workload, len(pairs)))
    sides = {}
    for side in ("base", "cand"):
        runs = [p[side] for p in pairs]
        ok = [r for r in runs if r is not None]
        sides[side] = {
            "failed": sum(r["failed"] for r in ok),
            "attempted": sum(r["attempted"] for r in ok),
            "incorrect": sum(1 for r in ok if not r["correct"]),
            "missing": len(runs) - len(ok),
        }
        print("  %s: failed/attempted %d/%d, incorrect runs %d, "
              "runs without a result %d"
              % (side, sides[side]["failed"], sides[side]["attempted"],
                 sides[side]["incorrect"], sides[side]["missing"]))
    stats = {}
    for entry in spec["end_to_end"]:
        name = entry["name"]
        both = [(metric(p["base"], name), metric(p["cand"], name))
                for p in pairs]
        base_values = [b for b, _ in both if b is not None]
        cand_values = [c for _, c in both if c is not None]
        if not base_values or not cand_values:
            continue
        if not stats:
            print("  %-22s %26s %26s %8s %6s"
                  % ("metric", "base median [q1 - q3]",
                     "cand median [q1 - q3]", "change", "wins"))
        base = quartiles(base_values)
        cand = quartiles(cand_values)
        # A pair missing either result is not a win.
        wins = sum(1 for b, c in both if b is not None and c is not None
                   and better(c, b, entry["better"]))
        change = (cand[1] / base[1] - 1) * 100 if base[1] else 0.0
        stats[name] = (base, cand, wins, entry["better"])
        print("  %-22s %10.4g [%.4g - %.4g] %10.4g [%.4g - %.4g] %+7.1f%% "
              "%3d/%d" % (name, base[1], base[0], base[2], cand[1], cand[0],
                          cand[2], change, wins, len(pairs)))
    layers = [e["name"] for e in spec["per_layer"]
              if any(metric(p["base"], e["name"]) is not None
                     for p in pairs)]
    if layers:
        print("  %-34s %14s %14s" % ("per-layer median", "base", "cand"))
    for name in layers:
        values = {side: [metric(p[side], name) for p in pairs]
                  for side in ("base", "cand")}
        medians = {side: statistics.median([v for v in vals if v is not None])
                   if any(v is not None for v in vals) else float("nan")
                   for side, vals in values.items()}
        print("  %-34s %14.6g %14.6g" % (name, medians["base"],
                                         medians["cand"]))
    return {"sides": sides, "metrics": stats}


def failure_share(counts):
    if not counts["attempted"]:
        return 0.0
    return counts["failed"] / counts["attempted"]


def check_claim(claim, stats_by_workload, pairs_run):
    workload, _, name = claim.partition(":")
    report_stats = stats_by_workload.get(workload)
    stats = report_stats and report_stats["metrics"].get(name)
    if not stats:
        print("claim %s: no data: FAIL" % claim)
        return False
    base, cand, wins, direction = stats
    base_counts = report_stats["sides"]["base"]
    cand_counts = report_stats["sides"]["cand"]
    needed = -(-9 * pairs_run // 10)
    gap = cand[1] - base[1] if direction == "higher" else base[1] - cand[1]
    iqr = base[2] - base[0]
    reasons = []
    if wins < needed:
        reasons.append("too few wins")
    if gap <= iqr:
        reasons.append("median gap within the base IQR")
    if cand_counts["missing"]:
        reasons.append("candidate runs without a result")
    if cand_counts["incorrect"]:
        reasons.append("incorrect candidate runs")
    if failure_share(cand_counts) > failure_share(base_counts):
        reasons.append("candidate fails a larger share of operations")
    print("claim %s: wins %d/%d (need %d), median gap %.4g vs base IQR "
          "%.4g, failed %d/%d vs base %d/%d: %s"
          % (claim, wins, pairs_run, needed, gap, iqr,
             cand_counts["failed"], cand_counts["attempted"],
             base_counts["failed"], base_counts["attempted"],
             "FAIL (%s)" % ", ".join(reasons) if reasons else "PASS"))
    return not reasons


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git ref of the baseline, or WORKTREE")
    parser.add_argument("--cand", required=True,
                        help="git ref of the candidate, or WORKTREE")
    parser.add_argument("--workloads", default="lod_browse,sequoia_bulk")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD:METRIC to test with the gain rule")
    parser.add_argument("--workdir", default=None,
                        help="where to export and build (default: a "
                             "temporary directory, removed afterwards)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_bench.")
    checkouts = {"base": os.path.join(workdir, "base"),
                 "cand": os.path.join(workdir, "cand")}
    try:
        for side, ref in (("base", args.base), ("cand", args.cand)):
            export(ref, checkouts[side])
            print("building %s (%s) in %s" % (side, ref, checkouts[side]),
                  file=sys.stderr)
            if not build(checkouts[side]):
                print("build of %s failed" % ref, file=sys.stderr)
                return 2

        stats_by_workload = {}
        for workload in args.workloads.split(","):
            pairs = []
            for i in range(args.pairs):
                order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
                pair = {}
                for side in order:
                    pair[side] = run_once(checkouts[side], workload,
                                          args.first_seed + i, seconds,
                                          args.trace)
                print("%s pair %d/%d done (%s first)"
                      % (workload, i + 1, args.pairs, order[0]),
                      file=sys.stderr)
                pairs.append(pair)
            stats_by_workload[workload] = report(workload, pairs, spec)

        passed = [check_claim(c, stats_by_workload, args.pairs)
                  for c in args.claim]
        return 0 if all(passed) else 1
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
