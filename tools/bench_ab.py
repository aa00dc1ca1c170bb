#!/usr/bin/env python
"""Same-host A/B of two commits on the perfbench workloads.

Checks out a reference commit and HEAD into throw-away ``git worktree``
directories (local, no network), then runs each tree's own unmodified
``perfbench/run.py`` in alternating order — reference first on even pairs,
HEAD first on odd ones — so host-speed drift hits both sides alike.  Every
run lasts the ``run_seconds`` that HEAD's ``BENCHMARK.json`` fixes.  For
every workload and end-to-end metric declared there it prints each side's
median and quartiles, the pairs the change won, and a verdict by the rule
of the choosing-metrics guide:

* ``win``: the change is better on at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the reference's
  inter-quartile range;
* ``worse``: the change's median is worse than the reference's by more
  than the metric's bound;
* ``unresolved``: the reference's own spread (IQR ÷ median) is wider than
  the bound, so "no worse" cannot be told apart from noise;
* ``within bound``: otherwise.

Any run that reports ``correct: false`` or a failed run is listed and makes
the tool exit 1.

Example — ten pairs of load_knee at seed 1 against the parent commit::

    python tools/bench_ab.py --ref HEAD~1 --workload load_knee --pairs 10
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def _checkout(rev: str) -> str:
    """A detached worktree of ``rev`` under ``.bench_build/``; returns its path."""
    sha = _git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(BUILD_DIR, "ab-" + sha[:12])
    if not os.path.isdir(path):
        os.makedirs(BUILD_DIR, exist_ok=True)
        _git("worktree", "add", "--detach", path, sha)
    return path


def _remove(path: str) -> None:
    _git("worktree", "remove", "--force", path)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """One ``perfbench/run.py`` process in ``tree``; returns its last JSON line."""
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {"correct": False, "failed": 1, "metrics": {},
                "error": completed.stderr.strip().splitlines()[-1:] or ["exit %d" % completed.returncode]}
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 (inclusive method; a single sample is its own quartiles)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(ref: Sequence[float], new: Sequence[float], better: str, bound: float) -> Dict[str, object]:
    """Compare paired samples of one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for a, b in zip(ref, new) if sign * (b - a) < 0)
    ref_q, new_q = quartiles(ref), quartiles(new)
    iqr = ref_q[2] - ref_q[0]
    gap = sign * (ref_q[1] - new_q[1])  # > 0 when the change is better
    if won >= math.ceil(0.9 * len(ref)) and gap > iqr:
        outcome = "win"
    elif -gap > bound * ref_q[1]:
        outcome = "worse"
    elif iqr > bound * ref_q[1]:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {"ref": ref_q, "new": new_q, "ratio": new_q[1] / ref_q[1] if ref_q[1] else math.nan,
            "won": won, "pairs": len(ref), "verdict": outcome}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="reference commit (e.g. HEAD~1)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default every declared workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"ref": _checkout(args.ref), "new": _checkout("HEAD")}
    try:
        with open(os.path.join(trees["new"], "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
        metrics = declared["end_to_end"]
        seconds = float(declared["run_seconds"])
        workloads = args.workload or [w["name"] for w in declared["workloads"]]
        samples = {w: {side: [] for side in trees} for w in workloads}
        problems: List[str] = []
        for workload in workloads:
            for pair in range(args.pairs):
                for side in (("ref", "new") if pair % 2 == 0 else ("new", "ref")):
                    outcome = run_once(trees[side], workload, args.seed, seconds)
                    samples[workload][side].append(outcome)
                    if not outcome.get("correct") or outcome.get("failed"):
                        problems.append("%s %s pair %d: correct=%s failed=%s %s" % (
                            workload, side, pair, outcome.get("correct"),
                            outcome.get("failed"), outcome.get("error", "")))
                    print("%s pair %d %s done" % (workload, pair + 1, side), file=sys.stderr)
    finally:
        for path in set(trees.values()):
            _remove(path)

    print("A/B  ref %s  new %s  seed %d  %d pairs  --seconds %g" % (
        _git("rev-parse", args.ref)[:10], _git("rev-parse", "HEAD")[:10],
        args.seed, args.pairs, seconds))
    print("%-13s %-12s %-26s %-26s %6s %6s  %s" % (
        "workload", "metric", "ref median [Q1, Q3]", "new median [Q1, Q3]", "ratio", "won", "verdict"))
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            ref = [run["metrics"][name]["value"] for run in samples[workload]["ref"]
                   if name in run.get("metrics", {})]
            new = [run["metrics"][name]["value"] for run in samples[workload]["new"]
                   if name in run.get("metrics", {})]
            if len(ref) != args.pairs or len(new) != args.pairs:
                continue
            result = verdict(ref, new, metric["better"], metric["bound"])
            print("%-13s %-12s %-26s %-26s %6.3f %6s  %s" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (result["ref"][1], result["ref"][0], result["ref"][2]),
                "%.4g [%.4g, %.4g]" % (result["new"][1], result["new"][0], result["new"][2]),
                result["ratio"], "%d/%d" % (result["won"], result["pairs"]), result["verdict"]))
    for problem in problems:
        print("INCORRECT RUN: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
