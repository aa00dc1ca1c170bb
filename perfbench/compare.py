"""Compare two benchmark results files from ``perfbench/results/``.

Ratios are printed only when both files come from the same host (Python
version and implementation, platform, CPU count and CPU model) and the same
benchmark settings (workload, seed, seconds, trace).  Otherwise the
mismatches are listed and the exit code is 1: numbers from two hosts say
nothing about the code.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

HOST_KEYS = ("python", "implementation", "platform", "nproc", "cpu_model")
SETTING_KEYS = ("schema", "workload", "seed", "seconds", "trace")


def mismatches(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    found = ["host %s: %r vs %r" % (key, a["host"].get(key), b["host"].get(key))
             for key in HOST_KEYS if a["host"].get(key) != b["host"].get(key)]
    found += ["setting %s: %r vs %r" % (key, a.get(key), b.get(key))
              for key in SETTING_KEYS if a.get(key) != b.get(key)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("other")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.other, encoding="utf-8") as handle:
        other = json.load(handle)
    problems = mismatches(base, other)
    if problems:
        print("not comparable, no ratios reported:")
        for problem in problems:
            print("  " + problem)
        return 1
    print("code: %s -> %s" % (base["host"]["source_digest"], other["host"]["source_digest"]))
    if base["digest"] != other["digest"]:
        print("simulated output differs: digest %s -> %s"
              % (base["digest"], other["digest"]))
    a, b = base["metrics"], other["metrics"]
    for name in sorted(set(a) & set(b)):
        ratio = "%.3f" % (b[name] / a[name]) if a[name] else "-"
        print("  %-26s %14.6g %14.6g  ratio %s" % (name, a[name], b[name], ratio))
    return 0


if __name__ == "__main__":
    sys.exit(main())
