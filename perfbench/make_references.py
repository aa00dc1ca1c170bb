"""Regenerate ``references.json``: the committed digest of each workload's
simulated output per seed, and the model-accuracy lines of the default and
held-out seeds.

Run only when a change is meant to alter simulated output, and say so in
the change:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import REFERENCES, run_workload  # noqa: E402
from workloads import WORKLOADS, digest, model_lines, structure_problem  # noqa: E402

#: The experiments' default seed, and one seed kept back for rechecking
#: claims made while tuning on the default.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Seeds given a committed digest; they include both seeds above.
SEEDS = range(32)


def reference_for(workload, seed: int, scratch: str):
    requests = workload.requests(seed)
    _, report, _ = run_workload(workload, requests, scratch)
    entry = report.entries[0]
    if not entry.ok:
        raise SystemExit("%s seed %d failed: %s" % (workload.name, seed, entry.error))
    problem = structure_problem(entry.result, entry.request)
    if problem is not None:
        raise SystemExit("%s seed %d: %s" % (workload.name, seed, problem))
    return entry.result


def main() -> int:
    document = {
        "schema": "perfbench-references/1",
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "digests": {},
        "model": {},
    }
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCES)) as scratch:
        for name, workload in WORKLOADS.items():
            digests = document["digests"][name] = {}
            for seed in SEEDS if workload.seeded else [DEFAULT_SEED]:
                result = reference_for(workload, seed, scratch)
                digests[str(seed) if workload.seeded else "*"] = digest(result)
                if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                    lines = model_lines(name, result)
                    if lines:
                        document["model"].setdefault(str(seed), {}).update(lines)
                print("%s seed %d: %s" % (name, seed, digests[str(seed) if workload.seeded else "*"]),
                      flush=True)
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
