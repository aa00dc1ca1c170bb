"""Measure set-up time in a fresh process and print it as one JSON line.

Set-up is everything before the first ``Simulator`` exists: importing
``repro``, populating the component registries the workloads use and
resolving the workload's run requests (parameter validation and config
fingerprints).  Interpreter start-up is not counted.

    python3 perfbench/setup_probe.py --workload load_knee --seed 1
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    from repro.campaign import Campaign
    from repro.scenario.registry import (
        ARRIVALS, FAULT_MODELS, NI_DESIGNS, PROBES, TOPOLOGIES, WORKLOADS as COMPONENTS,
    )

    for registry in (NI_DESIGNS, TOPOLOGIES, COMPONENTS, ARRIVALS, FAULT_MODELS, PROBES):
        registry.names()
    requests = WORKLOADS[args.workload].requests(args.seed)
    Campaign(requests, max_workers=1)
    for request in requests:
        request.fingerprint()
    elapsed = time.perf_counter() - _STARTED
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
