"""The benchmark's three workloads, their run requests and output checks.

Each workload is a list of :class:`repro.campaign.RunRequest` objects run
through one :class:`repro.campaign.Campaign` with one worker and no result
cache (the path ``repro-experiments run`` takes).  The benchmark seed goes
to every seeded parameter: ``load_sweep``'s arrival seed, and both
``chaos_sweep``'s arrival/fault seed and the ``rw_mix`` workload seed.
``fig6`` has no randomness, so its inputs are the same for every seed.

A run's simulated output is reduced to a digest over the headers, rows,
notes, warnings, config fingerprint and integer event counters; host-time
fields (``wall_time_s``, the wall/rate fields of ``perf``) are left out, so
the digest is the same in every process and on every host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit("perfbench: no repro sources at %s" % SRC)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.campaign import RunRequest  # noqa: E402
from repro.experiments.base import ExperimentResult  # noqa: E402

#: Integer counters of ``ResultMetadata.perf`` (the rest are host-time).
PERF_COUNTS = ("events", "packets", "peak_pending_events", "fused_hops",
               "fast_events", "fault_windows", "fault_hits")

#: The CI chaos-smoke fault configuration: router degradation cascading
#: into slow nodes, with targets weighted by distance from an epicentre.
CHAOS_FAULT_PARAMS = ("cascade=slow_node", "cascade_probability=0.75",
                      "cascade_delay_cycles=150", "blast_decay=0.6")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Whether the benchmark seed changes the simulated inputs.
    seeded: bool
    #: Whether runs stream telemetry through an ``ObsSession``.
    streams: bool

    def requests(self, seed: int) -> List[RunRequest]:
        if self.name == "fig6_latency":
            return [RunRequest("fig6", {})]
        if self.name == "load_knee":
            return [RunRequest("load_sweep", {"seed": seed})]
        # rw_mix on per_tile saturates near 4.7 req/kcycle: 3 sits below
        # the knee and 20 well past it.
        return [RunRequest("chaos_sweep", {
            "workload": "rw_mix", "design": "per_tile", "topology": "mesh",
            "faults": "router_degrade", "intensities": [0.5], "loads": [3.0, 20.0],
            "measure_cycles": 12000.0, "warmup_cycles": 2000.0, "seed": seed,
            "params": ["seed=%d" % seed], "fault_params": list(CHAOS_FAULT_PARAMS),
        })]


#: Why each workload was chosen is recorded in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig6_latency", seeded=False, streams=False),
    Workload("load_knee", seeded=True, streams=False),
    Workload("chaos_writes", seeded=True, streams=True),
)}


def perf_counts(result: ExperimentResult) -> Dict[str, int]:
    """The run's integer counters: ``perf`` counts plus ``events``."""
    counts = {"perf." + key: int(result.metadata.perf.get(key, 0)) for key in PERF_COUNTS}
    counts.update({"events." + key: int(value)
                   for key, value in sorted(result.metadata.events.items())})
    return counts


def digest(result: ExperimentResult) -> str:
    """Host-independent digest of one result's simulated output."""
    payload = {
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
        "warnings": list(result.metadata.warnings),
        "config_fingerprint": result.metadata.config_fingerprint,
        "counts": perf_counts(result),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def structure_problem(result: ExperimentResult, request: RunRequest) -> Optional[str]:
    """Seed-independent shape checks, for seeds without a committed digest."""
    params = request.resolved_params()
    if request.experiment == "fig6":
        expected = len(params["sizes"])
    elif "intensities" in params:
        expected = len(params["loads"]) * (len(params["intensities"]) + 1)
    else:
        expected = len(params["loads"])
    if len(result.rows) != expected:
        return "expected %d rows, got %d" % (expected, len(result.rows))
    for row in result.rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                return "non-finite cell in row %r" % (row,)
    if not result.metadata.perf.get("events"):
        return "the run simulated no events"
    return None


def _column(result: ExperimentResult, prefix: str) -> List[object]:
    for header in result.headers:
        if header.startswith(prefix):
            return result.column(header)
    raise KeyError(prefix)


def model_lines(name: str, result: ExperimentResult) -> Dict[str, float]:
    """Model-accuracy figures the paper states (reported, never gated)."""
    if name == "fig6_latency":
        sizes = [int(size) for size in _column(result, "Transfer")]
        edge = _column(result, "NIedge")
        split = _column(result, "NIsplit")
        per_tile = _column(result, "NIper-tile")
        slowest = [size for size, e, s, p in zip(sizes, edge, split, per_tile) if p > max(e, s)]
        return {
            "model.fig6_edge_penalty_64B_ns": float(edge[0]) - float(split[0]),
            "model.fig6_pertile_slowest_B": float(slowest[0]) if slowest else 0.0,
        }
    if name == "load_knee":
        achieved = _column(result, "Achieved")
        ok = _column(result, "SLO ok")
        meeting = [float(a) for a, good in zip(achieved, ok) if good]
        return {"model.load_knee_saturation": max(meeting) if meeting else 0.0}
    return {}


#: What the paper says for each model line (``None``: no paper figure).
MODEL_PAPER = {
    "model.fig6_edge_penalty_64B_ns": "about 130 ns",
    "model.fig6_pertile_slowest_B": "8-16 KB",
    "model.load_knee_saturation": None,
}
MODEL_UNITS = {
    "model.fig6_edge_penalty_64B_ns": "ns",
    "model.fig6_pertile_slowest_B": "B",
    "model.load_knee_saturation": "req/kcycle",
}
