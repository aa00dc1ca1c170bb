"""Same-host benchmark of the soNUMA NI simulator.

Runs one workload (see ``workloads.py``) back to back for ``--seconds``
through ``repro.campaign.Campaign`` (one worker, no result cache), checks
every run's simulated output against the committed digest for the seed (or,
for a seed without one, against the first run and seed-independent shape
checks), and prints each metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A results file with the host fingerprint goes
to ``perfbench/results/``; ``compare.py`` compares two of them.

    python3 perfbench/run.py --workload load_knee --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off: ``wall_s`` (median host seconds per
complete run), ``setup_s`` (median over fresh processes of the time to
import ``repro``, populate the registries and resolve the requests) and
``peak_rss_mb``.  Every run and set-up probe is scaled to a reference
host speed by ``hostspeed.py`` timed right beside it; the raw seconds go to
the results file.  ``error_rate`` (failed / attempted runs) is printed and
carried by the ``attempted``/``failed`` fields.  ``--trace 1`` alternates
untraced runs with traced ones (spans around every layer's public calls
plus cProfile self time charged to layers) and reports the per-layer
metrics and the tracing overhead; their host seconds are scaled the same
way.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402  (exits non-zero when src/ is absent)
    MODEL_PAPER, MODEL_UNITS, ROOT, SRC, WORKLOADS, Workload, digest, model_lines,
    perf_counts, structure_problem,
)
import hostspeed  # noqa: E402
import layers  # noqa: E402

from repro.campaign import Campaign  # noqa: E402
from repro.obs.session import ObsSession  # noqa: E402
from repro.obs.stream import ObsStream  # noqa: E402

RESULTS_DIR = os.path.join(HERE, "results")
REFERENCES = os.path.join(HERE, "references.json")
RESULTS_SCHEMA = "perfbench-results/1"
#: Fresh processes timed per run for ``setup_s``.
SETUP_SPAWNS = 7
#: Fewest timed runs with tracing off (with ``--trace 1``: one traced pair).
MIN_SAMPLES = 3
#: Host-speed kernel time taken after each run, as a share of that run's time.
KERNEL_SHARE = 0.2


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, which need not be a git repository.

    The ceiling keeps git from finding a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                   capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def _source_digest() -> str:
    """Hash of every ``repro`` source file: identifies the code without git."""
    sha = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


def host_fingerprint() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_reference(workload: Workload, seed: int) -> Optional[str]:
    with open(REFERENCES, encoding="utf-8") as handle:
        digests = json.load(handle)["digests"][workload.name]
    return digests.get(str(seed) if workload.seeded else "*")


class Checker:
    """Judges each run: committed digest, exact-count repeatability, shape.

    Every run must reproduce the committed digest for the seed when there
    is one, and otherwise the first run's digest plus the seed-independent
    shape checks.  Every count must repeat the first run's exactly.
    """

    def __init__(self, reference: Optional[str]) -> None:
        self.reference = reference
        self.counts: Optional[Dict[str, int]] = None
        self.attempted = 0
        self.failures: List[str] = []
        self.drift: List[str] = []
        #: Digest of the last run that completed.
        self.last_digest: Optional[str] = None

    def check(self, report, counts: Dict[str, int]) -> Optional[str]:
        """Record one run; returns its failure text, or ``None``."""
        self.attempted += 1
        problem = self._problem(report, counts)
        if problem is not None:
            self.failures.append(problem)
        return problem

    def _problem(self, report, counts: Dict[str, int]) -> Optional[str]:
        entry = report.entries[0]
        if not entry.ok:
            return "run raised: %s" % entry.error
        result = entry.result
        found = self.last_digest = digest(result)
        counts = dict(counts, **perf_counts(result))
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            changed = sorted(k for k in set(counts) | set(self.counts)
                             if counts.get(k) != self.counts.get(k))
            self.drift.extend(changed)
            return "counts drifted: %s" % ", ".join(changed)
        if self.reference is None:
            # Only a run that passes the shape checks may become the
            # reference; otherwise every later run would match a bad digest.
            problem = structure_problem(result, entry.request)
            if problem is None:
                self.reference = found
            return problem
        if found != self.reference:
            return "digest %s differs from reference %s" % (found, self.reference)
        return None


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_workload(workload: Workload, requests, scratch: str):
    """One complete run; returns ``(wall seconds, report, stream records)``."""
    gc.collect()
    started = time.perf_counter()
    session = None
    if workload.streams:
        session = ObsSession(ObsStream.open(os.path.join(scratch, "obs.jsonl")))
    try:
        report = Campaign(requests, max_workers=1, obs=session).run()
    finally:
        if session is not None:
            session.close()
    wall = time.perf_counter() - started
    return wall, report, session.stream.records if session is not None else 0


def setup_seconds(workload: Workload, seed: int) -> float:
    """Set-up time of one fresh process (see ``setup_probe.py``)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


class TracedRun:
    """Spans and a profile around one run, reduced to per-layer numbers."""

    def __init__(self) -> None:
        self.spans = layers.Spans()
        self.arrivals = 0
        self.queue_drops = 0
        self.spans.observe("OpenLoopDriver.run", self._driver_result)
        self.self_times: Dict[str, float] = {}
        self.hop_calls = 0
        #: Reference-speed factor of this run (see ``speed_factor``).
        self.scale = 1.0

    def _driver_result(self, result) -> None:
        self.arrivals += result.arrived
        self.queue_drops += result.dropped

    def run(self, workload: Workload, requests, scratch: str):
        profiler = cProfile.Profile()
        self.spans.install()
        try:
            profiler.enable()
            try:
                outcome = run_workload(workload, requests, scratch)
            finally:
                profiler.disable()
        finally:
            self.spans.uninstall()
        stats = pstats.Stats(profiler).stats
        self.self_times = layers.layer_self_times(stats)
        self.hop_calls = layers.call_count(stats, ("noc", "fabric.py"), "_hop")
        return outcome

    def counts(self) -> Dict[str, int]:
        counts = {"span." + name: calls for name, calls in self.spans.calls().items()}
        counts["load.arrivals"] = self.arrivals
        counts["load.queue_drops"] = self.queue_drops
        counts["noc._hop_calls"] = self.hop_calls
        return counts


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(traced: List[TracedRun], walls: List[float], traced_walls: List[float],
                  result, obs_records: int) -> Dict[str, float]:
    """Per-layer metrics from the traced runs and the untraced ones beside them.

    ``walls`` and ``traced_walls`` are at reference host speed already; each
    traced run's self times and spans are scaled by its own ``scale``.
    Shares are ratios within one run and stay unscaled.
    """
    metrics: Dict[str, float] = {}
    buckets = layers.LAYERS + (layers.OTHER,)
    totals = [sum(run.self_times[b] for b in buckets) for run in traced]
    for bucket in buckets:
        metrics[bucket + ".self_s"] = _median(
            [run.self_times[bucket] * run.scale for run in traced])
        metrics[bucket + ".share"] = _median(
            [run.self_times[bucket] / total for run, total in zip(traced, totals)])
    counts = traced[-1].counts()
    perf = result.metadata.perf
    events = int(perf.get("events", 0))
    packets = int(perf.get("packets", 0))
    fused = int(perf.get("fused_hops", 0))
    metrics["sim.events"] = events
    metrics["sim.fast_share"] = perf.get("fast_events", 0) / events if events else 0.0
    metrics["sim.peak_pending"] = int(perf.get("peak_pending_events", 0))
    metrics["sim.ns_per_event"] = metrics["sim.self_s"] / events * 1e9 if events else 0.0
    metrics["sim.events_per_s"] = events / _median(walls)
    metrics["noc.packets"] = packets
    metrics["noc.fused_hops"] = fused
    # Each NocFabric._hop call acquires one link, then keeps walking in
    # place (a fused hop) or schedules the next hop as an event: fused hops
    # over every hop walked there.
    walked = fused + counts["noc._hop_calls"]
    metrics["noc.fused_share"] = fused / walked if walked else 0.0
    metrics["noc.send_calls"] = counts["span.NocFabric.send"]
    metrics["noc.us_per_packet"] = metrics["noc.self_s"] / packets * 1e6 if packets else 0.0
    metrics["ni.transfers"] = counts["span.NIBackend.start_transfer"]
    metrics["ni.requests_served"] = counts["span.RemoteRequestPipeline.handle_request"]
    metrics["coherence.accesses"] = counts["span.CoherenceProtocol.access"]
    metrics["memory.services"] = counts["span.MemoryController.service"]
    metrics["node.feeds"] = counts["span.CoreModel.feed"]
    metrics["scenario.builds"] = counts["span.MachineBuilder.build"]
    metrics["scenario.build_s"] = _median(
        [run.spans.total("MachineBuilder.build", "ManycoreSoc.__init__") * run.scale
         for run in traced])
    metrics["load.arrivals"] = counts["load.arrivals"]
    metrics["load.queue_drops"] = counts["load.queue_drops"]
    metrics["faults.windows"] = int(perf.get("fault_windows", 0))
    metrics["faults.hits"] = int(perf.get("fault_hits", 0))
    metrics["obs.records"] = obs_records
    metrics["campaign.span_self_s"] = _median(
        [(run.spans.total("Campaign.run") - run.spans.total("ExperimentSpec.run")) * run.scale
         for run in traced])
    metrics["trace.wall_s"] = _median(traced_walls)
    metrics["trace.overhead"] = _median(traced_walls) / _median(walls)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _samples(values: List[float]) -> Dict[str, object]:
    return {"median": _median(values), "n": len(values),
            "min": min(values) if values else 0.0, "max": max(values) if values else 0.0,
            "values": values}


def speed_factor(seconds: float, speed: List[float]) -> float:
    """Times the host-speed kernel for ``KERNEL_SHARE`` of a step that took
    ``seconds`` (at least one call); returns the factor that scales that
    step's host seconds to reference host speed.  The kernel times go to
    ``speed``.

    Host speed swings within seconds, so every step is scaled by the kernel
    timed right beside it rather than by one factor for the whole run.
    """
    taken: List[float] = []
    while not taken or sum(taken) < KERNEL_SHARE * seconds:
        taken.append(hostspeed.kernel_seconds())
    speed.extend(taken)
    return hostspeed.REFERENCE_S / statistics.mean(taken)


def benchmark(workload: Workload, seed: int, seconds: float, traced_mode: bool,
              scratch: str) -> Dict[str, object]:
    """Measure one workload; returns the results document."""
    requests = workload.requests(seed)
    checker = Checker(load_reference(workload, seed))
    #: Host-speed kernel seconds: before each setup probe, after each run
    #: (traced or not).
    speed: List[float] = []
    setup: List[float] = []
    setup_scaled: List[float] = []
    if not traced_mode:
        for _ in range(SETUP_SPAWNS):
            factor = speed_factor(0.0, speed)
            setup.append(setup_seconds(workload, seed))
            setup_scaled.append(setup[-1] * factor)
    last_ok = []

    def untraced():
        wall, report, records = run_workload(workload, requests, scratch)
        if checker.check(report, {"obs.records": records}) is None:
            last_ok[:] = [report.entries[0].result, records]
        return wall, wall * speed_factor(wall, speed)

    first_wall, _ = untraced()  # warm-up: lazy imports, allocator
    walls: List[float] = []
    scaled_walls: List[float] = []
    traced_runs: List[TracedRun] = []
    traced_walls: List[float] = []
    deadline = time.perf_counter() + seconds
    least = 1 if traced_mode else MIN_SAMPLES
    while time.perf_counter() < deadline or len(walls) < least:
        wall, scaled = untraced()
        walls.append(wall)
        scaled_walls.append(scaled)
        if traced_mode:
            run = TracedRun()
            wall, traced_report, traced_records = run.run(workload, requests, scratch)
            run.scale = speed_factor(wall, speed)
            checker.check(traced_report, {"obs.records": traced_records})
            if traced_runs and run.counts() != traced_runs[0].counts():
                checker.failures.append("span counts drifted between traced runs")
                checker.drift.append("span counts")
            traced_runs.append(run)
            traced_walls.append(wall * run.scale)
    result, records = last_ok or (None, 0)
    if traced_mode and result is None:
        raise SystemExit("perfbench: no run succeeded: %s" % "; ".join(checker.failures))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced_mode:
        metrics = layer_metrics(traced_runs, scaled_walls, traced_walls, result, records)
    else:
        metrics = {"wall_s": _median(scaled_walls), "setup_s": _median(setup_scaled),
                   "peak_rss_mb": peak_rss_mb}
    document = {
        "metrics": metrics,
        "host_speed_s": _samples(speed),
        "first_wall_s": first_wall,
        "raw_wall_s": _samples(walls),
        "scaled_wall_s": _samples(scaled_walls),
        "raw_setup_s": _samples(setup) if setup else None,
        "scaled_setup_s": _samples(setup_scaled) if setup else None,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "steady": not checker.drift,
        "digest": checker.last_digest,
        "counts": checker.counts,
        "model": model_lines(workload.name, result) if result is not None else {},
    }
    if traced_mode:
        document["spans"] = traced_runs[-1].spans.to_document()
    return document


def _metric_units() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {section: {m["name"]: m["unit"] for m in declared[section]}
            for section in ("end_to_end", "per_layer")}


def _describe(samples: Dict[str, object], what: str) -> str:
    return "raw median %.4f s of %d %s (min %.4f, max %.4f)" % (
        samples["median"], samples["n"], what, samples["min"], samples["max"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    units = _metric_units()["per_layer" if args.trace else "end_to_end"]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as scratch:
        document = benchmark(workload, args.seed, args.seconds, bool(args.trace), scratch)
    attempted, failed = document["attempted"], document["failed"]
    correct = failed == 0 and document["steady"]

    stem = "%s-s%d-t%d" % (workload.name, args.seed, args.trace)
    spans = document.pop("spans", None)
    if spans is not None:
        with open(os.path.join(RESULTS_DIR, stem + "-spans.json"), "w", encoding="utf-8") as handle:
            json.dump(spans, handle, separators=(",", ":"))
    document = dict({"schema": RESULTS_SCHEMA, "workload": workload.name, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace, "correct": correct,
                     "host": host_fingerprint()}, **document)
    path = os.path.join(RESULTS_DIR, stem + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    metrics = document["metrics"]
    speed = document["host_speed_s"]
    print("workload %s  seed %d  trace %d  (%s, %s CPUs, Python %s)" % (
        workload.name, args.seed, args.trace, document["host"]["cpu_model"],
        document["host"]["nproc"], document["host"]["python"]))
    print("  host speed   kernel median %.4f s over %d calls (min %.4f, max %.4f); each step's "
          "host time x %.3f s / kernel time beside it" % (
              speed["median"], speed["n"], speed["min"], speed["max"], hostspeed.REFERENCE_S))
    if args.trace:
        print("  wall_s       %s; warm-up %.4f s" % (
            _describe(document["raw_wall_s"], "untraced runs"), document["first_wall_s"]))
    else:
        print("  wall_s       %.4f s at reference speed; %s; warm-up %.4f s" % (
            metrics["wall_s"], _describe(document["raw_wall_s"], "runs"),
            document["first_wall_s"]))
        print("  setup_s      %.4f s at reference speed; %s" % (
            metrics["setup_s"], _describe(document["raw_setup_s"], "fresh processes")))
        print("  peak_rss_mb  %.2f MB" % metrics["peak_rss_mb"])
    print("  error_rate   %.4f fraction  (%d failed of %d runs)" % (
        failed / attempted, failed, attempted))
    for problem in document["failures"]:
        print("  FAILED: %s" % problem)
    print("  counts %s  digest %s" % ("steady" if document["steady"] else "DRIFTED",
                                       document["digest"]))
    for name, value in sorted(document["model"].items()):
        print("  %s  %g %s  (paper: %s; reported, not gated)" % (
            name, value, MODEL_UNITS[name], MODEL_PAPER[name] or "no figure"))
    if args.trace:
        for name, value in sorted(metrics.items()):
            print("  %-26s %14.6g %s" % (name, value, units[name]))
    print("  results %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
