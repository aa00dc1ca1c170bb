"""The ``chaos_sweep`` experiment: fault intensity x offered load grid.

Extends the ``load_sweep`` methodology to resilience: every offered load is
first run fault-free (the baseline twin — same spec, same seed, same arrival
schedule), then once per fault intensity with a seeded
:class:`~repro.faults.injector.FaultInjector` driving the chosen fault model
on an MTBF/MTTR window schedule.  Per grid cell the experiment reports the
achieved throughput, queue-bound vs fault-induced drops, the exact p99 and
its *tail amplification* over the baseline, and the mean *recovery
transient* (cycles from each fault window's recovery until the rolling p99
is back within tolerance of the baseline).  Per intensity it digests the
*SLO-preserving degraded throughput*: the highest achieved throughput whose
tail still meets the fault-free SLO.  Sweepable like any experiment::

    repro-experiments run chaos_sweep --set faults=link_down
    repro-experiments sweep chaos_sweep --set design=edge,split \\
        --set faults=router_degrade,ni_stall --parallel 4
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fault_profile import render_fault_profile
from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.load_sweep import DROP_LIMIT, meets_slo
from repro.experiments.scenario_run import parse_workload_params
from repro.experiments.spec import Parameter, experiment
from repro.faults.metrics import recovery_transient_cycles, tail_amplification
from repro.load.driver import OpenLoopDriver
from repro.scenario.registry import (
    ARRIVALS,
    FAULT_MODELS,
    NI_DESIGNS,
    TOPOLOGIES,
    WORKLOADS,
)
from repro.scenario.spec import ScenarioSpec

#: Fault intensities walked per offered load (0.0 — the baseline — is
#: always run and reported as its own row).
DEFAULT_INTENSITIES = (0.25, 0.5)
#: Offered loads bracketing the default scenario's healthy operating range.
DEFAULT_LOADS = (5.0, 20.0)


@experiment(
    name="chaos_sweep",
    title="Fault-injection resilience sweep",
    description="Tail amplification, degraded throughput and recovery "
                "transients over a fault intensity x offered load grid.",
    parameters=(
        Parameter("design", str, default="split",
                  choices=lambda: NI_DESIGNS.names(messaging=True),
                  help="NI design (from the design registry)"),
        Parameter("topology", str, default="mesh",
                  choices=lambda: TOPOLOGIES.names(scope="chip"),
                  help="on-chip topology (from the topology registry)"),
        Parameter("workload", str, default="kvstore",
                  choices=lambda: WORKLOADS.names(),
                  help="workload (from the workload registry)"),
        Parameter("arrivals", str, default="poisson",
                  choices=lambda: ARRIVALS.names(),
                  help="open-loop arrival process (from the ARRIVALS registry)"),
        Parameter("faults", str, default="router_degrade",
                  choices=lambda: FAULT_MODELS.names(),
                  help="fault model to inject (from the FAULT_MODELS registry)"),
        Parameter("intensities", float, default=DEFAULT_INTENSITIES, repeated=True,
                  help="fault intensities to walk (each in [0, 1]; the "
                       "fault-free baseline always runs)"),
        Parameter("loads", float, default=DEFAULT_LOADS, repeated=True,
                  help="offered loads to walk, in requests per kcycle"),
        Parameter("slo_factor", float, default=5.0,
                  help="SLO: p99 must stay within this multiple of the "
                       "fault-free lowest-load mean latency"),
        Parameter("warmup_cycles", float, default=4_000.0,
                  help="cycles simulated before measurement starts"),
        Parameter("measure_cycles", float, default=20_000.0,
                  help="measurement window length in cycles"),
        Parameter("queue_depth", int, default=64,
                  help="bounded per-core arrival queue (overflow = drop)"),
        Parameter("max_outstanding", int, default=8,
                  help="in-flight operations per core"),
        Parameter("seed", int, default=1,
                  help="seed pinning arrivals, fault schedule and fault "
                       "targets (runs are reproducible)"),
        Parameter("mtbf_cycles", float, default=6_000.0,
                  help="mean cycles between fault-window activations"),
        Parameter("mttr_cycles", float, default=1_500.0,
                  help="mean fault-window length in cycles"),
        Parameter("recovery_tolerance", float, default=1.5,
                  help="recovery: rolling p99 back within this multiple of "
                       "the baseline p99"),
        Parameter("params", str, default=(), repeated=True,
                  help="workload parameter overrides as key=value pairs"),
        Parameter("arrival_params", str, default=(), repeated=True,
                  help="arrival-process parameter overrides as key=value pairs"),
        Parameter("fault_params", str, default=(), repeated=True,
                  help="fault-model/schedule parameter overrides as "
                       "key=value pairs (e.g. multiplier=8)"),
    ),
    tags=("simulated", "load", "faults"),
)
def run_chaos_sweep(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    topology: str = "mesh",
    workload: str = "kvstore",
    arrivals: str = "poisson",
    faults: str = "router_degrade",
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    loads: Sequence[float] = DEFAULT_LOADS,
    slo_factor: float = 5.0,
    warmup_cycles: float = 4_000.0,
    measure_cycles: float = 20_000.0,
    queue_depth: int = 64,
    max_outstanding: int = 8,
    seed: int = 1,
    mtbf_cycles: float = 6_000.0,
    mttr_cycles: float = 1_500.0,
    recovery_tolerance: float = 1.5,
    params: Sequence[str] = (),
    arrival_params: Sequence[str] = (),
    fault_params: Sequence[str] = (),
) -> ExperimentResult:
    """Walk the intensity x load grid against per-load fault-free baselines."""
    fault_name = FAULT_MODELS.resolve(faults)
    load_points = sorted(set(float(load) for load in loads))
    if not load_points:
        raise ExperimentError("chaos_sweep needs at least one load point")
    intensity_points = sorted(set(float(value) for value in intensities))
    if not intensity_points:
        raise ExperimentError("chaos_sweep needs at least one fault intensity")
    fault_overrides = parse_workload_params(fault_params)
    result = ExperimentResult(
        name="Chaos sweep %s@%s/%s [%s faults]"
             % (workload, design, topology, fault_name),
        description=(
            "Fault intensity x offered load grid vs per-load fault-free "
            "baselines: tail amplification, queue vs fault drops, recovery "
            "transients; degraded saturation is the highest achieved "
            "throughput meeting the fault-free SLO (p99 <= %.1fx lowest-load "
            "mean, drops <= %.0f%%)." % (slo_factor, DROP_LIMIT * 100.0)
        ),
        headers=[
            "Offered (req/kcycle)", "Intensity", "Achieved (req/kcycle)",
            "Queue drops", "Fault drops", "p99 (ns)", "Tail amplification",
            "Recovery (cycles)", "SLO ok",
        ],
    )
    base_spec = ScenarioSpec(
        design=design,
        topology=topology,
        workload=workload,
        workload_params=parse_workload_params(params),
        arrivals=arrivals,
        arrival_params=parse_workload_params(arrival_params),
    )
    fingerprint = ""
    baseline_mean_cycles: Optional[float] = None
    # Per-intensity digests across the load ladder.
    saturation: Dict[float, Tuple[float, float]] = {}
    worst_amplification: Dict[float, float] = {}
    transients: Dict[float, List[float]] = {intensity: [] for intensity in intensity_points}
    total_injected = 0
    total_completed = 0
    total_fault_windows = 0
    total_fault_drops = 0
    fault_fingerprint = ""
    # The fault_profile figure renders the grid's most stressed cell
    # (highest load x highest intensity) against its baseline's p99.
    profile_cell: Optional[Tuple[Dict[str, object], float]] = None

    def run_point(offered: float, intensity: Optional[float]):
        # A fresh machine per grid cell (from_spec runs MachineBuilder): load
        # levels and fault intensities must not contaminate each other
        # through residual queue, cache or fault-target state.  The same seed
        # everywhere keeps arrival schedules identical across the grid, so a
        # faulted cell differs from its baseline only by the injected fault.
        kwargs = {}
        if intensity is not None:
            merged = {"mtbf_cycles": mtbf_cycles, "mttr_cycles": mttr_cycles}
            merged.update(fault_overrides)
            merged["intensity"] = intensity
            kwargs["faults"] = fault_name
            kwargs["fault_params"] = merged
        driver = OpenLoopDriver.from_spec(
            base_spec,
            offered,
            base_config=config,
            queue_depth=queue_depth,
            max_outstanding=max_outstanding,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=seed,
            **kwargs,
        )
        return driver, driver.run()

    for offered in load_points:
        driver, baseline = run_point(offered, None)
        if not fingerprint:
            fingerprint = driver.scenario.config.fingerprint()
        total_injected += baseline.injected
        total_completed += baseline.completed
        baseline_latency = baseline.latency_cycles
        baseline_p99 = baseline_latency.get("p99", 0.0)
        if baseline_mean_cycles is None and baseline_latency.get("count", 0) > 0:
            # The fault-free lowest measured load that completed requests
            # defines the SLO reference for the whole grid.
            baseline_mean_cycles = baseline_latency["mean"]
        baseline_ok = meets_slo(baseline, baseline_mean_cycles, slo_factor)
        if baseline_ok:
            # Loads walk in ascending order, so the last SLO-meeting point
            # is the highest load the row's intensity sustains.
            saturation[0.0] = (baseline.achieved_per_kcycle, offered)
        result.add_row(
            offered,
            0.0,
            round(baseline.achieved_per_kcycle, 3),
            baseline.dropped,
            0,
            round(baseline.latency_ns("p99"), 1),
            1.0,
            0.0,
            baseline_ok,
        )
        for intensity in intensity_points:
            driver, point = run_point(offered, intensity)
            total_injected += point.injected
            total_completed += point.completed
            total_fault_windows += point.fault_windows
            total_fault_drops += point.fault_dropped
            if not fault_fingerprint:
                fault_fingerprint = point.fault_profile.get("fingerprint", "")
            p99 = point.latency_cycles.get("p99", 0.0)
            amplification = tail_amplification(p99, baseline_p99)
            worst_amplification[intensity] = max(
                worst_amplification.get(intensity, 0.0), amplification
            )
            profile = point.fault_profile
            transient = recovery_transient_cycles(
                profile.get("window_p99", ()),
                profile.get("windows", ()),
                float(profile.get("tail_window_cycles", 0.0) or 1.0),
                baseline_p99,
                tolerance=recovery_tolerance,
            )
            if transient is not None:
                transients[intensity].append(transient)
            if offered == load_points[-1] and intensity == intensity_points[-1]:
                profile_cell = (profile, baseline_p99)
            point_ok = meets_slo(point, baseline_mean_cycles, slo_factor)
            if point_ok:
                saturation[intensity] = (point.achieved_per_kcycle, offered)
            result.add_row(
                offered,
                intensity,
                round(point.achieved_per_kcycle, 3),
                point.dropped,
                point.fault_dropped,
                round(point.latency_ns("p99"), 1),
                round(amplification, 3),
                round(transient, 1) if transient is not None else 0.0,
                point_ok,
            )

    for intensity in intensity_points:
        degraded = saturation.get(intensity)
        if degraded is not None:
            degraded_text = (
                "degraded saturation %.2f req/kcycle (offered %.2f)"
                % (degraded[0], degraded[1])
            )
        else:
            degraded_text = "SLO not met at any measured load"
        amp = worst_amplification.get(intensity, 0.0)
        amp_text = ("max tail amplification %.2fx" % amp) if amp else \
            "tail amplification unmeasurable (empty baseline tail)"
        recovered = transients[intensity]
        if recovered:
            recovery_text = (
                "mean recovery transient %.0f cycles"
                % (sum(recovered) / len(recovered))
            )
        else:
            recovery_text = "no measured recovery within the window"
        result.add_note(
            "resilience: %s intensity %.2f: %s; %s; %s"
            % (fault_name, intensity, degraded_text, amp_text, recovery_text)
        )
    healthy = saturation.get(0.0)
    if healthy is not None:
        result.add_note(
            "resilience baseline: fault-free saturation %.2f req/kcycle "
            "(offered %.2f)" % (healthy[0], healthy[1])
        )
    if baseline_mean_cycles is None:
        result.metadata.warnings.append(
            "no fault-free load point completed any request; lengthen "
            "measure_cycles or raise the sweep's loads"
        )
    if total_fault_windows == 0:
        result.metadata.warnings.append(
            "no fault window activated within the measured horizon; lower "
            "mtbf_cycles or lengthen measure_cycles"
        )
    result.add_note(
        "each faulted cell runs against a fault-free twin (same seed, same "
        "arrival schedule); fault schedule fingerprint %s"
        % (fault_fingerprint or "n/a")
    )
    if profile_cell is not None:
        profile, cell_baseline_p99 = profile_cell
        cascade_doc = profile.get("cascade")
        result.add_note(
            "fault_profile: %s intensity %.2f at the highest measured load%s"
            % (
                fault_name, intensity_points[-1],
                " (cascade: %s p=%.2f, %d triggered)" % (
                    cascade_doc["model"], cascade_doc["probability"],
                    cascade_doc["triggered"],
                ) if cascade_doc else "",
            )
        )
        for line in render_fault_profile(
            profile.get("window_p99", ()),
            profile.get("windows", ()),
            float(profile.get("tail_window_cycles", 0.0) or 1.0),
            baseline_p99=cell_baseline_p99,
            tolerance=recovery_tolerance,
            cascade_windows=(cascade_doc or {}).get("windows", ()),
        ):
            result.add_note("fault_profile: %s" % line)
    result.metadata.config_fingerprint = fingerprint
    result.metadata.events["load_points"] = len(load_points)
    result.metadata.events["fault_intensities"] = len(intensity_points)
    result.metadata.events["requests_injected"] = total_injected
    result.metadata.events["requests_completed"] = total_completed
    result.metadata.events["fault_windows"] = total_fault_windows
    result.metadata.events["fault_drops"] = total_fault_drops
    return result
