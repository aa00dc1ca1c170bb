"""The ``load_sweep`` experiment: offered-load sweep to SLO saturation.

The paper's headline methodology is latency *under load*: each NI design is
judged by how far offered load can climb before the latency distribution
degrades.  This experiment drives any registered scenario open loop
(:class:`~repro.load.driver.OpenLoopDriver`) at a ladder of offered loads,
reports exact p50/p95/p99/p99.9 per load point (each core's full-stream
histogram), and derives the *saturation throughput*: the highest
achieved throughput whose tail still meets the SLO

    p99 <= slo_factor x (mean latency at the lowest measured load)

with a drop fraction of at most ``drop_limit``.  Sweepable across designs,
topologies, workloads and arrival processes like any other experiment::

    repro-experiments run load_sweep --set workload=kvstore --set design=split
    repro-experiments sweep load_sweep --set design=edge,split,per_tile \\
        --set arrivals=deterministic,poisson,bursty --parallel 4
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult
from repro.experiments.spec import Parameter, experiment
from repro.experiments.scenario_run import parse_workload_params
from repro.load.driver import OpenLoopDriver
from repro.scenario.registry import ARRIVALS, NI_DESIGNS, TOPOLOGIES, WORKLOADS
from repro.scenario.spec import ScenarioSpec

#: Offered-load ladder in requests per kcycle; brackets the saturation knee
#: of the default scenario (kvstore on the split design).
DEFAULT_LOADS = (2.0, 5.0, 10.0, 20.0, 40.0)
#: Largest acceptable fraction of dropped (queue-overflow) arrivals.
DROP_LIMIT = 0.01


def meets_slo(point, baseline_mean_cycles: Optional[float], slo_factor: float) -> bool:
    """The SLO verdict shared by ``load_sweep`` and ``chaos_sweep``.

    A load point meets the SLO when it completed requests, its p99 stays
    within ``slo_factor`` times the baseline mean (the lowest measured load
    that completed requests; None until one has), and at most
    :data:`DROP_LIMIT` of its arrivals were dropped.
    """
    latency = point.latency_cycles
    return (
        baseline_mean_cycles is not None
        and latency.get("count", 0) > 0
        and latency.get("p99", 0.0) <= slo_factor * baseline_mean_cycles
        and point.drop_fraction <= DROP_LIMIT
    )


@experiment(
    name="load_sweep",
    title="Open-loop saturation sweep",
    description="Tail latency vs. offered load; saturation throughput under an SLO.",
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
        Parameter("loads", float, default=DEFAULT_LOADS, repeated=True,
                  help="offered loads to walk, in requests per kcycle"),
        Parameter("slo_factor", float, default=5.0,
                  help="SLO: p99 must stay within this multiple of the "
                       "lowest-load mean latency"),
        Parameter("warmup_cycles", float, default=4_000.0,
                  help="cycles simulated before measurement starts"),
        Parameter("measure_cycles", float, default=20_000.0,
                  help="measurement window length in cycles"),
        Parameter("queue_depth", int, default=64,
                  help="bounded per-core arrival queue (overflow = drop)"),
        Parameter("max_outstanding", int, default=8,
                  help="in-flight operations per core"),
        Parameter("seed", int, default=1,
                  help="arrival-process seed (schedules are reproducible)"),
        Parameter("params", str, default=(), repeated=True,
                  help="workload parameter overrides as key=value pairs"),
        Parameter("arrival_params", str, default=(), repeated=True,
                  help="arrival-process parameter overrides as key=value pairs"),
    ),
    tags=("simulated", "load"),
)
def run_load_sweep(
    config: Optional[SystemConfig] = None,
    design: str = "split",
    topology: str = "mesh",
    workload: str = "kvstore",
    arrivals: str = "poisson",
    loads: Sequence[float] = DEFAULT_LOADS,
    slo_factor: float = 5.0,
    warmup_cycles: float = 4_000.0,
    measure_cycles: float = 20_000.0,
    queue_depth: int = 64,
    max_outstanding: int = 8,
    seed: int = 1,
    params: Sequence[str] = (),
    arrival_params: Sequence[str] = (),
) -> ExperimentResult:
    """Walk the load ladder, tabulate exact tails, find the saturation point."""
    load_points = sorted(set(float(load) for load in loads))
    if not load_points:
        raise ExperimentError("load_sweep needs at least one load point")
    result = ExperimentResult(
        name="Load sweep %s@%s/%s [%s arrivals]" % (workload, design, topology, arrivals),
        description=(
            "Open-loop offered-load sweep: exact tail percentiles per load point; "
            "saturation is the highest achieved throughput meeting the SLO "
            "(p99 <= %.1fx lowest-load mean, drops <= %.0f%%)."
            % (slo_factor, DROP_LIMIT * 100.0)
        ),
        headers=[
            "Offered (req/kcycle)", "Injected (req/kcycle)", "Achieved (req/kcycle)",
            "Drop fraction", "Mean (ns)", "p50 (ns)", "p95 (ns)", "p99 (ns)",
            "p99.9 (ns)", "Queue at arrival", "SLO ok",
        ],
    )
    spec = ScenarioSpec(
        design=design,
        topology=topology,
        workload=workload,
        workload_params=parse_workload_params(params),
        arrivals=arrivals,
        arrival_params=parse_workload_params(arrival_params),
    )
    fingerprint = ""
    frequency = 0.0  # captured with the fingerprint on the first load point
    baseline_mean_cycles: Optional[float] = None
    saturation = None  # (achieved, offered) of the last SLO-meeting point
    first_violation = None
    empty_points = []  # load points that completed nothing in the window
    total_injected = 0
    total_completed = 0
    for offered in load_points:
        # A fresh machine per load point (from_spec runs MachineBuilder):
        # load levels must not contaminate each other through residual queue
        # or cache state.  from_spec picks the arrival process and its params
        # off the spec's fields.
        driver = OpenLoopDriver.from_spec(
            spec,
            offered,
            base_config=config,
            queue_depth=queue_depth,
            max_outstanding=max_outstanding,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=seed,
        )
        if not fingerprint:
            fingerprint = driver.scenario.config.fingerprint()
            frequency = driver.scenario.config.cores.frequency_ghz
        point = driver.run()
        total_injected += point.injected
        total_completed += point.completed
        latency = point.latency_cycles
        if baseline_mean_cycles is None and latency.get("count", 0) > 0:
            # The lowest measured load *that completed requests* defines the
            # "zero-load" reference; a point too sparse to finish anything in
            # the window must not poison the SLO with a zero baseline.
            baseline_mean_cycles = latency["mean"]
        point_ok = meets_slo(point, baseline_mean_cycles, slo_factor)
        if latency.get("count", 0) == 0:
            # Too sparse to measure: not an SLO verdict either way.
            empty_points.append(offered)
        elif point_ok:
            if first_violation is None:
                saturation = (point.achieved_per_kcycle, offered)
            else:
                # A higher load passing after a lower one violated does not
                # extend the saturation claim — flag the non-monotone tail.
                result.metadata.warnings.append(
                    "load %g meets the SLO although %g already violated it; "
                    "tail behaviour is non-monotone — lengthen measure_cycles"
                    % (offered, first_violation)
                )
        elif first_violation is None:
            first_violation = offered
        result.add_row(
            offered,
            round(point.injected_per_kcycle, 3),
            round(point.achieved_per_kcycle, 3),
            round(point.drop_fraction, 4),
            round(point.latency_ns("mean"), 1),
            round(point.latency_ns("p50"), 1),
            round(point.latency_ns("p95"), 1),
            round(point.latency_ns("p99"), 1),
            round(point.latency_ns("p99.9"), 1),
            round(point.mean_queue_depth, 2),
            point_ok,
        )
    # `frequency` was captured from the built scenario's config — the same
    # clock every per-row ns conversion used.
    slo_limit_ns = slo_factor * (baseline_mean_cycles or 0.0) / frequency
    if saturation is not None:
        result.add_note(
            "saturation throughput: %.2f req/kcycle (achieved at offered "
            "%.2f req/kcycle; SLO p99 <= %.1f ns, drops <= %.0f%%)"
            % (saturation[0], saturation[1], slo_limit_ns, DROP_LIMIT * 100.0)
        )
    else:
        result.add_note("saturation throughput: not met at any measured load")
        if baseline_mean_cycles is None:
            result.metadata.warnings.append(
                "no load point completed any request; lengthen measure_cycles "
                "or raise the sweep's loads"
            )
        else:
            result.metadata.warnings.append(
                "every load point violates the SLO; lower the sweep's starting load"
            )
    if empty_points:
        result.metadata.warnings.append(
            "load point(s) %s completed no requests within the window; "
            "lengthen measure_cycles"
            % ", ".join("%g" % point for point in empty_points)
        )
    if first_violation is None and saturation is not None:
        result.metadata.warnings.append(
            "no load point violates the SLO; saturation lies beyond "
            "%.2f req/kcycle — extend the sweep" % load_points[-1]
        )
    result.add_note(
        "percentiles are exact (full-stream HDR histograms); latency is "
        "measured from the open-loop arrival instant, queueing included"
    )
    result.metadata.config_fingerprint = fingerprint
    result.metadata.events["load_points"] = len(load_points)
    result.metadata.events["requests_injected"] = total_injected
    result.metadata.events["requests_completed"] = total_completed
    return result
