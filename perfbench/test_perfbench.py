"""Tests of the benchmark itself: its correctness check, exact-count check,
layer attribution and results comparison.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os

import pytest

import compare
import layers
import run
from workloads import WORKLOADS, digest

from repro.campaign import Campaign, RunRequest


@pytest.fixture(scope="module")
def report():
    request = RunRequest("fig6", {"sizes": [64], "iterations": 1, "warmup": 0})
    report = Campaign([request], max_workers=1).run()
    assert report.entries[0].ok
    return report


def _perturbed(report, change):
    clone = copy.deepcopy(report)
    change(clone.entries[0].result)
    return clone


def test_matching_result_passes_and_host_time_is_ignored(report):
    checker = run.Checker(digest(report.entries[0].result))

    def slower(result):
        result.metadata.wall_time_s += 5.0
        result.metadata.perf["wall_s"] += 5.0
        result.metadata.perf["events_per_s"] /= 2

    assert checker.check(report, {}) is None
    assert checker.check(_perturbed(report, slower), {}) is None
    assert checker.failures == []


@pytest.mark.parametrize("change", [
    lambda result: result.rows[0].__setitem__(1, result.rows[0][1] + 0.5),
    lambda result: result.notes.append("extra"),
    lambda result: result.metadata.warnings.append("window did not converge"),
    lambda result: setattr(result.metadata, "config_fingerprint", "0" * 16),
])
def test_perturbed_result_is_caught(report, change):
    checker = run.Checker(digest(report.entries[0].result))
    problem = checker.check(_perturbed(report, change), {})
    assert problem is not None and "differs from reference" in problem
    assert checker.failures == [problem]


def test_raising_run_counts_as_failed(report):
    broken = copy.deepcopy(report)
    broken.entries[0].result = None
    broken.entries[0].error = "SimulationError: boom"
    checker = run.Checker(None)
    assert "boom" in checker.check(broken, {})
    assert (checker.attempted, len(checker.failures)) == (1, 1)


def test_misshapen_first_run_never_becomes_the_reference(report):
    misshapen = _perturbed(report, lambda r: r.rows.append(list(r.rows[0])))
    checker = run.Checker(None)
    for _ in range(2):
        assert "expected 1 rows, got 2" in checker.check(misshapen, {})
    assert checker.reference is None and len(checker.failures) == 2
    assert checker.check(report, {}) is None
    assert checker.reference == digest(report.entries[0].result)


def test_count_drift_marks_the_run_unsteady(report):
    checker = run.Checker(None)
    assert checker.check(report, {"obs.records": 3}) is None
    assert "obs.records" in checker.check(report, {"obs.records": 4})
    more_events = _perturbed(report, lambda r: r.metadata.perf.__setitem__(
        "events", r.metadata.perf["events"] + 1))
    assert "perf.events" in checker.check(more_events, {"obs.records": 3})
    assert checker.drift == ["obs.records", "perf.events"]


def test_references_cover_every_workload_at_default_and_held_out_seeds():
    with open(run.REFERENCES, encoding="utf-8") as handle:
        references = json.load(handle)
    seeds = {str(references["default_seed"]), str(references["held_out_seed"])}
    assert seeds == {"1", "2"}
    for name, workload in WORKLOADS.items():
        digests = references["digests"][name]
        assert seeds <= set(digests) if workload.seeded else set(digests) == {"*"}
    assert set(references["model"]["2"]) >= {"model.load_knee_saturation"}


def test_builtins_are_charged_to_their_callers_layer():
    noc = ("/x/src/repro/noc/fabric.py", 1, "_hop")
    sim = ("/x/src/repro/sim/engine.py", 1, "run")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/random.py", 1, "expovariate")
    stats = {
        noc: (10, 10, 1.0, 4.0, {sim: (10, 10, 1.0, 4.0)}),
        sim: (1, 1, 2.0, 6.0, {}),
        # heappush: 3 s from the fabric, 1 s from the kernel.
        heappush: (40, 40, 4.0, 4.0, {noc: (30, 30, 3.0, 3.0), sim: (10, 10, 1.0, 1.0)}),
        # A standard-library function called only from a builtin called
        # only from the fabric belongs to the fabric too.
        helper: (5, 5, 0.5, 0.5, {heappush: (5, 5, 0.5, 0.5)}),
    }
    # heappush's callers split 3:1, so its caller's share of helper is too.
    totals = layers.layer_self_times(stats)
    assert totals["noc"] == pytest.approx(1.0 + 3.0 + 0.375)
    assert totals["sim"] == pytest.approx(2.0 + 1.0 + 0.125)
    assert sum(totals.values()) == pytest.approx(7.5)


def test_bucket_of_maps_modules_to_layers():
    root = os.path.join(os.sep, "checkout", "src", "repro")
    assert layers.bucket_of(os.path.join(root, "sim", "stats.py")) == "stats"
    assert layers.bucket_of(os.path.join(root, "sim", "engine.py")) == "sim"
    assert layers.bucket_of(os.path.join(root, "faults", "metrics.py")) == "stats"
    assert layers.bucket_of(os.path.join(root, "faults", "injector.py")) == "faults"
    assert layers.bucket_of(os.path.join(root, "config.py")) == "scenario"
    assert layers.bucket_of(os.path.join(root, "analysis", "projection.py")) == "other"
    assert layers.bucket_of(layers.__file__) == "harness"
    assert layers.bucket_of("~") is None


def test_spans_restore_the_original_methods(report):
    from repro.noc.fabric import NocFabric

    original = NocFabric.__dict__["send"]
    traced = run.TracedRun()
    traced.spans.install()
    try:
        assert NocFabric.__dict__["send"] is not original
        Campaign([report.entries[0].request], max_workers=1).run()
    finally:
        traced.spans.uninstall()
    assert NocFabric.__dict__["send"] is original
    calls = traced.spans.calls()
    assert calls["Campaign.run"] == 1 and calls["ExperimentSpec.run"] == 1
    assert calls["NocFabric.send"] == report.entries[0].result.metadata.perf["packets"]
    parents = [r for r in traced.spans.records if r[0] == "ExperimentSpec.run"]
    assert traced.spans.records[parents[0][1]][0] == "Campaign.run"


def _results(tmp_path, name, **host):
    document = {"schema": run.RESULTS_SCHEMA, "workload": "fig6_latency", "seed": 1,
                "seconds": 30.0, "trace": 0, "digest": "d",
                "metrics": {"wall_s": 1.0, "setup_s": 0.3, "peak_rss_mb": 30.0},
                "host": dict({"python": "3.11.7", "implementation": "CPython",
                              "platform": "Linux", "nproc": 2, "cpu_model": "Xeon",
                              "source_digest": "s"}, **host)}
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_refuses_ratios_across_hosts(tmp_path, capsys):
    base = _results(tmp_path, "a.json")
    assert compare.main([base, _results(tmp_path, "b.json")]) == 0
    assert "ratio 1.000" in capsys.readouterr().out
    assert compare.main([base, _results(tmp_path, "c.json", cpu_model="EPYC", nproc=4)]) == 1
    out = capsys.readouterr().out
    assert "host cpu_model" in out and "host nproc" in out and "wall_s" not in out


def test_traced_run_prints_every_declared_per_layer_metric(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path))
    assert run.main(["--workload", "fig6_latency", "--seconds", "0", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == declared
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 3
    metrics = {name: m["value"] for name, m in last["metrics"].items()}
    assert metrics["sim.events"] == 201074 and metrics["noc.fused_hops"] == 1555
    assert metrics["faults.hits"] == metrics["faults.windows"] == metrics["obs.records"] == 0
    shares = sum(metrics[layer + ".share"] for layer in layers.LAYERS + (layers.OTHER,))
    assert shares == pytest.approx(1.0)
