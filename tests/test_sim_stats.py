"""Tests for the statistics helpers."""

import random

import pytest

from repro.sim.stats import (
    LatencyHistogram,
    LatencyRecorder,
    StatAccumulator,
    WindowedMonitor,
)


class TestStatAccumulator:
    def test_mean_and_extremes(self):
        acc = StatAccumulator("x")
        for value in (2.0, 4.0, 6.0):
            acc.add(value)
        assert acc.count == 3
        assert acc.mean == pytest.approx(4.0)
        assert acc.total == 12.0

    def test_empty_accumulator_is_safe(self):
        acc = StatAccumulator()
        assert acc.mean == 0.0
        assert acc.count == 0
        assert acc.total == 0.0

    def test_merge_matches_single_accumulator(self):
        values = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0]
        combined = StatAccumulator()
        for v in values:
            combined.add(v)
        left, right = StatAccumulator(), StatAccumulator()
        for v in values[:3]:
            left.add(v)
        for v in values[3:]:
            right.add(v)
        left.merge(right)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.total == combined.total

    def test_merge_with_empty(self):
        acc = StatAccumulator()
        acc.add(4.0)
        acc.merge(StatAccumulator())
        assert acc.count == 1


class TestWindowedMonitor:
    def test_converges_when_windows_agree_within_tolerance(self):
        monitor = WindowedMonitor(tolerance=0.01, min_windows=2)
        monitor.record_window(100.0)
        assert not monitor.converged
        monitor.record_window(100.5)
        assert monitor.converged
        assert monitor.value == pytest.approx(100.25)

    def test_does_not_converge_while_changing(self):
        monitor = WindowedMonitor(tolerance=0.01)
        monitor.record_window(100.0)
        monitor.record_window(150.0)
        assert not monitor.converged

    def test_max_windows_forces_convergence(self):
        monitor = WindowedMonitor(tolerance=0.0001, max_windows=3)
        for value in (1.0, 2.0, 3.0):
            monitor.record_window(value)
        assert monitor.converged

    def test_all_zero_windows_converge(self):
        monitor = WindowedMonitor()
        monitor.record_window(0.0)
        monitor.record_window(0.0)
        assert monitor.converged


class TestLatencyRecorder:
    def test_first_n_samples_kept_verbatim(self):
        # 100,001 values: one past the cap at which the old bounded
        # reservoir started replacing slots.  The closed-loop recorder keeps
        # the whole ordered stream, so warm-up slices and ranks stay exact.
        for n in (10, 100_001):
            values = [float((i * 7919) % 100_003) for i in range(n)]
            rec = LatencyRecorder("r")
            for value in values:
                rec.record(value)
            assert rec.count == n
            assert rec.samples == values


class TestConvergenceFlags:
    def test_natural_convergence_sets_both_flags(self):
        monitor = WindowedMonitor(tolerance=0.01, min_windows=2)
        monitor.record_window(100.0)
        monitor.record_window(100.2)
        assert monitor.converged
        assert monitor.converged_naturally
        assert not monitor.exhausted
        assert monitor.warning() is None

    def test_window_budget_exhaustion_is_flagged(self):
        monitor = WindowedMonitor(tolerance=0.0001, max_windows=3)
        for value in (1.0, 2.0, 3.0):
            monitor.record_window(value)
        assert monitor.converged          # measurement must stop...
        assert not monitor.converged_naturally  # ...but not silently
        assert monitor.exhausted
        warning = monitor.warning()
        assert warning is not None and "did not converge" in warning

    def test_exhausted_run_that_happens_to_agree_is_natural(self):
        monitor = WindowedMonitor(tolerance=0.01, max_windows=2)
        monitor.record_window(5.0)
        monitor.record_window(5.0)
        assert monitor.converged_naturally
        assert monitor.warning() is None


class TestLatencyHistogram:
    def test_small_values_are_exact(self):
        hist = LatencyHistogram()
        for value in (3.0, 7.0, 7.0, 500.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.percentile(0) == 3.0
        assert hist.percentile(100) == 500.0
        assert hist.percentile(50) == 7.0

    def test_percentiles_match_sorted_reference_within_resolution(self):
        rng = random.Random(42)
        values = [rng.expovariate(1.0 / 5000.0) for _ in range(50_000)]
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        ordered = sorted(values)
        for p in (50.0, 95.0, 99.0, 99.9):
            reference = ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]
            assert hist.percentile(p) == pytest.approx(reference, rel=5e-3)

    def test_covers_whole_stream_unlike_reservoir(self):
        # One outlier in a long stream: the full-stream histogram must see it
        # at p100 and keep p99.9 independent of reservoir sampling noise.
        hist = LatencyHistogram()
        for _ in range(100_000):
            hist.record(100.0)
        hist.record(1_000_000.0)
        assert hist.maximum == 1_000_000.0
        assert hist.percentile(100) == 1_000_000.0
        assert hist.percentile(50) == 100.0

    def test_merge_equals_single_histogram(self):
        rng = random.Random(7)
        values = [rng.uniform(10, 100_000) for _ in range(5_000)]
        combined = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for i, value in enumerate(values):
            combined.record(value)
            (left if i % 2 else right).record(value)
        left.merge(right)
        assert left.count == combined.count
        assert left.minimum == combined.minimum
        assert left.maximum == combined.maximum
        for p in (50.0, 99.0, 99.9):
            assert left.percentile(p) == combined.percentile(p)

    def test_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError):
            LatencyHistogram(sub_bucket_bits=10).merge(LatencyHistogram(sub_bucket_bits=8))

    def test_empty_histogram_is_safe(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["count"] == 0
