"""Statistics collection for the simulator.

Implements the measurement methodology of the paper's §5: metrics are
monitored in fixed-size cycle windows and a run is considered converged when
the metric changes by less than a tolerance (1 % in the paper) between
consecutive windows.

How a core records latency follows from how it is driven.  A closed-loop
core keeps every sample in a :class:`LatencyRecorder` (an ordered list; its
runs are short and its readers slice and rank the raw stream).  An
open-loop core records into a :class:`LatencyHistogram`, whose tails cover
every completion of an arbitrarily long run at bounded bucket resolution;
:class:`WindowedTails` buckets the same completions by simulation time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles reported by :meth:`LatencyHistogram.percentiles` (the load
#: subsystem's tail-latency tables).
TAIL_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


class LatencyHistogram:
    """HDR-style fixed-bucket histogram with bounded relative error.

    Values (latencies in cycles) are floored to integers and binned into
    buckets whose width grows with magnitude: values below
    ``2**sub_bucket_bits`` get a bucket each (exact to one cycle), larger
    values share ``2**(sub_bucket_bits-1)`` sub-buckets per power of two, so
    the quantization error of any recorded value is bounded by
    ``2**-(sub_bucket_bits-1)`` relative.  The histogram covers *every*
    recorded value, which makes high percentiles (p99, p99.9) of long runs
    exact up to that bucket resolution.

    Buckets are kept in a sparse dict, so memory stays proportional to the
    number of distinct latency magnitudes observed, not the value range.
    Histograms with the same ``sub_bucket_bits`` merge losslessly, which is
    how per-core histograms aggregate into per-tenant and machine-wide tails.
    """

    __slots__ = ("name", "sub_bucket_bits", "count", "total",
                 "minimum", "maximum", "_counts")

    def __init__(self, name: str = "latency", sub_bucket_bits: int = 10) -> None:
        if sub_bucket_bits < 2:
            raise ValueError("sub_bucket_bits must be at least 2")
        self.name = name
        self.sub_bucket_bits = sub_bucket_bits
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Bucket mapping
    # ------------------------------------------------------------------
    def _index_of(self, value: float) -> int:
        v = int(value)
        if v < 0:
            v = 0
        sub_bits = self.sub_bucket_bits
        if v < (1 << sub_bits):
            return v
        shift = v.bit_length() - sub_bits
        # The top sub_bits bits of v; its leading bit is always set, so the
        # usable sub-bucket range per power of two is 2**(sub_bits-1) wide.
        top = v >> shift
        half = 1 << (sub_bits - 1)
        return (1 << sub_bits) + (shift - 1) * half + (top - half)

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        sub_bits = self.sub_bucket_bits
        if index < (1 << sub_bits):
            return float(index), float(index)
        half = 1 << (sub_bits - 1)
        offset = index - (1 << sub_bits)
        shift = offset // half + 1
        top = half + offset % half
        low = top << shift
        high = ((top + 1) << shift) - 1
        return float(low), float(high)

    # ------------------------------------------------------------------
    # Recording / merging
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Record one latency sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = self._index_of(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one (same resolution)."""
        if other.sub_bucket_bits != self.sub_bucket_bits:
            raise ValueError(
                "cannot merge histograms of different resolution (%d vs %d sub-bucket bits)"
                % (self.sub_bucket_bits, other.sub_bucket_bits)
            )
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100) over every recorded sample.

        Exact up to the bucket resolution: the returned value is the midpoint
        of the bucket containing the rank, clamped to the observed extremes.
        """
        if not self.count:
            return 0.0
        if p <= 0:
            return self.minimum
        if p >= 100:
            return self.maximum
        target = p / 100.0 * self.count
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                low, high = self._bucket_bounds(index)
                mid = (low + high) / 2.0
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    def percentiles(self, points: Sequence[float] = TAIL_PERCENTILES) -> Dict[str, float]:
        """Percentile dict keyed ``"p50"``-style (``99.9`` becomes ``"p99.9"``)."""
        return {_percentile_key(p): self.percentile(p) for p in points}

    def as_dict(self) -> Dict[str, float]:
        summary: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }
        summary.update(self.percentiles())
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LatencyHistogram(%s, n=%d, p99=%.1f)" % (
            self.name, self.count, self.percentile(99.0))


def _percentile_key(p: float) -> str:
    return "p%g" % p


class StatAccumulator:
    """Streaming count / total / mean for scalar samples.

    The mean is Welford's running update rather than ``total / count``:
    the two differ in the last bits, and reported means (e.g. the load
    driver's queue depth) are pinned to the running form.
    """

    __slots__ = ("name", "count", "_mean", "total")

    def __init__(self, name: str = "stat") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.total = 0.0

    def add(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        self._mean += (value - self._mean) / self.count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 if empty)."""
        return self._mean if self.count else 0.0

    def merge(self, other: "StatAccumulator") -> None:
        """Fold another accumulator's samples into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self.total = other.total
            return
        combined = self.count + other.count
        self._mean = (self._mean * self.count + other._mean * other.count) / combined
        self.count = combined
        self.total += other.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StatAccumulator(%s, n=%d, mean=%.2f)" % (self.name, self.count, self.mean)


class LatencyRecorder:
    """Every end-to-end latency of a closed-loop core, in completion order.

    Closed-loop runs are short (a few hundred completions per core), and
    their readers want the raw stream: the microbenchmark drops its warm-up
    prefix by position and the key-value store takes a nearest-rank p99.
    Open-loop cores record into a :class:`LatencyHistogram` instead, which
    has the same ``name``/``count``/``record`` surface.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        """Record one latency sample."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)


class WindowedTails:
    """Per-time-window latency histograms over one run.

    ``record(now, latency)`` buckets a completion by the simulation time it
    completed at; buckets are sparse (only windows that saw completions
    exist) and hold full histograms, so per-window percentiles are exact.
    The load driver keeps one on faulted runs (per-window p99 rows for
    recovery analysis) and the ``rolling_tails`` probe reads the newest
    window.
    """

    def __init__(self, window_cycles: float, name: str = "windowed-latency") -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = float(window_cycles)
        self.name = name
        self._buckets: Dict[int, LatencyHistogram] = {}

    def record(self, now: float, latency: float) -> None:
        index = int(now // self.window_cycles)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = LatencyHistogram(
                "%s[%d]" % (self.name, index)
            )
        bucket.record(latency)

    def __len__(self) -> int:
        return len(self._buckets)

    def latest(self) -> Optional[Tuple[float, LatencyHistogram]]:
        """``(window_start, histogram)`` of the newest window (None if empty)."""
        if not self._buckets:
            return None
        index = max(self._buckets)
        return index * self.window_cycles, self._buckets[index]

    def window_percentiles(self, p: float = 99.0) -> List[Tuple[float, int, float]]:
        """Sorted ``(window_start, count, percentile)`` rows for every window."""
        return [
            (index * self.window_cycles, bucket.count, bucket.percentile(p))
            for index, bucket in sorted(self._buckets.items())
        ]


class WindowedMonitor:
    """Implements the paper's convergence criterion (§5).

    The metric of interest is sampled once per window of ``window_cycles``;
    the run is converged when the relative change between two consecutive
    windows drops below ``tolerance`` (after at least ``min_windows``
    windows).
    """

    def __init__(
        self,
        window_cycles: float = 500_000,
        tolerance: float = 0.01,
        min_windows: int = 2,
        max_windows: int = 64,
    ) -> None:
        self.window_cycles = window_cycles
        self.tolerance = tolerance
        self.min_windows = min_windows
        self.max_windows = max_windows
        self.window_values: List[float] = []

    def record_window(self, value: float) -> None:
        """Record the metric value measured over the window that just ended."""
        self.window_values.append(value)

    @property
    def windows_seen(self) -> int:
        return len(self.window_values)

    @property
    def exhausted(self) -> bool:
        """True once the window budget (``max_windows``) is spent."""
        return len(self.window_values) >= self.max_windows

    @property
    def converged_naturally(self) -> bool:
        """True only when the tolerance criterion itself is met.

        Distinct from :attr:`converged`, which also turns True when
        ``max_windows`` is exhausted — a run that merely ran out of window
        budget has *not* demonstrated a steady state, and callers reporting
        measurements should surface that (see :meth:`warning`).
        """
        if len(self.window_values) < self.min_windows:
            return False
        prev, last = self.window_values[-2], self.window_values[-1]
        if prev == 0 and last == 0:
            return True
        denom = max(abs(prev), abs(last), 1e-12)
        return abs(last - prev) / denom < self.tolerance

    @property
    def converged(self) -> bool:
        """True once the run should stop measuring: the tolerance criterion
        is met, or the ``max_windows`` budget is exhausted."""
        if len(self.window_values) < self.min_windows:
            return False
        return self.converged_naturally or self.exhausted

    def warning(self) -> Optional[str]:
        """A human-readable warning when measurement stopped without converging."""
        if self.exhausted and not self.converged_naturally:
            return (
                "metric did not converge to %.2f%% within %d windows of %g cycles; "
                "reported value is the mean of the last two windows"
                % (self.tolerance * 100.0, self.max_windows, self.window_cycles)
            )
        return None

    @property
    def value(self) -> Optional[float]:
        """The converged metric value (mean of the last two windows)."""
        if not self.window_values:
            return None
        if len(self.window_values) == 1:
            return self.window_values[0]
        return 0.5 * (self.window_values[-1] + self.window_values[-2])
