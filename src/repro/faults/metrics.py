"""Resilience metrics: tails under failure, degraded throughput, recovery.

The chaos-sweep methodology compares a faulted run against its fault-free
twin (same spec, same seed, same arrival schedule):

* **tail amplification** — the faulted run's p99 over the fault-free p99 at
  the same offered load; the headline "how much worse is the tail when
  things break" number.
* **SLO-preserving degraded throughput** — the highest achieved throughput a
  faulted run sustains while still meeting the fault-free SLO; computed by
  the ``chaos_sweep`` experiment from per-point results.
* **recovery transient** — after each fault window recovers, how long until
  the rolling p99 is back within a tolerance of the fault-free baseline.

Recovery needs latency *as a function of time*, which is what
:class:`~repro.sim.stats.WindowedTails` records: completions are bucketed
into fixed windows of the simulation clock, one
:class:`~repro.sim.stats.LatencyHistogram` per window, and its per-window
p99 rows feed :func:`recovery_transient_cycles`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

#: Matches the per-intensity resilience digest ``chaos_sweep`` notes, e.g.
#: ``resilience: link_down intensity 0.50: degraded saturation 4.93
#: req/kcycle (offered 5.00); ...`` — or its ``SLO not met at any measured
#: load`` form.
_RESILIENCE_NOTE = re.compile(
    r"^resilience: \S+ intensity (?P<intensity>[0-9.]+): "
    r"(?:degraded saturation (?P<throughput>[0-9.]+) req/kcycle|SLO not met)"
)


def degraded_saturation_points(notes: Sequence[str]) -> Dict[float, float]:
    """Per-intensity degraded saturation parsed from ``chaos_sweep`` notes.

    Maps each fault intensity to the SLO-preserving degraded throughput its
    resilience digest reports (0.0 when the note says the SLO was not met at
    any measured load).  Intensity 0.0 — the fault-free baseline digest —
    is not a resilience note and is therefore never included.
    """
    points: Dict[float, float] = {}
    for note in notes:
        match = _RESILIENCE_NOTE.match(note)
        if match is None:
            continue
        throughput = match.group("throughput")
        points[float(match.group("intensity"))] = \
            float(throughput) if throughput is not None else 0.0
    return points


def worst_degraded_saturation(notes: Sequence[str]) -> Optional[float]:
    """The lowest degraded saturation across every reported fault intensity.

    This is the conservative resilience number a design-space search should
    maximize: the throughput the design still sustains under its *worst*
    injected intensity while meeting the fault-free SLO.  Returns None when
    the notes carry no resilience digests at all.
    """
    points = degraded_saturation_points(notes)
    if not points:
        return None
    return min(points[intensity] for intensity in sorted(points))


def tail_amplification(faulted_p99: float, baseline_p99: float) -> float:
    """Faulted p99 over fault-free p99 (0.0 when the baseline is empty)."""
    if baseline_p99 <= 0.0:
        return 0.0
    return faulted_p99 / baseline_p99


def recovery_transient_cycles(
    window_p99: Sequence[Tuple[float, int, float]],
    fault_windows: Sequence[Tuple[float, float]],
    window_cycles: float,
    baseline_p99: float,
    tolerance: float = 1.5,
) -> Optional[float]:
    """Mean cycles from fault recovery until the rolling p99 is healthy again.

    For each fault window's recovery time, scans the per-window p99 rows
    (from :meth:`~repro.sim.stats.WindowedTails.window_percentiles`) for the
    first completion-bearing window at/after recovery whose p99 is within
    ``tolerance`` times the fault-free baseline; the transient is measured
    to that window's *end* (the earliest time the rolling tail is provably
    back).  Windows that never recover within the recorded range are
    excluded; returns None when nothing recovered (or nothing was recorded).
    """
    if baseline_p99 <= 0.0 or not window_p99 or not fault_windows:
        return None
    limit = tolerance * baseline_p99
    transients: List[float] = []
    for _on, off in fault_windows:
        for start, count, p99 in window_p99:
            if start + window_cycles <= off or count == 0:
                continue
            if p99 <= limit:
                transients.append(max(0.0, start + window_cycles - off))
                break
    if not transients:
        return None
    return sum(transients) / len(transients)
