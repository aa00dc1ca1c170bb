"""The ``fault_profile`` figure: per-window tail latency around fault windows.

Renders the :meth:`~repro.sim.stats.WindowedTails.window_percentiles`
rows a faulted run collects into a deterministic ASCII profile: one bar per
tail window scaled to the worst p99, with windows overlapping a fault (or
cascade) window marked, and a recovery-transient summary computed by
:func:`~repro.faults.metrics.recovery_transient_cycles`.  Pure text in, pure
text out — byte-identical across reruns and parallel campaign workers, so
chaos determinism tests can compare the figure directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.faults.metrics import recovery_transient_cycles

#: Default bar width, in characters, of the p99 column.
DEFAULT_BAR_WIDTH = 32


def _overlaps(start: float, end: float,
              windows: Sequence[Sequence[float]]) -> bool:
    return any(start < off and on < end for on, off in windows)


def render_fault_profile(
    window_p99: Sequence[Sequence[float]],
    fault_windows: Sequence[Sequence[float]],
    window_cycles: float,
    baseline_p99: float = 0.0,
    tolerance: float = 1.5,
    width: int = DEFAULT_BAR_WIDTH,
    cascade_windows: Sequence[Sequence[float]] = (),
) -> List[str]:
    """Text lines of the fault profile figure.

    ``window_p99`` rows are ``(window_start, count, p99)`` as collected in
    ``fault_profile["window_p99"]``; ``fault_windows`` (and optionally
    ``cascade_windows``) are ``(on, off)`` pairs.  Rows overlapping a fault
    window are marked ``*``, rows overlapping a cascade window ``+`` (both
    when both).  ``baseline_p99`` anchors the recovery-transient estimate;
    0 disables it.
    """
    if not window_p99:
        return ["no completions recorded in any tail window"]
    lines = [
        "per-window p99 (window=%g cycles; * fault active, + cascade active)"
        % window_cycles
    ]
    peak = max(row[2] for row in window_p99)
    scale = peak if peak > 0.0 else 1.0
    for row in window_p99:
        start, count, p99 = float(row[0]), int(row[1]), float(row[2])
        end = start + window_cycles
        fault_mark = "*" if _overlaps(start, end, fault_windows) else " "
        cascade_mark = "+" if _overlaps(start, end, cascade_windows) else " "
        bar = "#" * max(1 if p99 > 0.0 else 0, int(round(p99 / scale * width)))
        lines.append(
            "%10.0f %s%s |%-*s| p99 %10.1f  n=%d"
            % (start, fault_mark, cascade_mark, width, bar, p99, count)
        )
    if baseline_p99 > 0.0:
        transient = recovery_transient_cycles(
            [(float(row[0]), int(row[1]), float(row[2])) for row in window_p99],
            [(float(on), float(off)) for on, off in fault_windows],
            window_cycles, baseline_p99, tolerance=tolerance,
        )
        if transient is None:
            lines.append(
                "recovery transient: none (tails within %.3gx of baseline p99 %.1f "
                "at every recovery)" % (tolerance, baseline_p99)
            )
        else:
            lines.append(
                "recovery transient: mean %.0f cycles above %.3gx of baseline "
                "p99 %.1f after recovery" % (transient, tolerance, baseline_p99)
            )
    return lines
