"""Discrete-event simulation substrate.

The kernel is deliberately small: a time-ordered event queue
(:class:`~repro.sim.engine.Simulator`), busy-until resources that model
serialization and queuing on links, ports and pipelines
(:mod:`repro.sim.resource`), and statistics collection with the
windowed-convergence methodology of the paper's §5
(:mod:`repro.sim.stats`): per-core latency recording that follows the
loop — an ordered sample list for closed-loop cores, an exact-tail
histogram for open-loop ones — plus time-windowed tails.
"""

from repro.sim.engine import Event, Simulator, Process
from repro.sim.resource import Resource, Channel, Pipeline
from repro.sim.stats import (
    StatAccumulator,
    WindowedMonitor,
    LatencyHistogram,
    LatencyRecorder,
)

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "Resource",
    "Channel",
    "Pipeline",
    "StatAccumulator",
    "WindowedMonitor",
    "LatencyHistogram",
    "LatencyRecorder",
]
