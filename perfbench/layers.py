"""Tracing for the benchmark's traced runs: spans and per-layer self time.

Everything here measures ``repro`` from outside.  :class:`Spans` swaps the
public entry points of each layer for timing wrappers while a traced run
is active and restores them afterwards; :func:`layer_self_times` charges
deterministic-profiler (cProfile) self time to layers by source package.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, class, method)`` of every public layer boundary that gets a span.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.campaign.runner", "Campaign", "run"),
    ("repro.experiments.spec", "ExperimentSpec", "run"),
    ("repro.scenario.builder", "MachineBuilder", "build"),
    ("repro.node.soc", "ManycoreSoc", "__init__"),
    ("repro.load.driver", "OpenLoopDriver", "run"),
    ("repro.workloads.microbench", "RemoteReadLatencyBenchmark", "run"),
    ("repro.sim.engine", "Simulator", "run"),
    ("repro.noc.fabric", "NocFabric", "send"),
    ("repro.core.pipelines", "NIBackend", "start_transfer"),
    ("repro.core.pipelines", "RemoteRequestPipeline", "handle_request"),
    ("repro.coherence.protocol", "CoherenceProtocol", "access"),
    ("repro.memory.controller", "MemoryController", "service"),
    ("repro.node.core_model", "CoreModel", "feed"),
    ("repro.faults.injector", "FaultInjector", "install"),
    ("repro.obs.stream", "ObsStream", "emit"),
)

#: Layer of each ``repro`` package or module (longest dotted prefix wins).
LAYER_PACKAGES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim.engine", "sim.resource", "sim.perf"),
    "stats": ("sim.stats", "faults.metrics"),
    "noc": ("noc",),
    "ni": ("core", "qp", "sonuma"),
    "coherence": ("coherence",),
    "memory": ("memory",),
    "node": ("node", "numa"),
    "load": ("load", "workloads"),
    "scenario": ("scenario", "config"),
    "faults": ("faults",),
    "obs": ("obs",),
    "campaign": ("campaign", "experiments"),
}
LAYERS: Tuple[str, ...] = tuple(LAYER_PACKAGES)
#: Self time of ``repro`` code outside every named layer (e.g. ``analysis``).
OTHER = "other"
#: Self time of the benchmark's own span wrappers (tracing overhead).
HARNESS = "harness"

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYER_PACKAGES.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)
_HERE = os.path.dirname(os.path.abspath(__file__))


def _span_name(cls: str, method: str) -> str:
    return "%s.%s" % (cls, method)


SPAN_NAMES: Tuple[str, ...] = tuple(_span_name(cls, method) for _, cls, method in SPAN_POINTS)


class Spans:
    """In-memory span recorder around the layers' public calls.

    Each span is ``[name, parent index, start, end]`` (``perf_counter``
    seconds; parent ``-1`` for a root).  :meth:`observe` adds a callback
    that sees a wrapped call's return value, for counts only the result
    carries.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []
        self._observers: Dict[str, Callable[[object], None]] = {}
        self._saved: List[Tuple[type, str, object]] = []

    def observe(self, name: str, callback: Callable[[object], None]) -> None:
        self._observers[name] = callback

    def install(self) -> None:
        for module_name, cls_name, method in SPAN_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(_span_name(cls_name, method), original))

    def uninstall(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        records = self.records
        stack = self._stack
        clock = time.perf_counter
        observer = self._observers.get(name)

        def span(*args, **kwargs):
            index = len(records)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            records.append(record)
            stack.append(index)
            try:
                value = original(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
            if observer is not None:
                observer(value)
            return value

        span.__wrapped__ = original
        return span

    # -- summaries ------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        counts = dict.fromkeys(SPAN_NAMES, 0)
        for record in self.records:
            counts[record[0]] += 1
        return counts

    def total(self, *names: str) -> float:
        """Summed duration of the spans named, leaving out spans nested in
        another span of those names (so nothing is counted twice)."""
        records = self.records
        wanted = set(names)
        total = 0.0
        for record in records:
            if record[0] not in wanted:
                continue
            parent = record[1]
            while parent >= 0 and records[parent][0] not in wanted:
                parent = records[parent][1]
            if parent < 0:
                total += record[3] - record[2]
        return total

    def to_document(self) -> Dict[str, object]:
        """Compact form: a name table plus ``[name, parent, start_us, end_us]``."""
        names = list(SPAN_NAMES)
        index = {name: position for position, name in enumerate(names)}
        origin = self.records[0][2] if self.records else 0.0
        return {
            "names": names,
            "fields": ["name", "parent", "start_us", "end_us"],
            "spans": [[index[r[0]], r[1], round((r[2] - origin) * 1e6, 1),
                       round((r[3] - origin) * 1e6, 1)] for r in self.records],
        }


def bucket_of(filename: str) -> Optional[str]:
    """Layer bucket of a source file, or ``None`` for code outside ``repro``."""
    path = os.path.abspath(filename)
    if path.startswith(_HERE + os.sep):
        return HARNESS
    marker = os.sep + "repro" + os.sep
    if marker not in path or not path.endswith(".py"):
        return None
    module = path.rsplit(marker, 1)[1][:-3].replace(os.sep, ".")
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def layer_self_times(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Charge cProfile self time to layers.

    ``stats`` is ``pstats.Stats(profile).stats``.  Functions outside
    ``repro`` (C builtins such as ``heapq``, and the standard library) are
    charged to the layer of their callers, split by the time each caller
    spent in them.
    """
    owners: Dict[tuple, Dict[str, float]] = {}
    resolving = set()

    def owner(key: tuple) -> Dict[str, float]:
        if key in owners:
            return owners[key]
        if key in resolving:  # a cycle of non-repro callers
            return {OTHER: 1.0}
        bucket = bucket_of(key[0])
        callers = stats[key][4] if key in stats else {}
        if bucket is not None:
            share = {bucket: 1.0}
        elif not callers:
            share = {OTHER: 1.0}
        else:
            resolving.add(key)
            weights = {caller: edge[3] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: float(edge[1]) for caller, edge in callers.items()}
                total = sum(weights.values()) or 1.0
            share = {}
            for caller, weight in weights.items():
                for name, part in owner(caller).items():
                    share[name] = share.get(name, 0.0) + part * weight / total
            resolving.discard(key)
        owners[key] = share
        return share

    totals = dict.fromkeys(LAYERS + (OTHER, HARNESS), 0.0)
    for key, (_, _, self_time, _, callers) in stats.items():
        bucket = bucket_of(key[0])
        if bucket is not None or not callers:
            totals[bucket or OTHER] += self_time
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            # Split the function's self time by the part each caller spent.
            part = self_time * (edge[2] / edge_total if edge_total > 0 else 1.0 / len(callers))
            for name, weight in owner(caller).items():
                totals[name] += part * weight
    return totals


def call_count(stats: Dict[tuple, tuple], path: Tuple[str, ...], function: str) -> int:
    """Calls of one function (its file given by trailing path parts)."""
    suffix = os.sep + os.path.join(*path)
    return sum(value[1] for key, value in stats.items()
               if key[2] == function and key[0].endswith(suffix))
