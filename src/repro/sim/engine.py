"""A minimal, fast discrete-event simulation kernel.

The kernel keeps a binary heap of :class:`Event` objects ordered by
``(time, sequence)``.  Components schedule callbacks at absolute or relative
times; the simulator executes them in order and advances the clock.  Time is
measured in core clock cycles (integers or floats are both accepted; the
kernel never rounds).

Two styles of modelling are supported:

* **callback style** — ``sim.schedule(delay, fn, *args)``; used by most of
  the NOC, coherence and NI models because it has the lowest overhead, and
* **process style** — generator-based coroutines wrapped in
  :class:`Process`, which ``yield`` delays; used by workload drivers where
  sequential code is clearer.

Callback-style sites that never cancel their events should prefer
:meth:`Simulator.schedule_fast`: it pushes a bare ``(time, seq, callback,
args)`` tuple instead of constructing an :class:`Event`, which removes the
dominant per-event allocation on packet-heavy runs.  The trade-off is that
the fast path returns no handle, so the event cannot be cancelled — keep
using :meth:`Simulator.schedule` wherever a caller might need
:meth:`Simulator.cancel`.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import hooks as obs_hooks
from repro.sim import perf


def _issued(counter: "itertools.count[int]") -> int:
    """Values an ``itertools.count()`` has handed out (its repr is ``count(n)``)."""
    return int(repr(counter)[6:-1])


#: Cancelled events are purged lazily; once at least this many are pending
#: AND they make up half the heap, the heap is compacted in one pass.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.

    Ordering lives in the simulator's heap, which stores ``(time, seq,
    event)`` tuples: the unique ``seq`` makes simultaneous events fire in
    scheduling order (deterministic runs) and keeps comparisons on the tuple
    prefix, entirely in C.  Do not push Event objects onto the heap directly
    — they intentionally define no ordering of their own.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap but is skipped)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return "Event(t=%s, seq=%d, %s, %s)" % (self.time, self.seq, self.callback, state)


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10, hello)          # relative delay
        sim.run()                        # run to completion
        sim.run(until=100_000)           # or bounded

    Internally the heap holds ``(time, seq, event)`` tuples rather than the
    :class:`Event` objects themselves: tuple comparison short-circuits on the
    ``(time, seq)`` prefix entirely in C, which keeps heap maintenance off
    the Python-level ``Event.__lt__`` path (the single hottest call site in
    packet-heavy runs).

    Entries scheduled through :meth:`schedule_fast` are stored as
    ``(time, seq, callback, args)`` 4-tuples with no :class:`Event` at all.
    The two shapes share one heap: ``seq`` is unique, so comparisons never
    reach the differing third element, and the dispatch loop tells them
    apart by length (only 3-tuples can be cancelled).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_events_executed",
        "_stop_requested",
        "_cancelled_events",
        "_peak_pending",
        "_run_horizon",
        "_cancellable",
        "_perf",
        "_obs_index",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Mixed heap of ``(time, seq, event)`` and fast ``(time, seq,
        #: callback, args)`` entries; see the class docstring.
        self._queue: List[Tuple[Any, ...]] = []
        self._seq = itertools.count()
        self._events_executed = 0
        self._stop_requested = False
        self._cancelled_events: set = set()
        self._peak_pending = 0
        #: The ``until`` horizon of the :meth:`run` currently executing
        #: (+inf otherwise).  Lookahead optimisations must not commit work at
        #: virtual times past it: the run may stop there and the caller may
        #: sample statistics that the unfused event chain would not yet have
        #: accumulated.
        self._run_horizon = float("inf")
        #: Events scheduled through the cancellable :meth:`schedule` /
        #: :meth:`schedule_at`; every other ``seq`` went to a fast entry.
        self._cancellable = 0
        self._perf = perf.register_simulator(self)
        #: Deterministic per-run index handed out by the active obs session
        #: (``None`` when observability is disabled — the common case; the
        #: hook costs one truthiness check and allocates nothing).
        self._obs_index = obs_hooks.register_simulator(self)

    # ------------------------------------------------------------------
    # Clock and queue introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events executed so far (useful for performance reporting)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    @property
    def peak_pending_events(self) -> int:
        """Largest heap size observed so far (memory-pressure indicator)."""
        return self._peak_pending

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled events still occupying the heap (compaction pressure)."""
        return len(self._cancelled_events)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError("cannot schedule an event %.3f cycles in the past" % delay)
        time = self._now + delay
        seq = next(self._seq)
        self._cancellable += 1
        event = Event(time, seq, callback, args)
        queue = self._queue
        heapq.heappush(queue, (time, seq, event))
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)
        return event

    def schedule_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` without allocating an :class:`Event`.

        The allocation-free path for call sites that never cancel: fabric
        hops and deliveries, resource completions, process steps, arrival
        clocks.  Ordering is identical to :meth:`schedule` (same time/seq
        discipline, same counter), but no handle is returned, so the event
        cannot be cancelled.  The perf record's ``fast_events`` count is not
        bumped here: :meth:`run` and :meth:`step` settle it from the ``seq``
        counter (see :meth:`_settle_fast_events`).
        """
        if delay < 0:
            raise SimulationError("cannot schedule an event %.3f cycles in the past" % delay)
        queue = self._queue
        heappush(queue, (self._now + delay, next(self._seq), callback, args))
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event at t=%.3f, current time is %.3f" % (time, self._now)
            )
        seq = next(self._seq)
        self._cancellable += 1
        event = Event(time, seq, callback, args)
        queue = self._queue
        heapq.heappush(queue, (time, seq, event))
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event, compacting the heap when cancellations pile up.

        ``event.cancel()`` alone also works (the kernel skips cancelled events
        when they surface), but going through the simulator lets it track the
        set of dead-but-pending events and periodically rebuild the heap,
        which bounds ``pending_events`` for workloads that cancel heavily
        (timeouts, speculative wakeups).  Cancelling an event that already
        fired is a harmless no-op beyond one set entry that the next
        compaction clears.
        """
        if event.cancelled:
            return
        event.cancelled = True
        cancelled = self._cancelled_events
        cancelled.add(event)
        if (
            len(cancelled) >= _COMPACT_MIN_CANCELLED
            and len(cancelled) * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event from the heap in one pass.

        In place, because :meth:`run` holds a local reference to the heap
        while events (which may cancel other events) are executing.  The
        tracked set is cleared outright: after the rebuild no cancelled
        event remains in the heap, including any stale entries for events
        cancelled after they had already fired.
        """
        self._queue[:] = [
            entry for entry in self._queue
            if len(entry) == 4 or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled_events.clear()

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live pending event, or None when idle.

        O(1) amortized: cancelled entries at the head are popped on the way
        (work :meth:`run` would otherwise do).  This is the lookahead bound
        the NOC's hop fusion peeks at — while a packet's next hop arrives
        strictly before this time, no other event can interleave.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2].cancelled:
                heapq.heappop(queue)
                self._cancelled_events.discard(entry[2])
                continue
            return entry[0]
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False if the queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if len(entry) == 4:
                callback, args = entry[2], entry[3]
            else:
                event = entry[2]
                if event.cancelled:
                    self._cancelled_events.discard(event)
                    continue
                callback, args = event.callback, event.args
            self._now = entry[0]
            self._events_executed += 1
            self._perf.events += 1
            if self._peak_pending > self._perf.peak_pending:
                self._perf.peak_pending = self._peak_pending
            try:
                callback(*args)
            finally:
                self._settle_fast_events()
            return True
        self._settle_fast_events()
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time at which execution stopped.
        """
        self._stop_requested = False
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        horizon = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        self._run_horizon = horizon
        try:
            while queue and not self._stop_requested:
                entry = pop(queue)
                if len(entry) == 4:
                    head_time, _seq, callback, args = entry
                else:
                    head_time, _seq, event = entry
                    if event.cancelled:
                        self._cancelled_events.discard(event)
                        continue
                    callback, args = event.callback, event.args
                if head_time > horizon or executed >= limit:
                    # Not ours to run: put it back (seq keys are unique, so
                    # the heap's pop order is unchanged).  Clamp: a horizon
                    # already in the past must not move the clock backwards.
                    heappush(queue, entry)
                    if head_time > horizon and until > self._now:
                        self._now = until
                    break
                self._now = head_time
                executed += 1
                callback(*args)
        finally:
            self._run_horizon = float("inf")
            # The executed-event count is kept in a local inside the loop;
            # fold it into the lifetime counters even on an exception.
            self._events_executed += executed
            self._perf.events += executed
            if self._peak_pending > self._perf.peak_pending:
                self._perf.peak_pending = self._peak_pending
            self._settle_fast_events()
        if until is not None and not queue and self._now < until:
            # The model went idle before the horizon; advance the clock so
            # rate computations over [0, until] stay meaningful.
            self._now = until
        return self._now

    def _settle_fast_events(self) -> None:
        """Set the perf record's fast-event count from the ``seq`` counter.

        Every schedule takes one ``seq``; the ones not taken by the
        cancellable :meth:`schedule`/:meth:`schedule_at` went to fast
        entries (:meth:`schedule_fast` and the fabric's inlined pushes).
        """
        self._perf.fast_events = _issued(self._seq) - self._cancellable

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Process (coroutine) support
    # ------------------------------------------------------------------
    def process(self, generator: Generator[float, float, Any]) -> "Process":
        """Wrap a generator as a :class:`Process` and start it immediately."""
        proc = Process(self, generator)
        proc.start()
        return proc


class Process:
    """A generator-based simulation process.

    The wrapped generator yields delays (in cycles); the process resumes after
    each delay with the simulation time at resumption.  When the generator
    returns, :attr:`finished` becomes True and :attr:`result` holds the return
    value.  Completion callbacks can be registered with :meth:`on_complete`.
    """

    __slots__ = ("_sim", "_generator", "_advance_bound", "_started", "finished", "result",
                 "_completion_callbacks")

    def __init__(self, sim: Simulator, generator: Generator[float, float, Any]) -> None:
        self._sim = sim
        self._generator = generator
        #: The bound step method, created once instead of per yield (stepping
        #: a process schedules an event per yield, and binding is the only
        #: per-event allocation the kernel itself can avoid).
        self._advance_bound = self._advance
        self._started = False
        self.finished = False
        self.result: Any = None
        self._completion_callbacks: List[Callable[["Process"], None]] = []

    def start(self) -> None:
        """Schedule the first step of the process at the current time."""
        self._sim.schedule_fast(0, self._advance_bound, None)

    def on_complete(self, callback: Callable[["Process"], None]) -> None:
        """Register a callback invoked when the process finishes."""
        if self.finished:
            callback(self)
        else:
            self._completion_callbacks.append(callback)

    def _advance(self, value: Any) -> None:
        try:
            if not self._started:
                self._started = True
                delay = next(self._generator)
            else:
                delay = self._generator.send(value if value is not None else self._sim.now)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            for callback in self._completion_callbacks:
                callback(self)
            return
        if delay is None:
            delay = 0
        if delay < 0:
            raise SimulationError("a process yielded a negative delay: %r" % delay)
        self._sim.schedule_fast(delay, self._advance_bound, None)


def drain(sim: Simulator, processes: Iterable[Process], until: Optional[float] = None) -> None:
    """Run the simulator until every process in ``processes`` has finished.

    Completion is tracked with an ``on_complete`` counter rather than
    rescanning every process per event (which made draining quadratic in
    the process count for large workload sets).
    """
    remaining = [0]

    def finished(_process: Process) -> None:
        remaining[0] -= 1

    for process in processes:
        if not process.finished:
            remaining[0] += 1
            process.on_complete(finished)
    while remaining[0]:
        if not sim.step():
            raise SimulationError(
                "simulation went idle with %d unfinished process(es)" % remaining[0]
            )
        if until is not None and sim.now > until:
            raise SimulationError("processes did not finish before t=%.1f" % until)
