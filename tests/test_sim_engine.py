"""Tests for the discrete-event kernel."""

import itertools

import pytest

from repro.errors import SimulationError
from repro.sim import perf
from repro.sim.engine import Process, Simulator, _issued, drain


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.run()
        assert order == [1, 2, 3]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1, chain, depth + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3


class TestRunBounds:
    def test_run_until_stops_the_clock_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, "early")
        sim.schedule(50, fired.append, "late")
        sim.run(until=10)
        assert fired == ["early"]
        assert sim.now == 10
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=100)
        assert sim.now == 100

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_run_until_in_the_past_does_not_rewind_the_clock(self):
        # Regression: run(until=X) with X < now used to set now = X, moving
        # simulation time backwards.
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        sim.schedule(20, lambda: None)
        sim.run(until=5)
        assert sim.now == 10

    def test_run_until_in_the_past_executes_nothing(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        fired = []
        sim.schedule(1, fired.append, "later")
        sim.run(until=3)
        assert fired == []
        assert sim.now == 10

    def test_stop_from_within_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, fired.append, "a")
        sim.schedule(2, sim.stop)
        sim.schedule(3, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestFastPath:
    def test_fast_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_fast(10, order.append, "b")
        sim.schedule_fast(5, order.append, "a")
        sim.schedule_fast(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20
        assert sim.events_executed == 3

    def test_fast_and_slow_events_interleave_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, 1)
        sim.schedule_fast(5, order.append, 2)
        sim.schedule(5, order.append, 3)
        sim.schedule_fast(5, order.append, 4)
        sim.run()
        assert order == [1, 2, 3, 4]

    def test_fast_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_fast(-1, lambda: None)

    def test_fast_events_counted_in_peak_pending(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule_fast(i + 1, lambda: None)
        assert sim.peak_pending_events == 7
        sim.run()
        assert sim.pending_events == 0

    def test_fast_events_survive_compaction(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(600, fired.append, "fast")
        doomed = [sim.schedule(100 + i, fired.append, "dead") for i in range(300)]
        for event in doomed:
            sim.cancel(event)
        sim.run()
        assert fired == ["fast"]

    def test_fast_event_count_settles_on_step_and_run(self):
        # fast_events is derived from the seq counter minus the cancellable
        # schedules, so cancelled and executed cancellable events never
        # count, and events scheduled from callbacks do.
        with perf.session() as session:
            sim = Simulator()
            for i in range(5):
                sim.schedule_fast(i, sim.schedule_fast, 10, lambda: None)
            sim.cancel(sim.schedule(2, lambda: None))
            sim.schedule_at(3, lambda: None)
            sim.step()
            assert sim._perf.fast_events == 6
            sim.run(until=4)
            sim.run()
        assert session.fast_events == 10
        assert session.events == 11

    def test_issued_reads_the_seq_counter(self):
        # fast_events relies on reading how many values an itertools.count
        # has handed out; fail loudly here if that ever stops working.
        counter = itertools.count()
        assert _issued(counter) == 0
        next(counter)
        next(counter)
        assert _issued(counter) == 2

    def test_step_executes_fast_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(3, fired.append, "x")
        assert sim.step() is True
        assert fired == ["x"]
        assert sim.now == 3

    def test_run_until_respects_fast_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(5, fired.append, "early")
        sim.schedule_fast(50, fired.append, "late")
        sim.run(until=10)
        assert fired == ["early"]
        assert sim.now == 10


class TestNextEventTime:
    def test_empty_queue_returns_none(self):
        assert Simulator().next_event_time() is None

    def test_returns_head_time_without_popping(self):
        sim = Simulator()
        sim.schedule(7, lambda: None)
        sim.schedule_fast(3, lambda: None)
        assert sim.next_event_time() == 3
        assert sim.pending_events == 2

    def test_skips_cancelled_head_events(self):
        sim = Simulator()
        dead = sim.schedule(1, lambda: None)
        sim.schedule(9, lambda: None)
        sim.cancel(dead)
        assert sim.next_event_time() == 9
        # The cancelled head was purged on the way.
        assert sim.pending_events == 1


class TestProcess:
    def test_process_yields_delays(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(("start", sim.now))
            yield 10
            trace.append(("mid", sim.now))
            yield 5
            trace.append(("end", sim.now))
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert proc.finished
        assert proc.result == "done"
        assert trace == [("start", 0.0), ("mid", 10.0), ("end", 15.0)]

    def test_process_completion_callback(self):
        sim = Simulator()
        seen = []

        def worker():
            yield 1
            return 42

        proc = sim.process(worker())
        proc.on_complete(lambda p: seen.append(p.result))
        sim.run()
        assert seen == [42]

    def test_negative_yield_raises(self):
        sim = Simulator()

        def worker():
            yield -5

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_drain_runs_until_all_processes_finish(self):
        sim = Simulator()

        def worker(delay):
            yield delay
            return delay

        procs = [sim.process(worker(d)) for d in (3, 7, 1)]
        drain(sim, procs)
        assert all(p.finished for p in procs)
        assert sim.now == 7

    def test_drain_accepts_already_finished_processes(self):
        sim = Simulator()

        def worker():
            yield 1
            return "ok"

        done = sim.process(worker())
        sim.run()
        assert done.finished
        drain(sim, [done])  # must not raise or run anything
        assert sim.now == 1

    def test_drain_stops_as_soon_as_the_last_process_finishes(self):
        # The completion counter must not keep stepping unrelated events
        # once every tracked process is done.
        sim = Simulator()

        def worker():
            yield 2

        proc = sim.process(worker())
        unrelated = []
        sim.schedule(100, unrelated.append, "straggler")
        drain(sim, [proc])
        assert proc.finished
        assert unrelated == []

    def test_drain_raises_when_the_simulation_goes_idle(self):
        sim = Simulator()

        def forever():
            yield 1
            while True:
                received = yield  # never resumed: no one sends to us
                del received

        # A generator pending on an event that never comes: emulate by a
        # process whose chain we cut off with stop(), then drain directly.
        proc = Process(sim, forever())
        # Never started: it can never finish, and the queue is empty.
        with pytest.raises(SimulationError, match="1 unfinished"):
            drain(sim, [proc])

    def test_drain_until_bound_raises(self):
        sim = Simulator()

        def slow():
            yield 100

        proc = sim.process(slow())
        with pytest.raises(SimulationError, match="did not finish"):
            drain(sim, [proc], until=10)


class TestCancellationAndCompaction:
    def test_simulator_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(5, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()

    def test_heavy_cancellation_compacts_the_heap(self):
        sim = Simulator()
        keep = sim.schedule(1_000, lambda: None)
        doomed = [sim.schedule(100 + i, lambda: None) for i in range(500)]
        assert sim.pending_events == 501
        for event in doomed:
            sim.cancel(event)
        # Lazy purging must have bounded the queue: at most the live event
        # plus less-than-half dead entries remain.
        assert sim.pending_events < 251
        fired_at = []
        sim.schedule_at(1_000, lambda: fired_at.append(sim.now))
        sim.run()
        assert sim.now == 1_000
        assert not keep.cancelled

    def test_compaction_preserves_event_order(self):
        sim = Simulator()
        order = []
        events = [sim.schedule(10 + i, order.append, i) for i in range(200)]
        for event in events[::2]:
            sim.cancel(event)
        sim.run()
        assert order == list(range(1, 200, 2))

    def test_cancel_from_within_event_is_safe(self):
        # Compaction replaces heap contents while run() holds a reference to
        # the heap; cancelling en masse from inside a callback must not lose
        # the surviving events.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(50 + i, fired.append, "dead") for i in range(300)]
        sim.schedule(1, lambda: [sim.cancel(e) for e in doomed])
        sim.schedule(400, fired.append, "alive")
        sim.run()
        assert fired == ["alive"]

    def test_peak_pending_events_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        assert sim.peak_pending_events == 10
        sim.run()
        assert sim.pending_events == 0
        assert sim.peak_pending_events == 10

    def test_event_cancel_method_still_works(self):
        # The legacy Event.cancel() path (no simulator bookkeeping) must keep
        # skipping the event when it surfaces.
        sim = Simulator()
        fired = []
        event = sim.schedule(5, fired.append, "x")
        event.cancel()
        sim.schedule(6, fired.append, "y")
        sim.run()
        assert fired == ["y"]

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1, fired.append, "x")
        sim.run()
        sim.cancel(event)  # stale cancel of an already-fired event
        sim.schedule(1, fired.append, "y")
        sim.run()
        assert fired == ["x", "y"]

    def test_mixed_legacy_and_simulator_cancels(self):
        # Legacy Event.cancel() entries popping must not drain the
        # simulator's bookkeeping for events cancelled via sim.cancel().
        sim = Simulator()
        fired = []
        legacy = [sim.schedule(10 + i, fired.append, "l") for i in range(50)]
        tracked = [sim.schedule(500 + i, fired.append, "t") for i in range(200)]
        for event in legacy:
            event.cancel()
        sim.run(until=100)  # pops every legacy-cancelled entry
        for event in tracked:
            sim.cancel(event)
        # Compaction must have removed the bulk of the 200 dead entries; at
        # most a sub-threshold remainder may linger until the next pass.
        assert sim.pending_events < 64
        sim.run()
        assert fired == []
