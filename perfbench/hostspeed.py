"""A fixed pure-Python kernel that measures how fast the host runs right now.

Shared hosts change speed by up to 2x over minutes as neighbours come and
go, and a change like that moves every host-time figure of a run
(simulation runs and import-bound set-up alike).  The benchmark times this
kernel between its own steps and scales its end-to-end host times to a
reference speed: ``seconds * REFERENCE_S / median kernel seconds``.

The kernel is a small discrete-event loop shaped like the simulator's hot
path: a heap of ``(time, seq, callback, args)`` tuples, bound-method
callbacks on ``__slots__`` objects, dict counters and float arithmetic.  It
must never change: a different kernel is a different unit.
"""

from __future__ import annotations

import heapq
import time

#: Kernel seconds that define the reference host speed.
REFERENCE_S = 0.1
#: Events per kernel call (about 0.1 s on a 2-vCPU Xeon with CPython 3.11).
EVENTS = 100_000


class _Router:
    __slots__ = ("index", "links", "busy_until", "forwarded")

    def __init__(self, index: int) -> None:
        self.index = index
        self.links = []
        self.busy_until = 0.0
        self.forwarded = 0


class _Loop:
    __slots__ = ("queue", "seq", "now", "executed", "counts")

    def __init__(self) -> None:
        self.queue = []
        self.seq = 0
        self.now = 0.0
        self.executed = 0
        self.counts = {}

    def schedule(self, delay: float, callback, args: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, callback, args))

    def hop(self, router: _Router, hops_left: int) -> None:
        start = router.busy_until if router.busy_until > self.now else self.now
        router.busy_until = start + 2.0
        router.forwarded += 1
        key = (router.index, hops_left & 3)
        self.counts[key] = self.counts.get(key, 0) + 1
        if hops_left:
            nxt = router.links[(self.executed + hops_left) & 3]
            self.schedule(start - self.now + 1.5, self.hop, (nxt, hops_left - 1))
        else:
            self.schedule(3.0, self.hop, (router.links[router.index & 3], 6))

    def run(self, limit: int) -> None:
        queue = self.queue
        pop = heapq.heappop
        while queue and self.executed < limit:
            self.now, _, callback, args = pop(queue)
            self.executed += 1
            callback(*args)


def kernel_seconds() -> float:
    """Run the kernel once; returns its host seconds."""
    started = time.perf_counter()
    routers = [_Router(i) for i in range(64)]
    for router in routers:
        router.links = [routers[(router.index * 7 + k * 9 + 1) % 64] for k in range(4)]
    loop = _Loop()
    for router in routers[:32]:
        loop.schedule(float(router.index), loop.hop, (router, 6))
    loop.run(EVENTS)
    elapsed = time.perf_counter() - started
    if loop.executed != EVENTS:
        raise RuntimeError("host-speed kernel ran %d of %d events" % (loop.executed, EVENTS))
    return elapsed

