"""Packet-granularity NOC contention model over compiled hop programs.

Every directed link of the topology is a FIFO-serialized link; a packet
occupies each link it crosses for its flit count (one flit per cycle on the
16-byte links of Table 2).  The head of the packet advances one hop per
``hop_cycles`` after it is granted a link, and the tail arrives ``flits - 1``
cycles after the head at the final hop, so the zero-load latency is
``hops * hop_cycles + (flits - 1)`` and contended links introduce queuing
exactly where the paper observes it (the MC and NI edge columns, the mesh
bisection, the per-tile unroll paths).

Hop programs
------------

Routes are compiled, not bound.  A route becomes a *hop program*: a tuple of
``(link_id, hop_cycles, crosses_bisection, link_key)`` hops, where
``link_id`` is a dense index into the fabric's per-link state lists
(free-at time, busy cycles, open grants, stats-since time) and ``link_key``
rides along so fault models can target routers without topology lookups.
The hot path walks a program with a minimal loop over those lists.

Programs are compiled once per process for each immutable geometry
signature (:meth:`~repro.noc.topology.Topology.geometry_key`, e.g.
``("mesh", side, hop_cycles, routing)``), one program per route cache key, so
a sweep that builds a fresh SoC per data point compiles its routes once.
The invariants that make sharing safe:

* A geometry signature must cover everything routing depends on: two
  topologies with equal signatures must return identical routes, route
  keys and bisection links for every input.  A topology whose
  ``geometry_key()`` is None gets a per-fabric geometry on the same code
  path; a topology whose ``route_cache_key`` is None compiles a program per
  packet.
* Compiled programs and link ids are shared; link *state* never is.  Each
  fabric owns its state lists, and its statistics list links in the order
  this fabric first used them.
* :meth:`NocFabric.clear_route_cache` drops the fabric's programs and the
  topology's memoized routes, then re-reads the geometry signature, so a
  routing change is picked up on the next send.  Link state survives it.
* Compilation changes the cost of an event, never the events: event, fused
  hop, fast-event and peak-pending counts are identical to routing every
  packet afresh.

Lookahead hop fusion
--------------------

Advancing the head one event per hop is exact but costs one kernel event per
link crossed.  The fused walk exploits the discrete-event lookahead: while a
packet's arrival at its next router falls *strictly before* the simulator's
queue head (:meth:`~repro.sim.engine.Simulator.next_event_time`), no other
event can execute in between, so nothing can acquire, observe or reroute
ahead of the packet — the walk may acquire the next link immediately at its
arrival time and keep going.  At low load (exactly where the paper's latency
figures live) this collapses a whole k-hop route into a single delivery
event; under contention the condition fails and the walk degrades to the
per-hop event chain, event for event.

Two details keep fused runs byte-identical to unfused ones:

* The walk only fuses from *inside an event callback* (the scheduled
  ``_hop`` continuation).  ``send`` itself still acquires the first link
  synchronously and schedules the continuation: code running later in the
  same callback (e.g. an unroll loop injecting sibling packets at the same
  cycle) may acquire the very links a fused walk would have pre-acquired
  at later virtual times, which would reorder FIFO grants.
* Ties fall back: when the next arrival lands exactly on the queue-head
  time, the head event was scheduled first and must execute first, so the
  walk schedules a normal hop event and preserves ``seq`` ordering.

``REPRO_HOP_FUSION=0`` (or ``hop_fusion=False``) force-disables fusion; the
equivalence suite runs every figure both ways and compares bytes.

Fault injection
---------------

A :class:`~repro.faults.injector.FaultState` attached as :attr:`faults`
perturbs routing while a fault window is active: per-hop extra delay before
link acquisition (``link_down`` deferral, ``router_degrade`` multipliers)
and a retransmit penalty folded into final delivery (``packet_loss``).
Every check is gated on ``faults is not None``, so unfaulted runs stay
bit-identical.  Fusion needs no extra guard at fault boundaries: the
injector's activation/deactivation toggles are cancellable queue-resident
events, so :meth:`~repro.sim.engine.Simulator.next_event_time` never exceeds
the next toggle and the strict ``arrival < head`` bound stops a fused walk
at the boundary — falling back to per-hop events exactly like the queue-head
tie case.  Since every link *acquisition* time is lookahead-guarded, the
fault state a fused walk observes is identical to the one the per-hop event
chain would observe, hop for hop.
"""

from __future__ import annotations

import itertools
import os

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config import MessageClass, NocConfig
from repro.noc.packet import Packet, flit_count
from repro.noc.topology import Link, Topology
from repro.sim import perf
from repro.sim.engine import Simulator

DeliveryCallback = Callable[[Packet], None]

LinkKey = Tuple[Hashable, Hashable]
#: One compiled hop: (link_id, hop_cycles, crosses_bisection, link_key).
Hop = Tuple[int, int, bool, LinkKey]
HopProgram = Tuple[Hop, ...]

_NEG_INF = float("-inf")


def hop_fusion_default() -> bool:
    """Process-wide hop-fusion default: on unless ``REPRO_HOP_FUSION`` opts out.

    Read at fabric construction time so equivalence tests (and campaign
    workers, which inherit the environment) can force-disable fusion for a
    whole run without threading a flag through every builder.
    """
    return os.environ.get("REPRO_HOP_FUSION", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


#: Process-wide dense link ids: link key -> id, and id -> link key.  Ids
#: are shared by every geometry, so a fabric's per-link state stays valid
#: when it switches geometry (see NocFabric.clear_route_cache).
_LINK_IDS: Dict[LinkKey, int] = {}
_LINK_KEYS: List[LinkKey] = []


class _Geometry:
    """The compiled form of one routing geometry: route key -> hop program."""

    __slots__ = ("programs", "_hops", "_bisection")

    def __init__(self, topology: Topology) -> None:
        self.programs: Dict[Hashable, HopProgram] = {}
        # (link key, hop cycles) -> the one shared hop tuple for that link.
        self._hops: Dict[Tuple[LinkKey, int], Hop] = {}
        bisection = getattr(topology, "bisection_links", None)
        self._bisection = frozenset(bisection()) if bisection is not None else frozenset()

    def compile(self, links: Sequence[Link]) -> HopProgram:
        program = []
        for link in links:
            key = link.key
            hop = self._hops.get((key, link.hop_cycles))
            if hop is None:
                link_id = _LINK_IDS.get(key)
                if link_id is None:
                    link_id = _LINK_IDS[key] = len(_LINK_KEYS)
                    _LINK_KEYS.append(key)
                hop = (link_id, link.hop_cycles, key in self._bisection, key)
                self._hops[(key, link.hop_cycles)] = hop
            program.append(hop)
        return tuple(program)


#: Process-wide compiled geometries, by geometry signature.
_GEOMETRIES: Dict[Hashable, _Geometry] = {}


def _geometry_for(topology: Topology) -> _Geometry:
    key = topology.geometry_key()
    if key is None:
        return _Geometry(topology)
    geometry = _GEOMETRIES.get(key)
    if geometry is None:
        geometry = _GEOMETRIES[key] = _Geometry(topology)
    return geometry


class NocFabric:
    """Routes packets over a :class:`Topology` with per-link contention."""

    #: Cycles charged for a message whose source and destination agents share
    #: a router (e.g. a core talking to its own tile's LLC slice).
    LOCAL_DELIVERY_CYCLES = 1

    def __init__(self, sim: Simulator, topology: Topology, noc_config: NocConfig,
                 hop_fusion: Optional[bool] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.config = noc_config
        self.hop_fusion = hop_fusion_default() if hop_fusion is None else bool(hop_fusion)
        self.link_bytes = noc_config.link_bytes
        #: Fault state installed by a FaultInjector (None on healthy runs).
        self.faults = None
        # The kernel objects the hot path touches on every hop (the heap
        # list and the seq counter are never rebound by the simulator), and
        # bound methods created once instead of per scheduled event.
        self._queue = sim._queue
        self._seq = sim._seq
        self._hop_event = self._hop
        self._deliver_event = self._deliver
        self._packet_ids = itertools.count()
        # Per-link state, indexed by the process-wide dense link ids; a
        # link's open-grant deque is None until this fabric first uses it.
        self._free_at: List[float] = []
        self._busy: List[float] = []
        self._open: List[Optional[Deque[Tuple[float, float]]]] = []
        self._since: List[float] = []
        #: Link ids in the order this fabric first used them.
        self._link_order: List[int] = []
        self._bind_geometry()
        # payload_bytes -> (flits, wire_bytes); the handful of distinct
        # payload sizes an experiment sends makes this a near-perfect cache.
        self._flit_sizes: Dict[int, Tuple[int, int]] = {}
        # Statistics
        #: Hop events elided by lookahead fusion since the last stats reset
        #: (lifetime counts live in the perf record, see lifetime_fused_hops).
        self.fused_hops = 0
        self.packets_delivered = 0
        self.payload_bytes_delivered = 0
        self.bytes_by_class: Dict[MessageClass, int] = {cls: 0 for cls in MessageClass}
        self.bisection_bytes = 0
        self._perf = perf.register_fabric(self)
        self._packets_at_reset = 0

    @property
    def packets_sent(self) -> int:
        """Packets injected since the last :meth:`reset_stats`."""
        return self._perf.packets - self._packets_at_reset

    @property
    def wire_bytes_sent(self) -> int:
        """Wire bytes (header + padding included) injected since the last reset."""
        return sum(self.bytes_by_class.values())

    @property
    def lifetime_packets_sent(self) -> int:
        """Like :attr:`packets_sent` but never zeroed by :meth:`reset_stats`
        (performance instrumentation needs a whole-run injection count)."""
        return self._perf.packets

    @property
    def lifetime_fused_hops(self) -> int:
        """Hop events elided by lookahead fusion over the fabric's lifetime."""
        return self._perf.fused_hops

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(
        self,
        src: Hashable,
        dst: Hashable,
        payload_bytes: int,
        msg_class: MessageClass,
        callback: Optional[DeliveryCallback] = None,
        payload: Any = None,
        tail: bool = False,
    ) -> Packet:
        """Inject a packet; ``callback(packet)`` fires at delivery time.

        ``tail=True`` declares that this send is the caller's *final
        simulation-affecting action at the current timestep* — it will not
        acquire resources, inject packets or schedule events after the call
        returns.  Under that contract the fused walk may start right here
        instead of behind a one-hop continuation event, collapsing an
        uncontended k-hop route into a single delivery event.  Passing
        ``tail=True`` from a callback that does more work afterwards can
        reorder FIFO link grants and breaks run-to-run equivalence —
        leave it False when in doubt (the default is always safe).  One more
        caveat: a tail send issued *between* ``run()`` calls fuses without a
        horizon bound, so link statistics sampled at the next ``run(until)``
        horizon may already include the whole route's occupancy.
        """
        sim = self.sim
        now = sim._now
        packet_id = next(self._packet_ids)
        packet = Packet(src, dst, payload_bytes, msg_class, payload, packet_id, now)
        self._perf.packets += 1
        size = self._flit_sizes.get(payload_bytes)
        if size is None:
            flits = flit_count(payload_bytes, self.link_bytes)
            size = self._flit_sizes[payload_bytes] = (flits, flits * self.link_bytes)
        flits, wire = size
        self.bytes_by_class[msg_class] += wire
        if src != dst:
            key = self._route_key(src, dst, msg_class, packet_id)
            hops = self._programs.get(key) if key is not None else None
            if hops is None:
                hops = self._program(src, dst, msg_class, packet_id, key)
            if tail and hops and self.hop_fusion:
                # Tail-send contract: nothing runs after us at this
                # timestep, so the whole walk (hop 0 included — acquiring at
                # earliest=now is the synchronous acquire) can fuse in place.
                self._hop(packet, hops, 0, flits, wire, callback)
                return packet
            if hops:
                # The first link is acquired synchronously, in injection
                # order — several sends in one callback must claim their
                # first links FIFO exactly as before fusion existed.  The
                # rest of the walk runs as a scheduled event, where the fused
                # fast path is safe (see module docstring).
                link, hop_cycles, crosses_bisection, link_key = hops[0]
                earliest = now
                faults = self.faults
                if faults is not None:
                    extra = faults.hop_delay(link_key, now, hop_cycles)
                    if extra > 0.0:
                        earliest = now + extra
                # One link acquisition — see the matching block in _hop.
                free_at = self._free_at
                start = free_at[link]
                if earliest > start:
                    start = earliest
                free_at[link] = start + flits
                self._busy[link] += flits
                open_grants = self._open[link]
                while open_grants and open_grants[0][1] <= now:
                    open_grants.popleft()
                open_grants.append((start, start + flits))
                if crosses_bisection:
                    self.bisection_bytes += wire
                arrival = start + hop_cycles
                # Inlined Simulator.schedule_fast.  The event time is
                # computed as now + delta, never as the absolute arrival:
                # float addition does not guarantee now + (t - now) == t, and
                # byte-identity with the per-hop chain (which always
                # scheduled relative delays) must hold to the last bit.
                if len(hops) == 1:
                    delta = arrival + flits - 1 - now
                    if faults is not None:
                        loss = faults.loss_delay(packet_id)
                        if loss > 0.0:
                            delta += loss
                    entry = (now + delta, next(self._seq),
                             self._deliver_event, (packet, callback))
                else:
                    entry = (now + (arrival - now), next(self._seq), self._hop_event,
                             (packet, hops, 1, flits, wire, callback))
                queue = self._queue
                heappush(queue, entry)
                if len(queue) > sim._peak_pending:
                    sim._peak_pending = len(queue)
                return packet
        sim.schedule_fast(self.LOCAL_DELIVERY_CYCLES, self._deliver_event, packet, callback)
        return packet

    def zero_load_latency(self, src: Hashable, dst: Hashable, payload_bytes: int,
                          msg_class: MessageClass = MessageClass.MEMORY_REQUEST) -> float:
        """Latency of a packet on an otherwise idle NOC (no queuing)."""
        if src == dst:
            return float(self.LOCAL_DELIVERY_CYCLES)
        links = self.topology.route_cached(src, dst, msg_class)
        if not links:
            return float(self.LOCAL_DELIVERY_CYCLES)
        head = sum(link.hop_cycles for link in links)
        return head + (flit_count(payload_bytes, self.link_bytes) - 1)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def aggregate_wire_gbps(self, frequency_ghz: float, elapsed_cycles: Optional[float] = None) -> float:
        """Total NOC bandwidth consumed (header + padding included), in GBps."""
        elapsed = self.sim.now if elapsed_cycles is None else elapsed_cycles
        if elapsed <= 0:
            return 0.0
        return self.wire_bytes_sent / elapsed * frequency_ghz

    def bisection_gbps(self, frequency_ghz: float, elapsed_cycles: Optional[float] = None) -> float:
        """Bandwidth crossing the mesh bisection, in GBps (0 for non-mesh topologies)."""
        elapsed = self.sim.now if elapsed_cycles is None else elapsed_cycles
        if elapsed <= 0:
            return 0.0
        return self.bisection_bytes / elapsed * frequency_ghz

    def link_busy_cycles(self) -> Dict[LinkKey, float]:
        """Busy cycles since the last reset of every link this fabric has used.

        A snapshot dict in first-use order (a link counts as used once a
        route through it has been compiled for a send).
        """
        busy = self._busy
        return {_LINK_KEYS[link]: busy[link] for link in self._link_order}

    def link_utilization(self) -> Dict[LinkKey, float]:
        """Utilization of every link that has carried at least one packet."""
        return {_LINK_KEYS[link]: self._utilization(link) for link in self._link_order}

    def max_link_utilization(self) -> float:
        """Utilization of the most loaded link (the NOC bottleneck)."""
        if not self._link_order:
            return 0.0
        return max(self._utilization(link) for link in self._link_order)

    def clear_route_cache(self) -> None:
        """Drop the fabric's hop programs and the topology's memoized routes.

        Anything that mutates routing-relevant topology state must call this
        (not just ``topology.clear_route_cache()``): the fabric never consults
        the topology again for a key it already has a program for.  The
        geometry signature is read again, so the next send compiles against
        the mutated routing; per-link state is kept.
        """
        self.topology.clear_route_cache()
        self._bind_geometry()

    def reset_stats(self) -> None:
        """Zero all counters (used at the end of the warm-up phase).

        Grants still in flight are not dropped: the portion of each link's
        occupancy that falls after the reset is credited to the new window.
        """
        self._packets_at_reset = self._perf.packets
        self.fused_hops = 0
        self.packets_delivered = 0
        self.payload_bytes_delivered = 0
        self.bisection_bytes = 0
        self.bytes_by_class = {cls: 0 for cls in MessageClass}
        now = self.sim._now
        for link in self._link_order:
            open_grants = self._open[link]
            while open_grants and open_grants[0][1] <= now:
                open_grants.popleft()
            self._busy[link] = sum(end - max(start, now) for start, end in open_grants)
            self._since[link] = now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bind_geometry(self) -> None:
        self._geometry = _geometry_for(self.topology)
        self._route_key = self.topology.route_cache_key
        #: This fabric's view of the geometry's programs (route key ->
        #: program), holding only programs whose links it has adopted.
        self._programs: Dict[Hashable, HopProgram] = {}

    def _program(self, src: Hashable, dst: Hashable, msg_class: MessageClass,
                 packet_id: int, key: Optional[Hashable]) -> HopProgram:
        """Look up or compile the hop program of a route and adopt its links.

        Uncacheable routes (``key`` None) compile per packet.
        """
        geometry = self._geometry
        if key is None:
            program = geometry.compile(self.topology.route(src, dst, msg_class, packet_id))
        else:
            program = geometry.programs.get(key)
            if program is None:
                program = geometry.compile(self.topology.route(src, dst, msg_class, packet_id))
                geometry.programs[key] = program
            self._programs[key] = program
        # Cover every compiled link id, then adopt the program's links.
        missing = len(_LINK_KEYS) - len(self._open)
        if missing > 0:
            self._free_at.extend([0.0] * missing)
            self._busy.extend([0.0] * missing)
            self._open.extend([None] * missing)
            self._since.extend([0.0] * missing)
        opens = self._open
        for link, _hop_cycles, _crosses, _key in program:
            if opens[link] is None:
                opens[link] = deque()
                self._link_order.append(link)
        return program

    def _utilization(self, link: int) -> float:
        horizon = self.sim._now - self._since[link]
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy[link] / horizon)

    def _hop(self, packet: Packet, hops: HopProgram, index: int,
             flits: int, wire: int, callback: Optional[DeliveryCallback]) -> None:
        """Walk the remaining hops, fusing as far as the lookahead allows.

        Runs as an event callback (the continuation ``send`` schedules) at
        the exact cycle the packet's head reaches router ``index`` — or
        synchronously from a ``tail=True`` send, whose contract provides the
        same guarantee that nothing else acts at the current timestep.  Each
        iteration acquires one link at the packet's virtual arrival time;
        while the next arrival stays strictly before the queue head, nothing
        can interleave and the walk continues in place instead of scheduling
        a hop event.  An empty queue means nothing can interleave at all.
        With :attr:`hop_fusion` off, the first lookahead check fails by
        construction and every hop schedules its own event, exactly as
        before.
        """
        sim = self.sim
        queue = self._queue
        # The lookahead bound: fuse while the next arrival < head.  The walk
        # itself only pushes events at/after the current arrival, so the
        # bound stays valid without re-peeking.  The active run(until=...)
        # horizon caps the bound too: the run may stop there and the caller
        # may sample link statistics that the per-hop chain would not yet
        # have accumulated — hops at/after the horizon must stay events.
        if self.hop_fusion:
            head = sim._run_horizon
            if queue:
                # Inlined next_event_time(): a cancelled head entry falls
                # back to the kernel, which purges it exactly as before.
                first = queue[0]
                if len(first) == 3 and first[2].cancelled:
                    peek = sim.next_event_time()
                    if peek is not None and peek < head:
                        head = peek
                elif first[0] < head:
                    head = first[0]
        else:
            head = _NEG_INF
        now = sim._now
        arrival = now
        fused = 0
        faults = self.faults
        free_at = self._free_at
        busy = self._busy
        opens = self._open
        nhops = len(hops)
        while True:
            link, hop_cycles, crosses_bisection, link_key = hops[index]
            if faults is not None:
                extra = faults.hop_delay(link_key, arrival, hop_cycles)
                if extra > 0.0:
                    arrival = arrival + extra
            # One link acquisition (FIFO: the grant starts when both the
            # head has arrived and the link is free) — the hottest path in
            # the whole simulator.
            start = free_at[link]
            if arrival > start:
                start = arrival
            free_at[link] = start + flits
            busy[link] += flits
            open_grants = opens[link]
            while open_grants and open_grants[0][1] <= now:
                open_grants.popleft()
            open_grants.append((start, start + flits))
            if crosses_bisection:
                self.bisection_bytes += wire
            arrival = start + hop_cycles
            index += 1
            if index == nhops:
                # Final hop: the tail arrives flits-1 cycles after the head,
                # and the completion event delivers directly.  Event times
                # stay now + delta, matching the unfused chain bit for bit
                # (see the note in send()).
                delta = arrival + flits - 1 - now
                if faults is not None:
                    loss = faults.loss_delay(packet.packet_id)
                    if loss > 0.0:
                        delta += loss
                entry = (now + delta, next(self._seq),
                         self._deliver_event, (packet, callback))
                break
            if arrival < head:
                fused += 1
                continue
            entry = (now + (arrival - now), next(self._seq), self._hop_event,
                     (packet, hops, index, flits, wire, callback))
            break
        if fused:
            self.fused_hops += fused
            self._perf.fused_hops += fused
        heappush(queue, entry)
        if len(queue) > sim._peak_pending:
            sim._peak_pending = len(queue)

    def _deliver(self, packet: Packet, callback: Optional[DeliveryCallback]) -> None:
        packet.delivered_at = self.sim._now
        self.packets_delivered += 1
        self.payload_bytes_delivered += packet.payload_bytes
        if callback is not None:
            callback(packet)
