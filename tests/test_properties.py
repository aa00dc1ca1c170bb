"""Property-based tests (hypothesis) for core data structures and invariants."""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MessageClass, NocConfig, RoutingAlgorithm
from repro.fabric.torus import Torus3D
from repro.memory.address import AddressMap
from repro.noc.fabric import NocFabric
from repro.noc.mesh import MeshTopology
from repro.noc.packet import flit_count
from repro.noc.routing import manhattan_distance, mesh_route
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.qp.queues import WorkQueue
from repro.sim.engine import Simulator
from repro.sim.resource import Channel
from repro.sim.stats import StatAccumulator
from repro.sonuma.unroll import block_count, unroll_blocks

coords = st.tuples(st.integers(0, 7), st.integers(0, 7))
policies = st.sampled_from(list(RoutingAlgorithm))
classes = st.sampled_from(list(MessageClass))


class TestRoutingProperties:
    @given(policies, coords, coords, classes, st.integers(0, 1000))
    @settings(max_examples=150)
    def test_routes_are_minimal_and_connected(self, policy, src, dst, msg_class, packet_id):
        path = mesh_route(policy, src, dst, msg_class, packet_id)
        assert path[0] == src and path[-1] == dst
        assert len(path) == manhattan_distance(src, dst) + 1
        for a, b in zip(path, path[1:]):
            assert manhattan_distance(a, b) == 1

    @given(coords, coords, classes)
    def test_mesh_topology_route_matches_hop_count(self, src, dst, msg_class):
        mesh = MeshTopology(8, NocConfig())
        links = mesh.route(src, dst, msg_class)
        assert len(links) == mesh.hop_count(src, dst)


class _PerFabricMesh(MeshTopology):
    """A mesh without a geometry signature: every fabric compiles its own."""

    def geometry_key(self):
        return None


class _ChannelChain:
    """Reference NOC: one :class:`Channel` per link, one event per hop.

    The contention model as it was before routes were compiled: each send
    routes afresh through the topology, and each hop acquires its link's
    channel in its own event.
    """

    def __init__(self, sim, topology, link_bytes):
        self.sim = sim
        self.topology = topology
        self.link_bytes = link_bytes
        self.channels = {}
        self._packet_ids = itertools.count()

    def send(self, src, dst, nbytes, msg_class, callback):
        packet_id = next(self._packet_ids)
        if src == dst:
            self.sim.schedule_fast(NocFabric.LOCAL_DELIVERY_CYCLES, callback, packet_id)
            return
        links = self.topology.route(src, dst, msg_class, packet_id)
        for link in links:
            if link.key not in self.channels:
                self.channels[link.key] = Channel(self.sim, self.link_bytes)
        self._hop(links, 0, flit_count(nbytes, self.link_bytes), packet_id, callback)

    def _hop(self, links, index, flits, packet_id, callback):
        now = self.sim.now
        start = self.channels[links[index].key].acquire(flits, earliest=now)
        arrival = start + links[index].hop_cycles
        if index + 1 == len(links):
            self.sim.schedule_fast(arrival + flits - 1 - now, callback, packet_id)
        else:
            self.sim.schedule_fast(arrival - now, self._hop, links, index + 1, flits,
                                   packet_id, callback)

    def reset_stats(self):
        for channel in self.channels.values():
            channel.reset_stats()

    def link_busy_cycles(self):
        return {key: channel.busy_cycles for key, channel in self.channels.items()}

    def link_utilization(self):
        return {key: channel.utilization() for key, channel in self.channels.items()}


@st.composite
def noc_traffic(draw):
    """A mesh side, timed sends on that mesh, and a stats-reset time."""
    side = draw(st.integers(2, 8))
    coord = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    sends = draw(st.lists(
        st.tuples(st.integers(0, 60), coord, coord, st.sampled_from((8, 64, 256)), classes),
        min_size=1, max_size=25,
    ))
    return side, sends, draw(st.integers(0, 80))


def _drive_noc(model, sends, reset_at):
    """Run ``sends`` on ``model`` with a stats reset at ``reset_at``.

    Returns the sorted (packet id, delivery time) pairs and the per-link
    busy cycles and utilization, in first-use order, at the reset horizon
    (before resetting) and at the end.
    """
    sim = model.sim
    delivered = []
    if isinstance(model, NocFabric):
        def send(src, dst, nbytes, msg_class):
            model.send(src, dst, nbytes, msg_class,
                       lambda packet: delivered.append((packet.packet_id, sim.now)))
    else:
        def send(src, dst, nbytes, msg_class):
            model.send(src, dst, nbytes, msg_class,
                       lambda packet_id: delivered.append((packet_id, sim.now)))
    for at, src, dst, nbytes, msg_class in sends:
        sim.schedule_fast(at, send, src, dst, nbytes, msg_class)
    snapshots = []
    sim.run(until=reset_at)
    snapshots.append(list(model.link_busy_cycles().items()))
    snapshots.append(list(model.link_utilization().items()))
    model.reset_stats()
    sim.run()
    snapshots.append(list(model.link_busy_cycles().items()))
    snapshots.append(list(model.link_utilization().items()))
    return sorted(delivered), snapshots


def _mesh_config(policy):
    return dataclasses.replace(NocConfig(), routing=policy)


class TestHopProgramProperties:
    """Compiled hop programs are a pure speed-up of per-hop routing."""

    @given(noc_traffic(), policies, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_programs_match_the_per_hop_channel_chain(self, traffic, policy, fusion):
        side, sends, reset_at = traffic
        noc = _mesh_config(policy)
        runs = {}
        fabrics = {}
        for name, topology in (("shared", MeshTopology(side, noc)),
                               ("own", _PerFabricMesh(side, noc))):
            fabric = fabrics[name] = NocFabric(Simulator(), topology, noc, hop_fusion=fusion)
            runs[name] = _drive_noc(fabric, sends, reset_at)
        reference = _ChannelChain(Simulator(), MeshTopology(side, noc), noc.link_bytes)
        runs["reference"] = _drive_noc(reference, sends, reset_at)
        assert len(runs["reference"][0]) == len(sends)
        assert runs["shared"] == runs["own"] == runs["reference"]
        assert fabrics["shared"].lifetime_fused_hops == fabrics["own"].lifetime_fused_hops
        assert fabrics["shared"].fused_hops == fabrics["own"].fused_hops
        if not fusion:
            assert fabrics["shared"].lifetime_fused_hops == 0

    @given(noc_traffic(), noc_traffic(), policies)
    @settings(max_examples=30, deadline=None)
    def test_fabrics_sharing_a_geometry_keep_their_own_link_state(self, first, second,
                                                                  policy):
        side, sends, reset_at = first
        _side, other_sends, other_reset_at = second
        other_sends = [(at, (sx % side, sy % side), (dx % side, dy % side), nbytes, cls)
                       for at, (sx, sy), (dx, dy), nbytes, cls in other_sends]
        noc = _mesh_config(policy)
        busy = NocFabric(Simulator(), MeshTopology(side, noc), noc)
        idle = NocFabric(Simulator(), MeshTopology(side, noc), noc)
        _drive_noc(busy, sends, reset_at)
        assert idle.link_busy_cycles() == {} and idle.max_link_utilization() == 0.0
        before = (busy.link_busy_cycles(), busy.link_utilization())
        shared = _drive_noc(idle, other_sends, other_reset_at)
        assert (busy.link_busy_cycles(), busy.link_utilization()) == before
        alone = NocFabric(Simulator(), _PerFabricMesh(side, noc), noc)
        assert shared == _drive_noc(alone, other_sends, other_reset_at)


class TestTorusProperties:
    @given(st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=150)
    def test_distance_is_a_metric(self, a, b):
        torus = Torus3D((8, 8, 8))
        d = torus.hop_count(a, b)
        assert d == torus.hop_count(b, a)
        assert (d == 0) == (a == b)
        assert d <= torus.max_hop_count()

    @given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
    @settings(max_examples=75)
    def test_triangle_inequality(self, a, b, c):
        torus = Torus3D((8, 8, 8))
        assert torus.hop_count(a, c) <= torus.hop_count(a, b) + torus.hop_count(b, c)

    @given(st.integers(0, 511))
    def test_coordinate_round_trip(self, node):
        torus = Torus3D((8, 8, 8))
        assert torus.node_id(torus.coord(node)) == node


class TestAddressMapProperties:
    @given(st.integers(0, 2 ** 40))
    @settings(max_examples=150)
    def test_block_alignment_and_ranges(self, addr):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        block = amap.block_address(addr)
        assert block % 64 == 0
        assert block <= addr < block + 64
        assert 0 <= amap.home_llc_slice(addr) < 64
        assert 0 <= amap.memory_controller(addr) < 8
        assert 0 <= amap.rrpp_for_offset(addr) < 8

    @given(st.integers(0, 2 ** 30), st.integers(1, 1 << 16))
    @settings(max_examples=100)
    def test_blocks_in_cover_exactly_the_requested_range(self, offset, length):
        amap = AddressMap(llc_slices=64, memory_controllers=8, rrpps=8)
        blocks = list(amap.blocks_in(offset, length))
        assert blocks[0] <= offset
        assert blocks[-1] + 64 >= offset + length
        assert blocks == sorted(set(blocks))
        assert all(b2 - b1 == 64 for b1, b2 in zip(blocks, blocks[1:]))


class TestUnrollProperties:
    @given(st.integers(1, 1 << 16), st.integers(0, 2 ** 20))
    @settings(max_examples=150)
    def test_unroll_covers_the_transfer_exactly_once(self, length, offset_blocks):
        offset = offset_blocks * 64
        entry = WorkQueueEntry(RemoteOp.READ, 0, 1, offset, 0, length)
        requests = unroll_blocks(entry, src_node=0, transfer_id=1)
        assert len(requests) == block_count(length)
        offsets = [r.offset for r in requests]
        assert offsets == sorted(offsets)
        assert offsets[0] == offset
        assert all(b - a == 64 for a, b in zip(offsets, offsets[1:]))
        assert all(r.total_blocks == len(requests) for r in requests)
        assert [r.block_index for r in requests] == list(range(len(requests)))


class TestQueueProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_work_queue_is_fifo_under_any_interleaving(self, offsets):
        wq = WorkQueue(capacity=16, base_addr=0)
        posted = []
        popped = []
        for offset in offsets:
            if wq.is_full():
                popped.append(wq.pop().remote_offset)
            entry = WorkQueueEntry(RemoteOp.READ, 0, 1, offset * 64, 0, 64)
            wq.post(entry)
            posted.append(offset * 64)
        while not wq.is_empty():
            popped.append(wq.pop().remote_offset)
        assert popped == posted
        assert wq.posts == len(posted) and wq.pops == len(popped)

    @given(st.integers(1, 256), st.integers(0, 255))
    def test_entry_block_addresses_are_block_aligned_and_ordered(self, capacity, index):
        wq = WorkQueue(capacity=capacity, base_addr=0x10000)
        index = index % capacity
        addr = wq.entry_block_address(index)
        assert addr % 64 == 0
        assert 0x10000 <= addr < 0x10000 + capacity * 32 + 64


class TestStatProperties:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_accumulator_matches_reference_mean_and_bounds(self, values):
        acc = StatAccumulator()
        for value in values:
            acc.add(value)
        assert acc.count == len(values)
        assert acc.minimum == min(values)
        assert acc.maximum == max(values)
        assert abs(acc.mean - sum(values) / len(values)) < 1e-6 * max(1.0, abs(sum(values)))
        assert acc.variance >= -1e-9

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=100),
           st.integers(1, 99))
    @settings(max_examples=100)
    def test_merge_is_equivalent_to_sequential_adds(self, values, split_point):
        split_point = split_point % (len(values) - 1) + 1
        reference = StatAccumulator()
        for value in values:
            reference.add(value)
        left, right = StatAccumulator(), StatAccumulator()
        for value in values[:split_point]:
            left.add(value)
        for value in values[split_point:]:
            right.add(value)
        left.merge(right)
        assert left.count == reference.count
        assert abs(left.mean - reference.mean) < 1e-6 * max(1.0, abs(reference.mean))
