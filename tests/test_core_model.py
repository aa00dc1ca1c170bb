"""Tests for the core (application-thread) model driving queue pairs."""

import pytest

from repro.node.core_model import CoreModel
from repro.node.soc import ManycoreSoc
from repro.node.traffic import RemoteEndEmulator
from repro.errors import WorkloadError
from repro.qp.entries import RemoteOp, WorkQueueEntry
from repro.sim.stats import LatencyHistogram, LatencyRecorder


REGION = 1 << 22


def build_node(config, core_id=0):
    soc = ManycoreSoc(config)
    soc.register_context(0, size_bytes=REGION)
    emulator = RemoteEndEmulator(soc, hops=1)
    qp = soc.create_queue_pair(core_id)
    core = CoreModel(core_id, soc, qp)
    return soc, emulator, core


def read_entries(count, length=64):
    for index in range(count):
        yield WorkQueueEntry(
            op=RemoteOp.READ, ctx_id=0, dst_node=1,
            remote_offset=(index * length) % REGION,
            local_buffer=0x900_0000 + index * length,
            length=length,
        )


class TestSynchronousOperation:
    def test_single_synchronous_read_completes(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(1), max_outstanding=1)
        soc.run()
        assert core.completed_ops == 1
        assert core.completed_bytes == 64
        assert core.outstanding == 0
        assert len(core.latency.samples) == 1
        assert core.latency.samples[0] > 300  # includes network + remote service

    def test_sequential_reads_have_stable_latency(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(4), max_outstanding=1)
        soc.run()
        assert core.completed_ops == 4
        samples = core.latency.samples
        assert max(samples[1:]) - min(samples[1:]) < 0.05 * max(samples[1:])

    def test_multi_block_transfer_counts_full_length(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(1, length=512), max_outstanding=1)
        soc.run()
        assert core.completed_ops == 1
        assert core.completed_bytes == 512
        assert emulator.outgoing_requests == 8  # unrolled into 8 block requests

    def test_invalid_max_outstanding_rejected(self, split_config):
        soc, emulator, core = build_node(split_config)
        with pytest.raises(WorkloadError):
            core.start(read_entries(1), max_outstanding=0)


class TestAsynchronousOperation:
    def test_outstanding_respects_the_limit(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(64), max_outstanding=4)
        # Run a little and check the in-flight bound, then run to completion.
        soc.run(until=300)
        assert core.outstanding <= 4
        soc.run()
        assert core.completed_ops == 64
        assert core.outstanding == 0

    def test_async_issue_overlaps_requests(self, split_config):
        sync_soc, _, sync_core = build_node(split_config)
        sync_core.start(read_entries(16), max_outstanding=1)
        sync_soc.run()
        async_soc, _, async_core = build_node(split_config)
        async_core.start(read_entries(16), max_outstanding=8)
        async_soc.run()
        assert async_soc.sim.now < sync_soc.sim.now

    def test_stop_prevents_further_issue(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(1000), max_outstanding=2)
        soc.run(until=500)
        core.stop()
        issued_at_stop = core.issued_ops
        soc.run()
        assert core.issued_ops <= issued_at_stop + 2
        assert core.outstanding == 0

    def test_reset_measurements_clears_counters(self, split_config):
        soc, emulator, core = build_node(split_config)
        core.start(read_entries(2), max_outstanding=1)
        soc.run()
        core.reset_measurements()
        assert core.completed_ops == 0
        assert core.latency.count == 0

    def test_latency_recorder_follows_the_loop(self, split_config):
        # Closed-loop cores keep a sample list; open_loop() installs a
        # histogram, and the end-of-warm-up reset keeps that kind.
        soc, emulator, core = build_node(split_config)
        assert isinstance(core.latency, LatencyRecorder)
        core.open_loop(max_outstanding=1)
        core.feed(next(read_entries(1)))
        soc.run()
        assert isinstance(core.latency, LatencyHistogram)
        assert core.latency.count == 1
        core.reset_measurements()
        assert isinstance(core.latency, LatencyHistogram)
        assert core.latency.count == 0


class TestEdgeDesignInteraction:
    def test_edge_design_round_trip_works_end_to_end(self, edge_config):
        soc, emulator, core = build_node(edge_config, core_id=5)
        core.start(read_entries(2), max_outstanding=1)
        soc.run()
        assert core.completed_ops == 2

    def test_edge_latency_exceeds_split_latency(self, split_config, edge_config):
        _, _, split_core = build_node(split_config, core_id=5)
        split_soc = split_core.soc
        split_core.start(read_entries(3), max_outstanding=1)
        split_soc.run()
        _, _, edge_core = build_node(edge_config, core_id=5)
        edge_soc = edge_core.soc
        edge_core.start(read_entries(3), max_outstanding=1)
        edge_soc.run()
        edge_samples = edge_core.latency.samples
        split_samples = split_core.latency.samples
        assert sum(edge_samples) / len(edge_samples) > sum(split_samples) / len(split_samples)
