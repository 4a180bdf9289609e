"""Tests for multicast: packet compilation and cycle-level streaming.

Covers the paper's Fig. 7 mechanism: shared-input slot entries, partial
path set-up, flow-control-free delivery, and the requirement that
destinations keep up with the delivery rate.
"""

from __future__ import annotations

import pytest

from repro.alloc import MulticastRequest, SlotAllocator
from repro.alloc.spec import AllocatedChannel, AllocatedMulticast
from repro.core import DaeliteNetwork, Opcode, multicast_path_packets
from repro.errors import AllocationError
from repro.params import daelite_parameters
from repro.sim.flit import Phit
from repro.topology import build_mesh


@pytest.fixture
def params():
    return daelite_parameters(slot_table_size=8)


@pytest.fixture
def mesh(params):
    return build_mesh(3, 3)


def allocate_tree(mesh, params, dsts=("NI20", "NI02"), slots=1):
    allocator = SlotAllocator(topology=mesh, params=params)
    return allocator.allocate_multicast(
        MulticastRequest("mc", "NI00", tuple(dsts), slots=slots)
    )


class TestMulticastPackets:
    def test_one_trunk_plus_one_packet_per_branch(self, mesh, params):
        tree = allocate_tree(mesh, params)
        packets = multicast_path_packets(
            mesh, tree, src_channel=0, dst_channels={"NI20": 0, "NI02": 0}
        )
        assert len(packets) == 2
        assert all(p.opcode is Opcode.PATH_SETUP for p in packets)

    def test_branch_packet_shorter_than_trunk(self, mesh, params):
        tree = allocate_tree(mesh, params)
        packets = multicast_path_packets(
            mesh, tree, src_channel=0, dst_channels={"NI20": 0, "NI02": 0}
        )
        assert len(packets[1]) < len(packets[0])

    def test_redundant_branch_rejected(self, mesh, params):
        channel = AllocatedChannel(
            label="a",
            path=("NI00", "R00", "R10", "NI10"),
            slots=frozenset({0}),
            slot_table_size=8,
        )
        tree = AllocatedMulticast(label="mc", paths=(channel, channel))
        with pytest.raises(AllocationError, match="adds no new"):
            multicast_path_packets(
                mesh, tree, src_channel=0, dst_channels={"NI10": 0}
            )


class TestMulticastStreaming:
    def test_all_destinations_receive_identical_stream(
        self, mesh, params
    ):
        tree = allocate_tree(mesh, params, dsts=("NI20", "NI02", "NI22"))
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        payloads = list(range(40))
        net.ni("NI00").submit_words(
            handle.src_channel, payloads, connection="mc"
        )
        net.run(800)
        for dst in tree.dst_nis:
            got = [
                word.payload
                for word in net.ni(dst).receive(handle.dst_channels[dst])
            ]
            assert got == payloads
        assert net.total_dropped_words == 0

    def test_fork_router_has_shared_input_entries(self, mesh, params):
        """Fig. 7: two outputs of the fork router select the same input
        in the same slot."""
        tree = allocate_tree(mesh, params, dsts=("NI20", "NI02"))
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        net.configure_multicast(tree)
        fork = net.router("R00")
        shared = [
            inputs
            for slot in range(params.slot_table_size)
            for inputs in [fork.slot_table.inputs_for_slot(slot)]
            if len(inputs) >= 2
        ]
        assert shared, "fork router never duplicates an input"
        for inputs in shared:
            assert len(set(inputs.values())) == 1

    def test_source_link_paid_once(self, mesh, params):
        """The tree 'is more efficient ... because in the latter case
        the bandwidth on [the] output link of the source NI would need
        to be divided between all the connections'."""
        tree = allocate_tree(mesh, params, dsts=("NI20", "NI02", "NI22"))
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        net.ni("NI00").submit_words(
            handle.src_channel, list(range(30)), connection="mc"
        )
        net.run(700)
        source_link = net.link("NI00", "R00")
        assert source_link.words_carried == 30  # not 3 x 30

    def test_teardown_clears_tree(self, mesh, params):
        tree = allocate_tree(mesh, params, dsts=("NI20", "NI02"))
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        teardown = net.host.teardown_multicast(handle)
        net.run_until_configured(teardown)
        fork = net.router("R00")
        for slot in range(params.slot_table_size):
            assert fork.slot_table.inputs_for_slot(slot) == {}
        src = net.ni("NI00")
        assert src.injection_table.slots_of(handle.src_channel) == set()

    def test_slow_destination_overflows_unchecked_queue(
        self, mesh, params
    ):
        """'It is necessary to ensure that the destinations can process
        data at the same rate as it is delivered' — a destination that
        does not drain simply accumulates (hardware would drop)."""
        tree = allocate_tree(mesh, params, dsts=("NI20",), slots=2)
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        net.ni("NI00").submit_words(
            handle.src_channel, list(range(30)), connection="mc"
        )
        net.run(600)  # never drained
        queue = net.ni("NI20").dest_channel(
            handle.dst_channels["NI20"]
        )
        assert len(queue.queue) == 30
        assert len(queue.queue) > params.channel_buffer_words

    def test_drain_waits_for_the_longest_branch(self, mesh, params):
        """The stats mark a multicast word delivered at its first
        destination; drain must still run until the copies on the longer
        branch have left the data plane."""
        tree = allocate_tree(mesh, params, dsts=("NI01", "NI22"))
        lengths = sorted(len(path.path) for path in tree.paths)
        assert lengths[0] < lengths[-1]
        net = DaeliteNetwork(mesh, params, host_ni="NI11")
        handle = net.configure_multicast(tree)
        payloads = list(range(12))
        net.ni("NI00").submit_words(
            handle.src_channel, payloads, connection="mc"
        )
        net.drain()
        held = [
            register.name
            for register in net.kernel.all_registers()
            if isinstance(register.q, Phit) and register.q.word is not None
        ]
        assert held == []
        for dst in tree.dst_nis:
            got = [
                word.payload
                for word in net.ni(dst).receive(handle.dst_channels[dst])
            ]
            assert got == payloads, dst
