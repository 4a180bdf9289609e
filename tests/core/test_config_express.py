"""Express config delivery: refusal kinds, counters and decode rules."""

from __future__ import annotations

import pytest

from repro.core import (
    ChannelField,
    DaeliteNetwork,
    Direction,
    ExpressRefusal,
    build_channel_config_packet,
)
from repro.core.config_protocol import (
    ConfigPacket,
    Opcode,
    PathHop,
    addressed_element_ids,
    build_path_packet,
)
from repro.core.slot_table import SlotMask
from repro.errors import ProtocolError
from repro.faults import ConfigWordDrop, FaultInjector, FaultPlan
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, NAIVE_MODE
from repro.topology import build_mesh

PARAMS = daelite_parameters(slot_table_size=8)


def network(mode=ACTIVITY_MODE):
    return DaeliteNetwork(
        build_mesh(2, 2), PARAMS, host_ni="NI00", kernel_mode=mode
    )


def credit_write(net, ni="NI11", value=6):
    return build_channel_config_packet(
        net.topology.element(ni).element_id,
        Direction.INJECT,
        channel=2,
        fields=[(ChannelField.CREDIT, value)],
    )


def submit_and_finish(net, packet):
    request = net.config_module.submit(packet, cycle=net.kernel.cycle)
    net.kernel.run_until(lambda: request.done, max_cycles=10_000)
    return request


def stats(net):
    return net.kernel.kernel_stats()


class TestAddressedIds:
    def test_path_packet_ids_are_every_pair_head(self):
        packet = build_path_packet(
            SlotMask.of(8, [1]),
            [PathHop(9, 0o12), PathHop(3, 0o34), PathHop(7, 0o56)],
        )
        assert addressed_element_ids(packet.words, 8) == {9, 3, 7}

    def test_channel_packet_id_is_the_second_word(self):
        net = network()
        packet = credit_write(net)
        assert addressed_element_ids(packet.words, 8) == {
            net.topology.element("NI11").element_id
        }


class TestExpressPath:
    def test_write_is_expressed_and_counted(self):
        net = network()
        request = submit_and_finish(net, credit_write(net))
        assert net.ni("NI11").source_channel(2).credit_counter == 6
        assert stats(net)["config_express_packets"] == 1
        assert stats(net)["config_stepped_packets"] == 0
        # The words never crossed a wire, but the links account for them.
        for name, link in net.config_links.items():
            expected = len(request.packet) if name.startswith("cfg.") else 0
            assert link.words_carried == expected

    def test_unaddressed_packet_is_expressed_without_actions(self):
        net = network()
        stray = build_channel_config_packet(
            60, Direction.INJECT, channel=1, fields=[(ChannelField.FLAGS, 1)]
        )
        submit_and_finish(net, stray)
        assert stats(net)["config_express_packets"] == 1
        assert all(
            ni.config_applied == 0 for ni in net.nis.values()
        )

    def test_express_and_stepped_timelines_agree(self):
        timelines = []
        for mode in (ACTIVITY_MODE, NAIVE_MODE):
            net = network(mode)
            request = submit_and_finish(net, credit_write(net))
            timelines.append(
                (request.submitted_at, request.started_at, request.finished_at)
            )
        assert timelines[0] == timelines[1]


class TestRefusals:
    def test_naive_kernel_always_steps(self):
        net = network(NAIVE_MODE)
        submit_and_finish(net, credit_write(net))
        assert stats(net)["config_express_refusals"] == {
            ExpressRefusal.NAIVE_MODE: 1
        }

    def test_reads_step(self):
        net = network()
        request = net.host.read_channel_register(
            "NI11", Direction.INJECT, 2, ChannelField.CREDIT
        )
        net.kernel.run_until(lambda: request.done, max_cycles=10_000)
        assert stats(net)["config_express_refusals"] == {
            ExpressRefusal.EXPECTS_RESPONSES: 1
        }

    def test_armed_config_hook_steps(self):
        net = network()
        root = f"cfg.module->{net.config_tree.root}"
        injector = FaultInjector(
            net,
            FaultPlan(
                seed=0,
                specs=(
                    ConfigWordDrop(link=root, cycle=net.kernel.cycle + 500),
                ),
            ),
        )
        injector.arm()
        submit_and_finish(net, credit_write(net))
        injector.disarm()
        submit_and_finish(net, credit_write(net, value=5))
        assert stats(net)["config_express_refusals"] == {
            ExpressRefusal.FAULT_HOOKS_ARMED: 1
        }
        assert stats(net)["config_express_packets"] == 1

    def test_busy_decoder_refuses(self):
        net = network()
        decoder = net.router("R11").config.decoder
        decoder.feed(int(Opcode.CHANNEL_CONFIG))
        refusal = net.config_module.express(credit_write(net), 0)
        assert refusal.kind == ExpressRefusal.DECODER_BUSY
        decoder.reset()

    @pytest.mark.parametrize(
        "mode, kind",
        [
            (ACTIVITY_MODE, ExpressRefusal.DECODE_ERROR),
            (NAIVE_MODE, ExpressRefusal.NAIVE_MODE),
        ],
    )
    def test_malformed_packet_steps_and_raises(self, mode, kind):
        """Nothing is addressed, so one decoder judges the packet anyway;
        the refused packet steps and the elements raise as before."""
        net = network(mode)
        bogus = ConfigPacket(opcode=Opcode.PATH_SETUP, words=(0b110, 3))
        with pytest.raises(ProtocolError, match="unknown opcode"):
            submit_and_finish(net, bogus)
        assert stats(net)["config_express_refusals"] == {kind: 1}
