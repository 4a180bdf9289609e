"""Quiescence fast-forward never skips a cycle that would do work.

The activity kernel may jump the clock only over stretches in which no
register would be driven and no component would change state.  These
tests pin that down directly: a naive-mode sibling network runs in
lockstep, and every cycle after which the naive build holds *any*
non-idle register output (i.e. something was driven in the previous
cycle) must have been executed — not fast-forwarded — by the activity
build.  Registers are compared after every edge as well, so a wrongly
skipped latch cannot hide.

Covered workloads: a fully idle network, a single periodic connection
(traffic separated by quiescent gaps), and a configuration-tree burst
fired into the middle of a long idle period.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.config_protocol import ChannelField, Direction
from repro.errors import SimulationError
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, NAIVE_MODE, Kernel
from repro.topology import build_mesh


def build_pair(configure=True):
    """Identical 2x2 daelite networks on the two kernels."""
    params = daelite_parameters(slot_table_size=8)
    mesh = build_mesh(2, 2)
    allocator = SlotAllocator(topology=mesh, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "c", "NI00", "NI11", forward_slots=2, reverse_slots=1
        )
    )
    nets = []
    for mode in (ACTIVITY_MODE, NAIVE_MODE):
        net = DaeliteNetwork(mesh, params, kernel_mode=mode)
        if configure:
            net.configure(connection)
        nets.append(net)
    activity, naive = nets
    assert activity.kernel.cycle == naive.kernel.cycle
    return activity, naive, connection


def is_config_wire(name):
    """Registers only stepped config words drive (express delivery
    leaves them idle by design)."""
    return name.startswith("cfglink.") or name.endswith(
        (".cfg_fwd", ".cfg_resp")
    )


def lockstep_checking_no_skipped_work(
    activity, naive, cycles, ignore=lambda name: False
):
    """Step both builds one cycle at a time.  Whenever the naive build
    shows that the cycle drove any register, the activity build must
    have executed (not skipped) that cycle; all registers must agree.
    Registers whose name ``ignore`` accepts are left out of both."""
    naive_regs = [
        reg for reg in naive.kernel.all_registers() if not ignore(reg.name)
    ]
    activity_regs = [
        reg
        for reg in activity.kernel.all_registers()
        if not ignore(reg.name)
    ]
    executed_when_needed = 0
    for _ in range(cycles):
        before = activity.kernel.active_cycles
        activity.run(1)
        naive.run(1)
        executed = activity.kernel.active_cycles > before
        cycle = naive.kernel.cycle
        driven_last_cycle = any(
            reg.q != reg.idle for reg in naive_regs
        )
        if driven_last_cycle:
            assert executed, (
                f"cycle {cycle - 1} drove at least one register but the "
                f"activity kernel fast-forwarded over it"
            )
            executed_when_needed += 1
        for reg_a, reg_n in zip(activity_regs, naive_regs):
            assert reg_a.q == reg_n.q, (
                f"cycle {cycle}: {reg_a.name} diverged"
            )
    return executed_when_needed


class TestIdleNetwork:
    def test_idle_network_is_entirely_fast_forwarded(self):
        activity, naive, _ = build_pair(configure=False)
        start = activity.kernel.cycle
        activity.run(5000)
        naive.run(5000)
        assert activity.kernel.cycle == naive.kernel.cycle == start + 5000
        # Nothing is configured and nothing submitted: every cycle is
        # quiescent and skippable.
        assert activity.kernel.fast_forwarded_cycles == 5000
        assert activity.kernel.active_cycles == 0
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_a.idle
            assert reg_a.q == reg_n.q

    def test_idle_run_until_still_times_out(self):
        activity, _, _ = build_pair(configure=False)
        with pytest.raises(SimulationError, match="not reached"):
            activity.kernel.run_until(lambda: False, max_cycles=123)
        # The timeout consumed exactly the budget, fast-forwarded.
        assert activity.kernel.cycle == 123


class TestPeriodicConnection:
    def test_sparse_periodic_traffic_skips_only_dead_cycles(self):
        activity, naive, _ = build_pair()
        base = activity.kernel.cycle
        # One small burst every 60 cycles, drained 20 cycles later:
        # leaves long genuinely-idle gaps between activity islands.
        for net in (activity, naive):
            for start in range(0, 600, 60):

                def inject(cycle, net=net):
                    net.ni("NI00").submit_words(0, [cycle & 0xFFFF])

                def drain(cycle, net=net):
                    net.ni("NI11").receive(0)

                net.kernel.at(base + start, inject)
                net.kernel.at(base + start + 20, drain)
        needed = lockstep_checking_no_skipped_work(activity, naive, 650)
        assert needed > 0  # the workload did drive registers
        assert activity.kernel.fast_forwarded_cycles > 0  # and gaps exist
        assert {
            label: stats.latencies
            for label, stats in activity.stats.connections.items()
        } == {
            label: stats.latencies
            for label, stats in naive.stats.connections.items()
        }

    def test_fast_forward_is_cheaper_than_stepping(self):
        activity, naive, _ = build_pair()
        evals_before = activity.kernel.evaluations
        activity.run(2000)
        naive.run(2000)
        # No traffic queued: the activity build skips essentially all of
        # it while the naive build pays full price every cycle.
        assert activity.kernel.evaluations - evals_before == 0
        assert activity.kernel.fast_forwarded_cycles >= 2000


class TestConfigBurstMidIdle:
    def test_config_tree_burst_fired_into_idle_period(self):
        """A packet that must step through the tree (a CHANNEL_READ: its
        response travels the reverse tree) scheduled mid-idle wakes the
        whole config tree at exactly the right cycle in both modes —
        config wires included."""
        activity, naive, connection = build_pair(configure=False)
        requests = {}
        for mode, net in (("activity", activity), ("naive", naive)):
            handle = net.host.setup_connection(connection)
            net.run_until_configured(handle)

            def read(cycle, net=net, mode=mode, handle=handle):
                requests[mode] = net.host.read_channel_register(
                    "NI00",
                    Direction.INJECT,
                    handle.forward.src_channel,
                    ChannelField.FLAGS,
                )

            net.kernel.at(net.kernel.cycle + 1200, read)
        before = activity.kernel.fast_forwarded_cycles
        needed = lockstep_checking_no_skipped_work(activity, naive, 1600)
        assert needed > 0
        # The 1200 leading idle cycles were all skippable.
        assert activity.kernel.fast_forwarded_cycles - before >= 1200
        assert requests["activity"].done and requests["naive"].done
        assert requests["activity"].responses == requests["naive"].responses
        assert (
            requests["activity"].setup_cycles
            == requests["naive"].setup_cycles
        )
        refusals = activity.kernel.kernel_stats()["config_express_refusals"]
        assert refusals == {"expects_responses": 1}

    def test_express_setup_fired_into_idle_period(self):
        """A set-up scheduled mid-idle is expressed on the activity
        kernel: every register but the config wires matches the naive
        (stepped) build on every cycle, no cycle that drove one of them
        is skipped, and the handle's timeline is identical."""
        params = daelite_parameters(slot_table_size=8)
        mesh = build_mesh(2, 2)
        allocator = SlotAllocator(topology=mesh, params=params)
        connection = allocator.allocate_connection(
            ConnectionRequest(
                "late", "NI01", "NI10", forward_slots=1, reverse_slots=1
            )
        )
        nets = {}
        handles = {}
        for mode in (ACTIVITY_MODE, NAIVE_MODE):
            net = DaeliteNetwork(mesh, params, kernel_mode=mode)

            def setup(cycle, net=net, mode=mode):
                handles[mode] = net.host.setup_connection(connection)

            net.kernel.at(1200, setup)
            nets[mode] = net
        needed = lockstep_checking_no_skipped_work(
            nets[ACTIVITY_MODE], nets[NAIVE_MODE], 1600, is_config_wire
        )
        # Without traffic a set-up drives nothing but config wires.
        assert needed == 0
        assert nets[ACTIVITY_MODE].kernel.fast_forwarded_cycles >= 1200
        express, naive = handles[ACTIVITY_MODE], handles[NAIVE_MODE]
        assert express.done and naive.done
        assert [
            (r.submitted_at, r.started_at, r.finished_at)
            for r in express.requests
        ] == [
            (r.submitted_at, r.started_at, r.finished_at)
            for r in naive.requests
        ]
        for name, link in nets[NAIVE_MODE].config_links.items():
            assert (
                nets[ACTIVITY_MODE].config_links[name].words_carried
                == link.words_carried
            )
        stats = nets[ACTIVITY_MODE].kernel.kernel_stats()
        assert stats["config_express_packets"] == len(express.requests)
        assert stats["config_stepped_packets"] == 0


class TestKernelPrimitives:
    def test_callback_wakes_a_quiescent_kernel(self):
        kernel = Kernel(mode=ACTIVITY_MODE)
        seen = []
        kernel.at(400, seen.append)
        kernel.step(1000)
        assert seen == [400]
        assert kernel.cycle == 1000
        assert kernel.fast_forwarded_cycles == 999

    def test_mode_switch_mid_flight_preserves_state(self):
        activity, naive, _ = build_pair()
        activity.ni("NI00").submit_words(0, list(range(5)))
        naive.ni("NI00").submit_words(0, list(range(5)))
        activity.run(17)
        naive.run(17)
        activity.kernel.set_mode(NAIVE_MODE)
        activity.run(100)
        naive.run(100)
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_n.q
        activity.kernel.set_mode(ACTIVITY_MODE)
        activity.run(100)
        naive.run(100)
        for reg_a, reg_n in zip(
            activity.kernel.all_registers(), naive.kernel.all_registers()
        ):
            assert reg_a.q == reg_n.q
