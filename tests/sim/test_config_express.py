"""Differential suite: express config delivery vs stepped config words.

Express delivery (activity and compiled kernels) applies each write
packet's decoded actions at the element's gap cycle without driving a
word onto the config tree; the naive kernel steps every word through
every router and NI.  Everything but the config wires themselves must
agree on every cycle:

* every data-plane register (links, crossbars, NI pipeline stages) —
  only ``cfglink.*``, ``cfg_fwd`` and ``cfg_resp`` may differ, because
  express packets never drive them;
* every router slot table, NI injection/arrival table and NI channel
  register (credits, flags, pairing, queues);
* every request's ``submitted_at`` / ``started_at`` / ``finished_at``;
* the narrow links' ``words_carried``, compared whenever the module is
  idle (express advances them by a packet's length when it starts).

Workloads: live CBR traffic through routers being reconfigured, a
multicast tree, tear-down followed by re-setup on the same slots, and a
``SlotTableUpset`` landing exactly on an element's gap cycle and one
cycle after it.

Run just this suite with ``pytest -m differential``.
"""

from __future__ import annotations

import pytest

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.faults import FaultInjector, FaultPlan, SlotTableUpset
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE, NAIVE_MODE
from repro.topology import build_mesh, gap_cycle
from repro.traffic import CbrGenerator, CheckingSink

pytestmark = pytest.mark.differential

EXPRESS_MODES = (ACTIVITY_MODE, COMPILED_MODE)
PARAMS = daelite_parameters(slot_table_size=16)


def is_config_wire(name: str) -> bool:
    return name.startswith("cfglink.") or name.endswith(
        (".cfg_fwd", ".cfg_resp")
    )


def observable(network, requests):
    """Everything express delivery must keep cycle-identical."""
    registers = tuple(
        (register.name, register.q)
        for register in network.kernel.all_registers()
        if not is_config_wire(register.name)
    )
    tables = tuple(
        (
            name,
            tuple(
                router.slot_table.entry(output, slot)
                for output in range(router.ports)
                for slot in range(PARAMS.slot_table_size)
            ),
        )
        for name, router in sorted(network.routers.items())
    )
    channels = []
    for name, ni in sorted(network.nis.items()):
        channels.append(
            (
                name,
                tuple(
                    ni.injection_table.channel(slot)
                    for slot in range(PARAMS.slot_table_size)
                ),
                tuple(
                    ni.arrival_table.channel(slot)
                    for slot in range(PARAMS.slot_table_size)
                ),
                tuple(
                    (
                        index,
                        source.credit_counter,
                        source.flags,
                        source.paired_arrival,
                        len(source.queue),
                        source.words_sent,
                    )
                    for index, source in sorted(ni.source_channels.items())
                ),
                tuple(
                    (
                        index,
                        dest.flags,
                        dest.paired_source,
                        dest.pending_credits,
                        len(dest.queue),
                        dest.words_received,
                    )
                    for index, dest in sorted(ni.dest_channels.items())
                ),
            )
        )
    timeline = tuple(
        (request.submitted_at, request.started_at, request.finished_at)
        for request in requests
    )
    return registers, tables, tuple(channels), timeline


def words_carried(network):
    return {
        name: link.words_carried
        for name, link in network.config_links.items()
    }


class Bench:
    """One network plus a deterministic stimulus script.

    ``steps`` is a list of callables ``step(bench) -> handle``; each
    fires once the previous handle is done and the module is idle, so
    every kernel receives the same stimuli at the same cycles as long as
    their observable state agrees (which the lockstep loop asserts).
    """

    def __init__(self, mode, mesh, host_ni="NI11"):
        self.network = DaeliteNetwork(
            mesh, PARAMS, host_ni=host_ni, kernel_mode=mode
        )
        self.requests = []
        self.steps = []
        self.handle = None
        self.sinks = []

    def track(self, handle):
        self.requests.extend(handle.requests)
        self.handle = handle
        return handle

    def drive(self):
        if not self.steps:
            return
        if self.handle is not None and not self.handle.done:
            return
        if self.network.config_module.busy:
            return
        self.track(self.steps.pop(0)(self))

    def add_cbr(self, name, src, channel, dst, dst_channel, period):
        network = self.network
        network.kernel.add(
            CbrGenerator(
                f"gen.{name}",
                inject=network.ni(src).injector(channel, name),
                period=period,
            )
        )
        sink = CheckingSink(
            f"sink.{name}",
            receive=network.ni(dst).receiver(dst_channel),
            words_per_cycle=2,
            stats=network.stats,
        )
        network.kernel.add(sink)
        self.sinks.append(sink)


def lockstep(build, cycles):
    """Run the naive reference and every express kernel one cycle at a
    time, asserting observable equality after each cycle."""
    benches = {
        mode: build(mode) for mode in (NAIVE_MODE,) + EXPRESS_MODES
    }
    reference = benches[NAIVE_MODE]
    for _ in range(cycles):
        for bench in benches.values():
            bench.drive()
            bench.network.run(1)
        expected = observable(reference.network, reference.requests)
        idle = not reference.network.config_module.busy
        for mode in EXPRESS_MODES:
            bench = benches[mode]
            got = observable(bench.network, bench.requests)
            cycle = bench.network.kernel.cycle
            for part, (want, have) in enumerate(zip(expected, got)):
                assert want == have, (
                    f"{mode} diverged from naive at cycle {cycle} "
                    f"(part {part})"
                )
            if idle:
                assert words_carried(bench.network) == words_carried(
                    reference.network
                ), f"{mode}: words_carried at cycle {cycle}"
    for mode, bench in benches.items():
        assert not bench.steps, f"{mode}: scenario did not finish"
        assert bench.handle is None or bench.handle.done
        assert all(sink.clean and sink.received for sink in bench.sinks)
        stats = bench.network.kernel.kernel_stats()
        if mode == NAIVE_MODE:
            assert stats["config_express_packets"] == 0
        else:
            assert stats["config_express_packets"] > 0
            assert stats["config_stepped_packets"] == 0
    return benches


def test_live_traffic_through_routers_being_reconfigured():
    mesh = build_mesh(3, 3)
    allocator = SlotAllocator(topology=mesh, params=PARAMS)
    live = allocator.allocate_connection(
        ConnectionRequest("live", "NI00", "NI22", forward_slots=3)
    )
    cross = allocator.allocate_connection(
        ConnectionRequest("cross", "NI02", "NI20", forward_slots=2)
    )
    # The two paths share routers, so `cross` is (re)programmed in
    # routers that forward `live` words in the same cycles.
    assert set(live.forward.path) & set(cross.forward.path)

    def build(mode):
        bench = Bench(mode, mesh)
        handle = bench.track(bench.network.configure(live))
        forward = handle.forward
        bench.add_cbr(
            "live",
            "NI00",
            forward.src_channel,
            "NI22",
            forward.dst_channel,
            period=7,
        )
        host = bench.network.host
        state = {}

        def setup_cross(bench):
            state["cross"] = host.setup_connection(cross)
            return state["cross"]

        bench.steps = [
            setup_cross,
            lambda bench: host.replay_connection(handle, live),
            lambda bench: host.teardown_connection(state["cross"], cross),
            setup_cross,  # the same slots again
        ]
        return bench

    lockstep(build, 1400)


def test_multicast_tree_setup_teardown_and_resetup():
    mesh = build_mesh(3, 3)
    allocator = SlotAllocator(topology=mesh, params=PARAMS)
    tree = allocator.allocate_multicast(
        MulticastRequest("mc", "NI11", ("NI00", "NI22", "NI02"), slots=2)
    )
    live = allocator.allocate_connection(
        ConnectionRequest("live", "NI20", "NI02", forward_slots=2)
    )

    def build(mode):
        bench = Bench(mode, mesh)
        handle = bench.track(bench.network.configure(live))
        bench.add_cbr(
            "live",
            "NI20",
            handle.forward.src_channel,
            "NI02",
            handle.forward.dst_channel,
            period=11,
        )
        host = bench.network.host
        state = {}

        def setup_tree(bench):
            state["tree"] = host.setup_multicast(tree)
            return state["tree"]

        bench.steps = [
            setup_tree,
            lambda bench: host.replay_multicast(state["tree"]),
            lambda bench: host.teardown_multicast(state["tree"]),
            setup_tree,
        ]
        return bench

    lockstep(build, 1500)


@pytest.mark.parametrize("offset", [0, 1])
def test_table_upset_at_the_gap_cycle_and_after(offset):
    """An upset clearing an entry in the very cycle the replay rewrites
    it (start-of-cycle callback, then the gap-cycle commit) leaves the
    entry programmed; one cycle later it leaves it cleared — in every
    kernel alike."""
    mesh = build_mesh(3, 3)
    allocator = SlotAllocator(topology=mesh, params=PARAMS)
    live = allocator.allocate_connection(
        ConnectionRequest("live", "NI00", "NI22", forward_slots=2)
    )
    path = live.forward.path
    victim = path[2]
    output = mesh.element(victim).port_to(path[3])
    outcomes = {}

    def build(mode):
        bench = Bench(mode, mesh)
        network = bench.network
        handle = bench.track(network.configure(live))
        router = network.router(victim)
        slot = min(router.slot_table.occupied_slots(output))
        start = network.kernel.cycle + 5
        words = len(handle.requests[0].packet)
        gap = gap_cycle(start, words, network.config_tree.depth[victim])
        injector = FaultInjector(
            network,
            FaultPlan(
                seed=0,
                specs=(
                    SlotTableUpset(
                        router=victim,
                        output=output,
                        slot=slot,
                        cycle=gap + offset,
                    ),
                ),
            ),
        )
        injector.arm()

        def submit(cycle):
            bench.track(network.host.replay_connection(handle, live))

        network.kernel.at(start, submit)
        outcomes[mode] = lambda: router.slot_table.entry(output, slot)
        return bench

    lockstep(build, 400)
    entries = {mode: probe() for mode, probe in outcomes.items()}
    assert len(set(entries.values())) == 1
    cleared = entries[NAIVE_MODE] is None
    assert cleared == (offset == 1)
