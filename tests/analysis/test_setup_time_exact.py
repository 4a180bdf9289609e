"""``exact_setup_cycles`` is cycle-exact against the simulator.

The closed form must equal the measured ``setup_cycles`` of every handle
both when the config words are stepped through the tree (the naive
kernel, the reference semantics) and when the packets are applied as
scheduled writes at their gap cycles (express delivery on the activity
and compiled kernels), on meshes from 1x2 to 4x4, wheels of 8/16/32
slots, unicast and multicast set-up, tear-down and replay.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.alloc import ConnectionRequest, MulticastRequest, SlotAllocator
from repro.analysis import (
    exact_setup_cycles,
    ideal_setup_cycles,
    path_packet_words,
)
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE, NAIVE_MODE
from repro.topology import build_mesh

MODES = (NAIVE_MODE, ACTIVITY_MODE, COMPILED_MODE)
SCENARIOS = ("unicast", "multicast", "teardown", "replay")


def measured(mode, mesh, params, scenario, allocation):
    """(handle setup cycles, exact prediction) for each handle the
    scenario blocks on, plus the kernel's express packet count."""
    network = DaeliteNetwork(mesh, params, kernel_mode=mode)
    tree = network.config_tree
    host = network.host
    handles = []
    if scenario == "multicast":
        handles.append(host.setup_multicast(allocation))
    else:
        handles.append(host.setup_connection(allocation))
    network.run_until_configured(handles[0])
    if scenario == "teardown":
        handles.append(host.teardown_connection(handles[0], allocation))
    elif scenario == "replay":
        handles.append(host.replay_connection(handles[0], allocation))
    for handle in handles[1:]:
        network.run_until_configured(handle)
    pairs = [
        (
            handle.setup_cycles,
            exact_setup_cycles(
                [len(request.packet) for request in handle.requests],
                params,
                tree=tree,
            ),
        )
        for handle in handles
    ]
    return pairs, network.kernel.kernel_stats()["config_express_packets"]


@st.composite
def cases(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    height = draw(st.integers(min_value=1, max_value=4))
    assume(width * height >= 2)
    slots = draw(st.sampled_from((8, 16, 32)))
    scenario = draw(st.sampled_from(SCENARIOS))
    mesh = build_mesh(width, height)
    nis = [ni.name for ni in mesh.nis]
    src = draw(st.sampled_from(nis))
    others = [name for name in nis if name != src]
    params = daelite_parameters(slot_table_size=slots)
    allocator = SlotAllocator(topology=mesh, params=params)
    if scenario == "multicast":
        dsts = draw(
            st.lists(
                st.sampled_from(others),
                min_size=1,
                max_size=min(3, len(others)),
                unique=True,
            )
        )
        allocation = allocator.allocate_multicast(
            MulticastRequest("m", src, tuple(dsts), slots=1)
        )
    else:
        dst = draw(st.sampled_from(others))
        allocation = allocator.allocate_connection(
            ConnectionRequest(
                "c",
                src,
                dst,
                forward_slots=draw(st.integers(1, 3)),
                reverse_slots=1,
            )
        )
    return mesh, params, scenario, allocation


class TestExactSetupCycles:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=cases())
    def test_matches_stepped_and_express_runs(self, case):
        mesh, params, scenario, allocation = case
        for mode in MODES:
            pairs, express = measured(
                mode, mesh, params, scenario, allocation
            )
            for simulated, predicted in pairs:
                assert simulated == predicted, (mode, scenario)
            if mode == NAIVE_MODE:
                assert express == 0
            else:
                assert express > 0

    def test_table_three_golden_pair(self):
        """The Table III golden set-up (2x2 mesh, T=16, three routers,
        tree depth 4): two 14-word path packets measure 55 cycles — the
        exact value, one above the ideal 54."""
        params = daelite_parameters(slot_table_size=16)
        exact = exact_setup_cycles([14, 14], params, tree_depth=4)
        assert exact == 55
        assert ideal_setup_cycles(3, params, tree_depth=4) == 54

    @pytest.mark.parametrize("packets", [0, 1, 2, 6])
    def test_ideal_is_a_lower_bound_by_packets_minus_one(self, packets):
        params = daelite_parameters(slot_table_size=16)
        words = [path_packet_words(3, params)] * packets
        exact = exact_setup_cycles(words, params, tree_depth=3)
        ideal = ideal_setup_cycles(3, params, tree_depth=3, packets=packets)
        assert exact == ideal + max(0, packets - 1)
