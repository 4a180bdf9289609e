"""Config-link faults keep set-up packets on the stepped path.

Express delivery applies a write packet's decoded actions at their gap
cycles without driving a word onto the config tree, so a fault hook on a
config link would have nothing to strike.  Two guards keep the fault
model honest:

* while any config-link hook is armed, every packet takes the stepped
  path (typed refusal ``fault_hooks_armed``), so drops and corrupts land
  exactly where they always did — the fault logs below are pinned to the
  digests the word-stepping simulator produced before express delivery
  existed;
* arming config-link faults while an express packet is in flight is
  refused with a :class:`~repro.errors.FaultInjectionError`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.alloc import ConnectionRequest
from repro.core import ExpressRefusal
from repro.errors import FaultInjectionError
from repro.faults import (
    ConfigWordCorrupt,
    ConfigWordDrop,
    FaultInjector,
    FaultPlan,
    SlotTableUpset,
)

from .test_chaos import CI_SEEDS, run_chaos

#: sha256 prefixes of the fault logs, recorded with every config word
#: stepped through the tree (the reference semantics).
ARMED_SETUP_LOG = "300573e8d1dfa310"
CHAOS_LOGS = {3: "d19c4d32e7578bff", 17: "2aa9a22d43ff7be3"}


def digest(network) -> str:
    return hashlib.sha256(
        network.stats.fault_log().encode()
    ).hexdigest()[:16]


def armed_setup_campaign(network, manager):
    """Corrupt and drop config words inside a repair replay and a fresh
    open, both submitted while the hooks are armed."""
    root = f"cfg.module->{network.config_tree.root}"
    inner = sorted(
        name
        for name in network.config_links
        if name.startswith("cfg.") and name != root
    )[3]
    now = network.kernel.cycle
    plan = FaultPlan(
        seed=0,
        specs=(
            ConfigWordCorrupt(link=root, cycle=now + 6, bit=1),
            ConfigWordDrop(link=inner, cycle=now + 12),
            ConfigWordCorrupt(link=inner, cycle=now + 70, bit=4),
            ConfigWordDrop(link=root, cycle=now + 150),
        ),
    )
    injector = FaultInjector(network, plan)
    injector.arm()
    manager.repair_connection("stream")
    manager.open_connection(
        ConnectionRequest("late", "NI20", "NI02", forward_slots=1)
    )
    injector.disarm()


class TestArmedConfigFaultsStep:
    def test_armed_setup_packets_step_and_log_like_the_reference(
        self, managed_mesh
    ):
        network, manager, _ = managed_mesh
        before = network.kernel.kernel_stats()
        armed_setup_campaign(network, manager)
        after = network.kernel.kernel_stats()
        counts = network.stats.fault_counts()
        assert counts["config_corrupt"] >= 1 and counts["config_drop"] >= 1
        assert (
            after["config_express_packets"]
            == before["config_express_packets"]
        )
        stepped = (
            after["config_stepped_packets"]
            - before["config_stepped_packets"]
        )
        assert stepped >= 12  # six replay packets + six set-up packets
        refusals = after["config_express_refusals"]
        if network.kernel.mode != "naive":
            assert refusals.get(ExpressRefusal.FAULT_HOOKS_ARMED, 0) >= 12
        assert digest(network) == ARMED_SETUP_LOG

    @pytest.mark.parametrize("seed", CI_SEEDS)
    def test_chaos_fault_logs_match_the_reference(self, seed):
        network = run_chaos(seed, fail_a_link=True)
        assert digest(network) == CHAOS_LOGS[seed]


class TestArmingRefusedMidExpress:
    def test_config_faults_refused_while_express_packet_in_flight(
        self, managed_mesh
    ):
        network, manager, record = managed_mesh
        if network.kernel.mode == "naive":
            pytest.skip("the naive kernel never expresses a packet")
        replay = network.host.replay_connection(
            record.handle, record.allocation
        )
        network.run(3)
        assert network.config_module.express_in_flight
        root = f"cfg.module->{network.config_tree.root}"
        now = network.kernel.cycle
        injector = FaultInjector(
            network,
            FaultPlan(
                seed=0,
                specs=(ConfigWordDrop(link=root, cycle=now + 40),),
            ),
        )
        with pytest.raises(FaultInjectionError, match="express"):
            injector.arm()
        assert not injector.armed
        assert network.config_links[root].fault_hook is None
        # Data-plane and table faults do not touch the config links.
        path = record.allocation.forward.path
        upsets = FaultInjector(
            network,
            FaultPlan(
                seed=0,
                specs=(
                    SlotTableUpset(
                        router=path[1], output=0, slot=0, cycle=now + 1
                    ),
                ),
            ),
        )
        upsets.arm()
        upsets.disarm()
        network.run_until_configured(replay)
        # Once the module is idle, config faults arm normally.
        assert not network.config_module.express_in_flight
        later = FaultInjector(
            network,
            FaultPlan(
                seed=0,
                specs=(
                    ConfigWordDrop(
                        link=root, cycle=network.kernel.cycle + 40
                    ),
                ),
            ),
        )
        later.arm()
        later.disarm()
