"""Perf-regression smoke test for the simulation kernel.

Bounds simulated cycles/second on a 4x4 mesh under a mixed workload
(periodic bursts with idle gaps) so a future change cannot silently
regress the kernel by an order of magnitude.  The bound is set ~10x
below what the activity-driven kernel achieves on a modest machine
(~75k cycles/s), so it stays robust to slow CI runners while still
catching order-of-magnitude regressions.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional, Tuple

import pytest

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.core.credits import DestChannel, SourceChannel
from repro.params import daelite_parameters
from repro.sim.flit import Phit, Word
from repro.sim.kernel import (
    ACTIVITY_MODE,
    COMPILED_MODE,
    NAIVE_MODE,
    Register,
)
from repro.sim.link import Link, NarrowLink
from repro.sim.stats import ConnectionStats, FaultEvent, WordRecord
from repro.sim.trace import TraceEvent
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

#: Minimum simulated cycles per wall-clock second (activity kernel).
MIN_CYCLES_PER_SECOND = 8_000
RUN_CYCLES = 30_000


@pytest.mark.slow
def test_activity_kernel_cycles_per_second_on_4x4_mesh():
    params = daelite_parameters(slot_table_size=16)
    mesh = build_mesh(4, 4)
    allocator = SlotAllocator(topology=mesh, params=params)
    dst = ni_name(3, 3)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "perf", "NI00", dst, forward_slots=2, reverse_slots=1
        )
    )
    # The smoke test targets the fast path explicitly, independent of
    # REPRO_KERNEL_MODE — naive-mode CI legs exercise correctness, not
    # this throughput bound.
    net = DaeliteNetwork(mesh, params, kernel_mode=ACTIVITY_MODE)
    handle = net.configure(connection)
    base = net.kernel.cycle
    src_channel = handle.forward.src_channel
    dst_channel = handle.forward.dst_channel
    for start in range(0, RUN_CYCLES, 100):
        net.kernel.at(
            base + start,
            lambda cycle: net.ni("NI00").submit_words(
                src_channel, list(range(4))
            ),
        )
        net.kernel.at(
            base + start + 60,
            lambda cycle: net.ni(dst).receive(dst_channel),
        )
    started = time.perf_counter()
    net.run(RUN_CYCLES)
    elapsed = time.perf_counter() - started
    cycles_per_second = RUN_CYCLES / elapsed
    # The workload genuinely ran (words flowed and gaps were skipped).
    assert net.stats.delivered_words(f"NI00.ch{src_channel}") > 0
    assert net.kernel.fast_forwarded_cycles > 0
    assert cycles_per_second >= MIN_CYCLES_PER_SECOND, (
        f"kernel throughput regressed: {cycles_per_second:,.0f} cycles/s "
        f"< {MIN_CYCLES_PER_SECOND:,} on a 4x4 mesh"
    )


def _steady_state_cps(
    mode: str, run_cycles: int
) -> Tuple[float, DaeliteNetwork]:
    """Cycles/second of ``mode`` on a steady CBR flow (4x4 mesh)."""
    params = daelite_parameters(slot_table_size=16)
    mesh = build_mesh(4, 4)
    allocator = SlotAllocator(topology=mesh, params=params)
    dst = ni_name(3, 3)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            "perf", "NI00", dst, forward_slots=2, reverse_slots=1
        )
    )
    net = DaeliteNetwork(mesh, params, kernel_mode=mode)
    handle = net.configure(connection)
    net.run_until_configured(handle)
    gen = CbrGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "perf"),
        period=20,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni(dst).receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    net.run(500)  # settle into the periodic steady state
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    assert sink.clean and net.stats.delivered_words("perf") > 0
    return run_cycles / elapsed, net


def _best_cps(mode: str, run_cycles: int) -> Tuple[float, DaeliteNetwork]:
    """The faster of two runs (wall-clock noise only ever slows)."""
    return max(
        (_steady_state_cps(mode, run_cycles) for _ in range(2)),
        key=lambda run: run[0],
    )


@pytest.mark.slow
def test_kernel_mode_throughput_ordering(monkeypatch):
    """Regression gate on one periodic workload, every comparison like
    for like: stepped compiled >= 1.5x activity >= 1.5x naive (every
    cycle stepped in all three), and compiled with epoch replay >=
    compiled stepped.  Stepping is forced by shrinking the replay probe
    budget below the steady period, so the engine records a typed
    ``aperiodic_segment`` and replays nothing.  Ratios of cycles/s
    taken on the same machine in the same process are stable where
    absolute wall-clock is not — this cannot flake on a slow runner the
    way a time bound would."""
    naive_cps, _ = _best_cps(NAIVE_MODE, 2_000)
    activity_cps, _ = _best_cps(ACTIVITY_MODE, 8_000)
    with monkeypatch.context() as patched:
        patched.setattr("repro.sim.compiled.MAX_REPLAY_PERIOD", 1)
        stepped_cps, stepped_net = _best_cps(COMPILED_MODE, 8_000)
    replay_cps, replay_net = _best_cps(COMPILED_MODE, 8_000)
    stepped_stats = stepped_net.kernel.kernel_stats()
    assert stepped_stats["replayed_epochs"] == 0
    assert stepped_stats["compiled_cycles"] > 0
    assert "aperiodic_segment" not in stepped_stats["compile_fallbacks"]
    assert replay_net.kernel.kernel_stats()["replayed_epochs"] > 0
    assert activity_cps >= 1.5 * naive_cps, (
        f"activity kernel no longer clearly beats naive: "
        f"{activity_cps:,.0f} vs {naive_cps:,.0f} cycles/s"
    )
    assert stepped_cps >= 1.5 * activity_cps, (
        f"stepped compiled kernel no longer clearly beats activity: "
        f"{stepped_cps:,.0f} vs {activity_cps:,.0f} cycles/s"
    )
    assert replay_cps >= stepped_cps, (
        f"epoch replay no longer beats compiled stepping: "
        f"{replay_cps:,.0f} vs {stepped_cps:,.0f} cycles/s"
    )


#: Hot-path value classes that must never grow a per-instance dict.
SLOTTED_INSTANCES = [
    Word(payload=1, connection="c", sequence=0, parity=1),
    Phit(),
    Register("r"),
    SourceChannel(channel=0),
    DestChannel(channel=0),
    FaultEvent(cycle=0, category="detect", kind="k", site="s"),
    WordRecord(connection="c", sequence=0, injected_at=0),
    ConnectionStats(connection="c"),
    TraceEvent(cycle=0, component="c", category="k", message="m"),
    Link("l"),
    NarrowLink("n"),
]


def test_hot_path_classes_are_slotted():
    for instance in SLOTTED_INSTANCES:
        assert not hasattr(instance, "__dict__"), (
            f"{type(instance).__name__} grew a per-instance __dict__ — "
            f"the hot-path value classes are slotted for footprint and "
            f"attribute-access speed"
        )


@pytest.mark.slow
def test_slotted_word_micro_bench():
    """Before/after micro-benchmark for the ``__slots__`` change: a
    slotted Word must not be slower to build and read than an unslotted
    clone of itself (it is typically measurably faster)."""

    @dataclasses.dataclass(frozen=True)
    class DictWord:  # the pre-change layout
        payload: int
        connection: str = ""
        sequence: int = -1
        injected_at: int = -1
        parity: Optional[int] = None

    def bench(cls) -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            total = 0
            for i in range(20_000):
                word = cls(payload=i, connection="c", sequence=i)
                total += word.payload + word.sequence
            best = min(best, time.perf_counter() - started)
        assert total > 0
        return best

    dict_time = bench(DictWord)
    slotted_time = bench(Word)
    print(
        f"\nWord build+access x20k: slotted {slotted_time * 1e3:.1f} ms, "
        f"dict {dict_time * 1e3:.1f} ms "
        f"({dict_time / slotted_time:.2f}x)"
    )
    # Generous bound: catches an accidental un-slotting (which also
    # trips the hasattr check above) or a pathological slowdown, while
    # staying immune to scheduler noise.
    assert slotted_time <= dict_time * 1.5
