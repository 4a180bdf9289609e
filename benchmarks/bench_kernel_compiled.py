"""Kernel throughput on a steady 8x8 workload, stepped and replayed.

Once the configuration tree is quiet, the compiled engine flattens the
data plane into integer-indexed tables and steps it with no component
dispatch; on an exactly periodic steady state it also replays epochs
arithmetically.  The two layers are published as separate fields so a
speed-up names the layer it came from:

* ``stepped_cycles_per_s`` — every cycle stepped, per kernel mode
  (compiled with replay withheld, see ``_helpers.replay_off``);
* ``replayed_cycles_per_s`` — the compiled engine with epoch replay on,
  the mode a user actually runs.

Gates compare like with like: stepped compiled >=5x stepped activity on
a *busy* workload (the profile where activity-driven scheduling has
nothing left to skip), all modes delivering the bit-identical word
stream, and replay at least as fast as stepping the same workload.

Results land in ``BENCH_kernel.json``.
"""

from __future__ import annotations

import gc
import statistics
import time

from _helpers import replay_off, write_bench_json
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE, NAIVE_MODE
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink

#: Corner/edge flows crossing the whole 8x8 mesh in four directions.
FLOW_PAIRS = [
    (ni_name(0, 0), ni_name(7, 7)),
    (ni_name(0, 7), ni_name(7, 0)),
    (ni_name(3, 0), ni_name(4, 7)),
    (ni_name(0, 3), ni_name(7, 4)),
]

#: One word per flow every GEN_PERIOD cycles — continuous traffic, so
#: the activity kernel has awake components every single cycle.  The
#: rate sits below the credit-window limit of a cross-mesh flow
#: (8 credits per ~100-cycle round trip), so queues stay bounded and
#: the steady state is exactly periodic.
GEN_PERIOD = 20

WARMUP_CYCLES = 2_000


def build_workload(mode):
    """An 8x8 mesh with four configured cross-mesh CBR flows."""
    params = daelite_parameters(slot_table_size=16, config_word_bits=9)
    mesh = build_mesh(8, 8)
    allocator = SlotAllocator(topology=mesh, params=params)
    allocated = [
        allocator.allocate_connection(
            ConnectionRequest(
                f"flow{i}", src, dst, forward_slots=2, reverse_slots=1
            )
        )
        for i, (src, dst) in enumerate(FLOW_PAIRS)
    ]
    net = DaeliteNetwork(mesh, params, host_ni="NI00", kernel_mode=mode)
    handles = [net.configure(conn) for conn in allocated]
    for handle in handles:
        net.run_until_configured(handle)
    sinks = []
    for i, handle in enumerate(handles):
        src, dst = FLOW_PAIRS[i]
        fwd = handle.forward
        gen = CbrGenerator(
            f"gen{i}",
            inject=net.ni(src).injector(fwd.src_channel, f"flow{i}"),
            period=GEN_PERIOD,
        )
        sink = CheckingSink(
            f"sink{i}",
            receive=net.ni(dst).receiver(fwd.dst_channel),
            words_per_cycle=2,
            stats=net.stats,
        )
        net.kernel.add(gen)
        net.kernel.add(sink)
        sinks.append(sink)
    return net, sinks


def timed_run(mode, run_cycles):
    """Wall-clock one measured window; returns (elapsed, net, sinks).

    A pre-window ``gc.collect()`` keeps a generational collection of
    the previous runs' WordRecord piles from landing inside the timed
    region — at replay speeds a single gen-2 pass is comparable to the
    whole measured window.
    """
    net, sinks = build_workload(mode)
    net.run(WARMUP_CYCLES)
    gc.collect()
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    return elapsed, net, sinks


def timed_runs(mode, run_cycles, runs):
    """Repeat timed_run; returns (walls, nets) with sinks asserted clean."""
    walls, nets = [], []
    for _ in range(runs):
        wall, net, sinks = timed_run(mode, run_cycles)
        assert all(sink.clean for sink in sinks)
        walls.append(wall)
        nets.append(net)
    return walls, nets


def delivered_profile(net):
    """Per-flow delivered word counts at the current cycle."""
    return {
        f"flow{i}": net.stats.delivered_words(f"flow{i}")
        for i in range(len(FLOW_PAIRS))
    }


def telemetry(net):
    """Replay provenance of one compiled run."""
    stats = net.kernel.kernel_stats()
    return {
        "compiled_cycles": stats["compiled_cycles"],
        "replayed_epochs": stats["replayed_epochs"],
        "replayed_cycles": stats["replayed_cycles"],
        "replay_coverage": round(
            stats["replayed_cycles"] / max(1, stats["compiled_cycles"]), 4
        ),
        "regimes_detected": stats["regimes_detected"],
        "compile_fallbacks": stats["compile_fallbacks"],
        "replay_refusals": stats["replay_refusals"],
    }


def test_compiled_kernel_speedup_steady_state():
    """Stepped compiled must beat stepped activity by >=5x on saturated
    traffic, and replay must not lose to stepping; every mode delivers
    the bit-identical word stream."""
    window_cycles = 30_000
    naive_cycles = 3_000
    runs = 5

    with replay_off():
        stepped_walls, stepped_nets = timed_runs(
            COMPILED_MODE, window_cycles, runs
        )
    replayed_walls, replayed_nets = timed_runs(
        COMPILED_MODE, window_cycles, runs
    )
    activity_walls, activity_nets = timed_runs(
        ACTIVITY_MODE, window_cycles, runs
    )
    naive_walls, _ = timed_runs(NAIVE_MODE, naive_cycles, 3)

    stepped_cps = window_cycles / statistics.median(stepped_walls)
    replayed_cps = window_cycles / statistics.median(replayed_walls)
    activity_cps = window_cycles / statistics.median(activity_walls)
    naive_cps = naive_cycles / statistics.median(naive_walls)
    speedup = stepped_cps / activity_cps
    replay_gain = replayed_cps / stepped_cps

    # Identical cycle horizon => the word streams must match exactly.
    reference = delivered_profile(activity_nets[0])
    assert all(count > 0 for count in reference.values())
    for net in stepped_nets + replayed_nets + activity_nets:
        assert delivered_profile(net) == reference
        assert net.total_dropped_words == 0

    stepped_telemetry = telemetry(stepped_nets[0])
    replayed_telemetry = telemetry(replayed_nets[0])
    assert stepped_telemetry["compiled_cycles"] > 0
    assert stepped_telemetry["replayed_epochs"] == 0
    assert replayed_telemetry["replayed_epochs"] > 0

    print("\n8x8 MESH steady state (4 CBR flows) — kernel throughput")
    print(f"{'kernel':>17} {'cycles/s':>12}")
    print(f"{'compiled+replay':>17} {replayed_cps:>12,.0f}")
    print(f"{'compiled stepped':>17} {stepped_cps:>12,.0f}")
    print(f"{'activity':>17} {activity_cps:>12,.0f}")
    print(f"{'naive':>17} {naive_cps:>12,.0f}")
    print(
        f"stepped compiled {speedup:.1f}x activity; replay "
        f"{replay_gain:.1f}x stepped (replayed "
        f"{replayed_telemetry['replayed_cycles']} of "
        f"{window_cycles + WARMUP_CYCLES} cycles in "
        f"{replayed_telemetry['replayed_epochs']} epochs)"
    )

    write_bench_json(
        "kernel",
        {
            "workload": "8x8 mesh, 4 cross-mesh CBR flows, T=16",
            "runs": runs,
            "aggregation": "median",
            "measured_cycles": {
                "compiled": window_cycles,
                "activity": window_cycles,
                "naive": naive_cycles,
            },
            "stepped_cycles_per_s": {
                "compiled": round(stepped_cps),
                "activity": round(activity_cps),
                "naive": round(naive_cps),
            },
            "replayed_cycles_per_s": {
                "compiled": round(replayed_cps),
            },
            "speedup_stepped_compiled_vs_activity": round(speedup, 2),
            "speedup_replayed_vs_stepped_compiled": round(replay_gain, 2),
            "stepped_telemetry": stepped_telemetry,
            "replayed_telemetry": replayed_telemetry,
        },
        kernel_mode=[ACTIVITY_MODE, COMPILED_MODE, NAIVE_MODE],
    )

    assert speedup >= 5.0, (
        f"stepped compiled kernel only {speedup:.2f}x faster than "
        f"activity on the steady-state 8x8 workload — expected >=5x"
    )
    assert replay_gain >= 1.0, (
        f"epoch replay slower than stepping the same workload: "
        f"{replayed_cps:,.0f} vs {stepped_cps:,.0f} cycles/s"
    )
