"""Network-size scaling within the 7-bit addressing envelope.

The 7-bit configuration word addresses "networks with up to 64 network
elements"; this bench sweeps mesh sizes up to that envelope (5x5 = 50
elements) and reports how set-up time, configuration-tree depth, and
simulator throughput scale.
"""

from __future__ import annotations

import json
import math
import time

import pytest

from _helpers import BENCH_RESULT_DIR, connected_daelite, replay_off
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import daelite_parameters
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE, NAIVE_MODE
from repro.topology import build_mesh, ni_name, router_name
from repro.traffic.generators import CbrGenerator
from repro.traffic.sinks import CheckingSink


def corner_to_corner_setup(side, config_word_bits=7):
    mesh = build_mesh(side, side)
    params = daelite_parameters(
        slot_table_size=16, config_word_bits=config_word_bits
    )
    allocator = SlotAllocator(topology=mesh, params=params)
    dst = ni_name(side - 1, side - 1)
    conn = allocator.allocate_connection(
        ConnectionRequest("c", "NI00", dst, forward_slots=1)
    )
    net = DaeliteNetwork(mesh, params, host_ni="NI00")
    handle = net.host.setup_paths(conn)
    cycles = net.run_until_configured(handle)
    return (
        len(mesh.elements),
        net.config_tree.max_depth,
        conn.forward.hops,
        cycles,
    )


def test_setup_scaling_with_network_size(benchmark):
    def sweep():
        return [corner_to_corner_setup(side) for side in (2, 3, 4, 5)]

    rows = benchmark(sweep)
    print("\nSCALABILITY — corner-to-corner set-up vs mesh size (T=16)")
    print(
        f"{'elements':>9} {'tree depth':>11} {'hops':>5} {'set-up':>7}"
    )
    for elements, depth, hops, cycles in rows:
        print(f"{elements:>9} {depth:>11} {hops:>5} {cycles:>7}")
    cycles = [row[3] for row in rows]
    assert cycles == sorted(cycles)
    # Even at the 64-element envelope, set-up stays ~100 cycles —
    # the basis for "fast connection set-up" at scale.
    assert cycles[-1] < 150


def test_setup_scaling_to_16x16_with_wider_words(benchmark):
    """Beyond the paper's 7-bit envelope: 11-bit configuration words
    address up to 1024 elements, so the same set-up machinery carries
    unchanged to a 16x16 mesh (512 elements)."""

    def sweep():
        return [
            corner_to_corner_setup(side, config_word_bits=11)
            for side in (8, 12, 16)
        ]

    rows = benchmark(sweep)
    print("\nSCALABILITY — corner-to-corner set-up, 11-bit words (T=16)")
    print(
        f"{'elements':>9} {'tree depth':>11} {'hops':>5} {'set-up':>7}"
    )
    for elements, depth, hops, cycles in rows:
        print(f"{elements:>9} {depth:>11} {hops:>5} {cycles:>7}")
    assert rows[-1][0] == 512
    cycles = [row[3] for row in rows]
    assert cycles == sorted(cycles)
    # Set-up grows only with path length (+~8 cycles/hop, Table III),
    # never with element count — the fast-set-up claim survives 8x the
    # paper's addressing envelope.
    assert cycles[-1] < 500


def run_steady_flow_16x16(mode, run_cycles):
    """One corner-to-corner CBR flow on a 16x16 mesh (512 elements,
    11-bit config words) in a periodic steady state — the profile the
    compiled engine's epoch replay is built for."""
    params = daelite_parameters(slot_table_size=16, config_word_bits=11)
    mesh = build_mesh(16, 16)
    dst = ni_name(15, 15)
    net, _, handle = connected_daelite(
        mesh, params, "NI00", dst, kernel_mode=mode
    )
    # The 30-hop round trip puts the credit-window limit near
    # 8 credits / ~200 cycles; period 40 keeps queues bounded so the
    # steady state is exactly periodic.
    gen = CbrGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "c"),
        period=40,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni(dst).receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    net.run(2_000)  # settle into the steady state
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    assert sink.clean and net.stats.delivered_words("c") > 0
    return elapsed, net


def test_compiled_kernel_speedup_on_16x16_mesh(benchmark):
    """The compiled engine's stepping advantage holds at the
    512-element scale: with replay withheld it must step a steady 16x16
    flow >=3x faster than the activity kernel (conservative floor; the
    medium-mesh bench pins the headline number)."""
    run_cycles = 20_000

    def compiled_run():
        with replay_off():
            return run_steady_flow_16x16(COMPILED_MODE, run_cycles)

    compiled_wall, compiled_net = benchmark(compiled_run)
    compiled_wall = min(compiled_wall, compiled_run()[0])
    activity_wall = min(
        run_steady_flow_16x16(ACTIVITY_MODE, run_cycles)[0]
        for _ in range(2)
    )
    speedup = activity_wall / compiled_wall
    kstats = compiled_net.kernel.kernel_stats()
    print("\n16x16 MESH (512 elements, T=16) — stepped wall-clock")
    print(
        f"compiled {run_cycles / compiled_wall:>10,.0f} cycles/s   "
        f"activity {run_cycles / activity_wall:>10,.0f} cycles/s   "
        f"speedup {speedup:.1f}x"
    )
    assert kstats["compiled_cycles"] > 0
    assert kstats["replayed_epochs"] == 0
    assert speedup >= 3.0, (
        f"stepped compiled kernel only {speedup:.2f}x faster than "
        f"activity on the 16x16 steady flow — expected >=3x"
    )


def run_sparse_workload_8x8(mode, run_cycles=20_000):
    """One corner-to-corner connection on an 8x8 mesh (128 elements,
    9-bit config words) carrying bursty traffic with long idle gaps —
    the workload profile the activity-driven kernel is built for."""
    params = daelite_parameters(slot_table_size=16, config_word_bits=9)
    mesh = build_mesh(8, 8)
    dst = ni_name(7, 7)
    started = time.perf_counter()
    net, _, handle = connected_daelite(
        mesh, params, "NI00", dst, kernel_mode=mode
    )
    base = net.kernel.cycle
    src_channel = handle.forward.src_channel
    dst_channel = handle.forward.dst_channel
    for start in range(0, run_cycles, 500):
        net.kernel.at(
            base + start,
            lambda cycle: net.ni("NI00").submit_words(
                src_channel, list(range(4))
            ),
        )
        net.kernel.at(
            base + start + 120,
            lambda cycle: net.ni(dst).receive(dst_channel),
        )
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    delivered = net.stats.delivered_words(f"NI00.ch{src_channel}")
    return elapsed, delivered, net


def test_activity_kernel_speedup_on_8x8_mesh(benchmark):
    """The activity-driven kernel must beat the naive every-cycle
    kernel by >=5x wall-clock on an 8x8 mesh with sparse traffic, while
    delivering the identical word count."""
    run_cycles = 20_000

    def activity_run():
        return run_sparse_workload_8x8(ACTIVITY_MODE, run_cycles)

    fast_wall, fast_delivered, fast_net = benchmark(activity_run)
    # Best-of-two on each side damps scheduler noise on loaded runners.
    fast_wall = min(fast_wall, run_sparse_workload_8x8(
        ACTIVITY_MODE, run_cycles
    )[0])
    naive_runs = [
        run_sparse_workload_8x8(NAIVE_MODE, run_cycles) for _ in range(2)
    ]
    naive_wall = min(run[0] for run in naive_runs)
    _, naive_delivered, naive_net = naive_runs[0]
    speedup = naive_wall / fast_wall
    print("\n8x8 MESH (128 elements, T=16) — kernel wall-clock")
    print(f"{'kernel':>9} {'wall [s]':>9} {'cycles/s':>10} {'words':>6}")
    print(
        f"{'activity':>9} {fast_wall:>9.3f}"
        f" {run_cycles / fast_wall:>10,.0f} {fast_delivered:>6}"
    )
    print(
        f"{'naive':>9} {naive_wall:>9.3f}"
        f" {run_cycles / naive_wall:>10,.0f} {naive_delivered:>6}"
    )
    print(
        f"speedup: {speedup:.2f}x  (fast-forwarded "
        f"{fast_net.kernel.fast_forwarded_cycles} of {run_cycles} cycles)"
    )
    assert fast_delivered == naive_delivered > 0
    assert fast_net.total_dropped_words == naive_net.total_dropped_words
    assert fast_net.kernel.fast_forwarded_cycles > 0
    assert naive_net.kernel.fast_forwarded_cycles == 0
    assert speedup >= 5.0, (
        f"activity kernel only {speedup:.2f}x faster than naive "
        f"on 8x8 — expected >=5x"
    )


def test_addressing_envelope_enforced(benchmark):
    """A 6x6 mesh (72 elements) exceeds the 7-bit addressing limit."""

    def check():
        mesh = build_mesh(6, 6)
        params = daelite_parameters(slot_table_size=16)
        try:
            DaeliteNetwork(mesh, params)
        except Exception as error:
            return type(error).__name__
        return None

    error_name = benchmark(check)
    print(f"\n6x6 mesh rejected with: {error_name}")
    assert error_name == "TopologyError"


# -- compiled-kernel throughput vs fabric size ---------------------------------

#: (mesh side, config_word_bits) — the word width must address
#: side*side*2 elements (max_network_elements = 1 << (bits - 1)).
CURVE_SIZES = [(8, 9), (16, 11), (32, 13)]

#: The stretch point (8192 elements); published by the slow-marked
#: nightly leg, not the per-PR bench run (configuration alone takes
#: tens of seconds on small runners).
HUGE_FABRIC_SIZE = (64, 15)

#: Steady epochs each measured window must contain.  The budget is what
#: makes the curve *adaptive*: the steady period P grows linearly with
#: the mesh side (P = lcm(wheel, CBR period) and the sustainable CBR
#: period tracks the hop count), so a fixed cycle count would measure
#: mostly the un-replayable lead-in on big fabrics while a fixed epoch
#: count holds the replayed share comparable across sizes (the
#: `replay_coverage` field makes that share part of the published
#: record).
EPOCH_BUDGET = 256


def run_steady_corner_flow(side, config_word_bits, run_cycles=None):
    """One corner-to-corner CBR flow on a side x side mesh in a
    periodic steady state on the compiled kernel; returns ``(elapsed,
    net, run_cycles, window)`` where ``window`` holds the measured
    window's replay telemetry deltas.  ``run_cycles=None`` applies the
    adaptive budget of ``EPOCH_BUDGET`` steady epochs.
    """
    params = daelite_parameters(
        slot_table_size=16, config_word_bits=config_word_bits
    )
    mesh = build_mesh(side, side)
    dst = ni_name(side - 1, side - 1)
    net, _, handle = connected_daelite(
        mesh, params, "NI00", dst, kernel_mode=COMPILED_MODE
    )
    # Stay under the credit-window limit of the long path: ~8 credits
    # per round trip of ~7 cycles/hop, so the sustainable period grows
    # linearly with the hop count.
    hops = 2 * (side - 1)
    period = max(40, 2 * hops)
    wheel = 16 * params.words_per_slot
    steady_period = math.lcm(wheel, period)
    if run_cycles is None:
        run_cycles = max(20_000, EPOCH_BUDGET * steady_period)
    gen = CbrGenerator(
        "gen",
        inject=net.ni("NI00").injector(handle.forward.src_channel, "c"),
        period=period,
    )
    sink = CheckingSink(
        "sink",
        receive=net.ni(dst).receiver(handle.forward.dst_channel),
        words_per_cycle=2,
        stats=net.stats,
    )
    net.kernel.add(gen)
    net.kernel.add(sink)
    # Settle into the steady state: at least two full steady periods,
    # so even fabrics whose period exceeds a fixed 2000-cycle lead-in
    # (64x64: P = 2016) enter the measured window settled.
    net.run(max(2_000, 2 * steady_period))
    settled = net.kernel.kernel_stats()
    started = time.perf_counter()
    net.run(run_cycles)
    elapsed = time.perf_counter() - started
    assert sink.clean and net.stats.delivered_words("c") > 0
    kstats = net.kernel.kernel_stats()
    window = {
        key: kstats[key] - settled[key]
        for key in ("replayed_cycles", "replayed_epochs")
    }
    window["regimes_detected"] = kstats["regimes_detected"]
    return elapsed, net, run_cycles, window


def _measure_curve_row(side, bits):
    """Best-of-2 throughput row for one fabric size: stepped (replay
    withheld) and replayed, with replay provenance (`replay_coverage`,
    `regimes_detected`) from the replayed runs' kernel telemetry."""
    with replay_off():
        stepped = [run_steady_corner_flow(side, bits) for _ in range(2)]
    replayed = [run_steady_corner_flow(side, bits) for _ in range(2)]
    _, _, run_cycles, window = replayed[0]
    return {
        "mesh": f"{side}x{side}",
        "elements": side * side * 2,
        "config_word_bits": bits,
        "measured_cycles": run_cycles,
        "stepped_cycles_per_s": round(
            run_cycles / min(run[0] for run in stepped)
        ),
        "stepped_replayed_epochs": max(
            run[3]["replayed_epochs"] for run in stepped
        ),
        "replayed_cycles_per_s": round(
            run_cycles / min(run[0] for run in replayed)
        ),
        "replayed_epochs": window["replayed_epochs"],
        "replay_coverage": round(
            window["replayed_cycles"] / run_cycles, 4
        ),
        "regimes_detected": window["regimes_detected"],
    }


def _print_curve(rows):
    print("\nCOMPILED KERNEL — steady-flow throughput vs fabric size")
    print(
        f"{'mesh':>7} {'elements':>9} {'stepped/s':>12} "
        f"{'replayed/s':>12} {'epochs':>7} {'coverage':>9}"
    )
    for row in rows:
        print(
            f"{row['mesh']:>7} {row['elements']:>9} "
            f"{row['stepped_cycles_per_s']:>12,} "
            f"{row['replayed_cycles_per_s']:>12,} "
            f"{row['replayed_epochs']:>7} {row['replay_coverage']:>9.3f}"
        )


def _check_row(row):
    assert row["stepped_replayed_epochs"] == 0, (
        f"replay engaged with replay withheld on {row['mesh']}"
    )
    assert row["replayed_epochs"] > 0, f"no replay on {row['mesh']}"
    assert row["replay_coverage"] > 0, f"no coverage on {row['mesh']}"


def _merge_curve_rows(new_rows):
    """Merge rows into the compiled_scalability curve of
    ``BENCH_kernel.json`` (created by bench_kernel_compiled, which
    sorts before this file); tolerate a standalone run where the
    record — or the curve — does not exist yet.  Rows merge by mesh
    size so the slow 64x64 leg extends a curve published per-PR."""
    path = BENCH_RESULT_DIR / "BENCH_kernel.json"
    record = {"benchmark": "kernel"}
    if path.exists():
        record = json.loads(path.read_text())
    curve = {
        row["mesh"]: row
        for row in record.get("compiled_scalability", {}).get("curve", [])
    }
    for row in new_rows:
        curve[row["mesh"]] = row
    record["compiled_scalability"] = {
        "workload": "corner-to-corner CBR flow, T=16",
        "kernel_mode": COMPILED_MODE,
        "aggregation": "best-of-2",
        "curve": sorted(curve.values(), key=lambda r: r["elements"]),
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_compiled_throughput_curve_to_32x32(benchmark):
    """The compiled kernel completes a steady 32x32 (2048-element)
    fabric, stepped and replayed, and both cycles/s-vs-size curves land
    in ``BENCH_kernel.json``.

    The curve also pins the scaling claim itself: stepped throughput on
    32x32 must stay within ~20x of the 8x8 point (the engine's per-cycle
    work follows the words in flight and their paths, not the register
    count), and every replayed row must actually replay.
    """

    def sweep():
        return [_measure_curve_row(side, bits) for side, bits in CURVE_SIZES]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _print_curve(rows)
    by_mesh = {row["mesh"]: row for row in rows}
    for row in rows:
        _check_row(row)
    assert (
        by_mesh["8x8"]["stepped_cycles_per_s"]
        < 20 * by_mesh["32x32"]["stepped_cycles_per_s"]
    ), "stepped throughput collapsed between 8x8 and 32x32"
    _merge_curve_rows(rows)


@pytest.mark.slow
def test_compiled_throughput_64x64(benchmark):
    """Nightly stretch point: the 64x64 fabric (8192 elements) joins
    the published curve.  Configuration dominates (tens of seconds);
    the replayed window replays almost entirely, so the point
    demonstrates that throughput is set by the steady-state compiler,
    not the register count."""
    side, bits = HUGE_FABRIC_SIZE

    def sweep():
        return _measure_curve_row(side, bits)

    row = benchmark.pedantic(sweep, rounds=1, iterations=1)
    _print_curve([row])
    _check_row(row)
    assert row["replay_coverage"] > 0.5, (
        "the 64x64 window should be replay-dominated, measured "
        f"coverage {row['replay_coverage']}"
    )
    _merge_curve_rows([row])
