"""Prover wall-time bench: ``staticcheck --prove`` must stay cheap.

The op-table prover (OP rules) runs in CI on every push, so its cost
curve matters: this bench times one full ``prove_network`` pass —
build + lower + verify — per fabric size (8x8 through 32x32), and
records the verify-only share separately so a regression in the prover
itself is distinguishable from one in network construction or
lowering.

The 32x32 point is the headline number; results land in
``BENCH_staticcheck.json``.
"""

from __future__ import annotations

import time

from _helpers import write_bench_json

from repro.sim.compiled import lower_network
from repro.sim.kernel import CompileRefusal
from repro.staticcheck import (
    build_daelite_case,
    verify_components,
    verify_op_tables,
)

#: (mesh side, config_word_bits) — mirrors the compiled-kernel
#: scalability curve; the word width must address side*side*2 elements.
PROVE_CURVE_SIZES = [(8, 9), (16, 11), (32, 13)]

#: The prover must stay CI-friendly at the largest shipped fabric.
MAX_PROVE_SECONDS_32X32 = 60.0


def timed_prove(side, config_word_bits):
    """One full prove pass, instrumented per stage.

    Returns a row with build/lower/verify wall-times, the register and
    finding counts, and the proof verdict (which must be clean).
    """
    started = time.perf_counter()
    network = build_daelite_case(side, config_word_bits=config_word_bits)
    built = time.perf_counter()
    engine = lower_network(network)
    assert not isinstance(engine, CompileRefusal), engine
    lowered = time.perf_counter()
    artifacts = engine.lowered_artifacts()
    findings = list(verify_op_tables(artifacts))
    findings.extend(verify_components(network))
    verified = time.perf_counter()
    assert findings == [], [f.render() for f in findings]
    return {
        "mesh": f"{side}x{side}",
        "registers": len(artifacts.register_names),
        "wheel": artifacts.wheel,
        "build_seconds": built - started,
        "lower_seconds": lowered - built,
        "verify_seconds": verified - lowered,
        "total_seconds": verified - started,
        "findings": 0,
    }


def test_prove_wall_time_curve(benchmark):
    """Time the prove pass across the size matrix and pin the 32x32
    headline point under ``MAX_PROVE_SECONDS_32X32``."""

    def sweep():
        return [timed_prove(side, bits) for side, bits in PROVE_CURVE_SIZES]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    headline = next(row for row in rows if row["mesh"] == "32x32")
    assert headline["total_seconds"] < MAX_PROVE_SECONDS_32X32
    write_bench_json(
        "staticcheck",
        {
            "prove_curve": rows,
            "headline_32x32_seconds": headline["total_seconds"],
            "max_allowed_seconds": MAX_PROVE_SECONDS_32X32,
        },
    )
    for row in rows:
        print(
            f"\nprove {row['mesh']}: "
            f"{row['total_seconds']:.3f}s "
            f"(verify {row['verify_seconds']:.3f}s, "
            f"{row['registers']} registers)"
        )
