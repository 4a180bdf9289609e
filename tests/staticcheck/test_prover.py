"""The data-plane prover: planted corpus exactness and live proofs.

Three obligations:

* **exactness on the planted corpus** — every hand-crafted artifact in
  ``fixtures/planted_artifacts.py`` yields *exactly* its expected rule
  codes (clean builders included: no false positives);
* **soundness on live engines** — the shipped daelite lowering and the
  aelite typed refusal prove clean through the public introspection
  API, and a mutation planted into real artifacts is flagged;
* **the CLI leg** — ``--prove`` drives the matrix and exits 0 on the
  shipped tree, 2 on malformed size filters.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.compiled import lower_network
from repro.sim.kernel import COMPILED_MODE, CompileRefusal
from repro.staticcheck import (
    build_aelite_case,
    build_daelite_case,
    main,
    prove_network,
    verify_op_tables,
    verify_refusal,
)

from .fixtures.planted_artifacts import OP_CORPUS, REFUSAL_CORPUS


def codes(findings):
    return frozenset(f.rule for f in findings)


# -- planted corpus: exact rule codes, no more, no less ------------------------


@pytest.mark.parametrize(
    "name,builder", OP_CORPUS, ids=[name for name, _ in OP_CORPUS]
)
def test_op_corpus_exact_codes(name, builder):
    artifact, expected = builder()
    findings = verify_op_tables(artifact)
    assert codes(findings) == expected, [f.render() for f in findings]
    if expected:
        assert findings, name


@pytest.mark.parametrize(
    "name,builder",
    REFUSAL_CORPUS,
    ids=[name for name, _ in REFUSAL_CORPUS],
)
def test_refusal_corpus_exact_codes(name, builder):
    refusal, expected = builder()
    assert codes(verify_refusal(refusal)) == expected


def test_findings_carry_register_names():
    """Diagnostics name registers, not bare column ids."""
    artifact, _ = dict(OP_CORPUS)["double_drive"]()
    (finding,) = verify_op_tables(artifact)
    assert "'r2'" in finding.message


# -- live engines: the shipped lowering proves clean ---------------------------


def test_prove_small_daelite_clean():
    network = build_daelite_case(3, slot_table_size=8)
    assert prove_network(network) == []


def test_prove_aelite_refusal_clean():
    assert prove_network(build_aelite_case(3)) == []


def test_lower_network_without_provider_refuses_typed():
    network = build_aelite_case(3)
    network.kernel.compile_provider = None
    outcome = lower_network(network)
    assert isinstance(outcome, CompileRefusal)
    assert outcome.kind == CompileRefusal.NO_PROVIDER
    assert verify_refusal(outcome) == []


def test_mutated_live_artifacts_are_flagged():
    """Flipping one real occupancy bit breaks the proof (OP003)."""
    network = build_daelite_case(3, slot_table_size=8)
    engine = lower_network(network)
    assert not isinstance(engine, CompileRefusal)
    artifacts = engine.lowered_artifacts()
    assert verify_op_tables(artifacts) == []
    occupancy = list(artifacts.occupancy)
    victim = next(
        rid for rid, mask in enumerate(occupancy) if mask
    )
    occupancy[victim] ^= 1 << (occupancy[victim].bit_length() - 1)
    mutated = dataclasses.replace(
        artifacts, occupancy=tuple(occupancy)
    )
    assert "OP003" in codes(verify_op_tables(mutated))


def test_compiled_network_publishes_artifacts():
    """The introspection API is reachable without private attributes:
    lower -> lowered_artifacts round-trips, one op table per phase."""
    network = build_daelite_case(3, slot_table_size=8)
    assert network.kernel.mode == COMPILED_MODE
    engine = lower_network(network)
    assert not isinstance(engine, CompileRefusal)
    lowered = engine.lowered_artifacts()
    assert lowered.wheel == len(lowered.phase_ops)
    assert len(lowered.register_names) == len(lowered.occupancy)
    assert lowered.seeds
    assert any(lowered.phase_ops)


# -- CLI leg -------------------------------------------------------------------


def test_cli_prove_smallest_size_exits_zero(capsys):
    assert main(["--prove", "--prove-size", "3"]) == 0
    err = capsys.readouterr().err
    assert "daelite-3x3: proved clean" in err
    assert "aelite-3x3: proved clean" in err
    assert "8x8" not in err


def test_cli_prove_accepts_nxn_filter(capsys):
    assert main(["--prove", "--prove-size", "3x3"]) == 0
    assert "daelite-3x3: proved clean" in capsys.readouterr().err


def test_cli_prove_rejects_malformed_size(capsys):
    assert main(["--prove", "--prove-size", "huge"]) == 2
    assert "invalid --prove-size" in capsys.readouterr().err
