"""Op-table verifier: re-proving the lowered data plane (OP rules).

The compiled kernel's occupancy walk *refuses* schedules it cannot
prove drop- and collision-free; this module is the independent referee.
It consumes :class:`~repro.sim.compiled.LoweredArtifacts` — the stable
introspection form of the per-phase op tables, injection seeds, and
claimed occupancy — and re-derives every invariant the engines rely on,
from scratch, with its own walk:

``OP001`` double drive — two reachable writers (ops or injection
seeds) land on one ``(register, phase)``; a phit collision the
hardware would arbitrate nondeterministically.
``OP002`` unconsumed/duplicated column — a reachable ``(register,
phase)`` has no consuming op (the value goes stale and leaks into a
later phase — the read-after-clear discipline breaks) or more than one
(the word is duplicated).
``OP003`` occupancy mismatch — the artifact's claimed occupancy
disagrees with what the seeds actually drive: an op gathers a column
nothing wrote earlier in phase order, or a driven column is missing
from the claim (the engine would refuse a phit parked there as off the
compiled schedule).
``OP004`` refusal incompleteness — a kernel component neither lowers
to a declared classification nor maps to a typed
:class:`~repro.sim.kernel.CompileRefusal` with a kind from the
declared taxonomy.

These rules run against live compile products (like the SC schedule
rules run against live networks), so they appear in ``--list-rules``
but are invoked through :func:`verify_op_tables` /
:func:`verify_refusal` / :func:`verify_components` — chiefly by
``python -m repro.staticcheck --prove``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Tuple

from .findings import Finding, Severity, sort_findings
from .registry import Rule, register

#: Pseudo-path used for artifact findings (there is no source file).
ARTIFACTS_FILE = "<lowered-artifacts>"

OP_RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="OP001",
        title="double-drive",
        description=(
            "two reachable writers (ops or injection seeds) drive one "
            "(register, phase) — phits would collide"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP002",
        title="unconsumed-column",
        description=(
            "a reachable (register, phase) has no consuming op (the "
            "stale value leaks into later phases) or more than one "
            "(the word is duplicated)"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP003",
        title="occupancy-mismatch",
        description=(
            "the claimed occupancy disagrees with what the injection "
            "seeds drive: an undriven gather source, or a driven "
            "column missing from the claim"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
    Rule(
        rule_id="OP004",
        title="refusal-incompleteness",
        description=(
            "a kernel component neither lowers nor maps to a typed "
            "CompileRefusal with a declared kind"
        ),
        severity=Severity.ERROR,
        kind="prove",
    ),
)

for _op in OP_RULES:
    register(_op)


def _reg_name(artifacts: Any, rid: int) -> str:
    names = artifacts.register_names
    if 0 <= rid < len(names):
        return repr(names[rid])
    return f"#{rid} (out of range)"


def verify_op_tables(
    artifacts: Any, origin: str = ARTIFACTS_FILE
) -> List[Finding]:
    """Prove OP001–OP003 over one engine's lowered artifacts.

    Re-runs the occupancy walk from the injection seeds over the
    claimed op tables, independently of the compiler that produced
    them, and reports every invariant violation as a finding (the
    walk does not stop at the first one, unlike the compiler's
    refusal).  An empty return is a proof: every reachable
    ``(register, phase)`` has exactly one writer and exactly one
    consumer, and the claimed occupancy is exactly the reachable set.
    """
    findings: List[Finding] = []
    wheel = artifacts.wheel
    n_regs = len(artifacts.register_names)

    def bad(rule: str, message: str, hint: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                file=origin,
                line=0,
                message=message,
                hint=hint,
            )
        )

    # Index the op tables: consumers per (phase, src).  Artifacts are
    # flat tuples, so a planted table *can* hold two consumers of one
    # column — the engines' dict encoding cannot, but a third substrate
    # might.
    consumers: List[Dict[int, List[Any]]] = [{} for _ in range(wheel)]
    for phase, ops in enumerate(artifacts.phase_ops):
        for op in ops:
            if not (0 <= op.src < n_regs):
                bad(
                    "OP003",
                    f"op {op.kind!r} in phase {phase} reads column "
                    f"{op.src}, outside the {n_regs} registers",
                    "fix the lowering's register interning",
                )
                continue
            consumers[phase % wheel].setdefault(op.src, []).append(op)

    # Walk reachability from the seeds, checking single-writer and
    # single-consumer at every step.
    derived = [0] * n_regs
    writer: Dict[Tuple[int, int], str] = {}
    work: deque = deque()

    def drive(rid: int, phase: int, who: str) -> None:
        if not (0 <= rid < n_regs):
            bad(
                "OP003",
                f"{who} drives column {rid}, outside the "
                f"{n_regs} registers",
                "fix the lowering's register interning",
            )
            return
        bit = 1 << phase
        key = (rid, phase)
        if derived[rid] & bit:
            bad(
                "OP001",
                f"{_reg_name(artifacts, rid)} is driven twice in "
                f"wheel phase {phase}: by {writer[key]} and by {who}",
                "make the schedule slot-disjoint so every register "
                "has one writer per phase",
            )
            return
        derived[rid] |= bit
        writer[key] = who
        work.append(key)

    for rid, phase in artifacts.seeds:
        drive(rid, phase, "an injection seed")
    while work:
        rid, phase = work.popleft()
        ops = consumers[phase].get(rid, [])
        if not ops:
            bad(
                "OP002",
                f"{_reg_name(artifacts, rid)} is occupied in wheel "
                f"phase {phase} but no op consumes it — the stale "
                f"value survives into later phases",
                "add the consuming op or stop driving the column",
            )
            continue
        if len(ops) > 1:
            kinds = ", ".join(op.kind for op in ops)
            bad(
                "OP002",
                f"{_reg_name(artifacts, rid)} has {len(ops)} "
                f"consumers ({kinds}) in wheel phase {phase} — the "
                f"word would be duplicated",
                "keep exactly one consuming op per occupied column",
            )
            # Continue the walk through the first consumer only, so
            # downstream diagnostics stay deterministic.
        op = ops[0]
        if op.kind == "arrive":
            continue
        nxt = (phase + 1) % wheel
        for dst in op.dsts:
            drive(dst, nxt, f"a {op.kind!r} op from {op.src}")

    # Claimed occupancy must equal the derived reachable set, in both
    # directions (OP003).
    for rid in range(min(n_regs, len(artifacts.occupancy))):
        claimed = artifacts.occupancy[rid]
        diff = claimed ^ derived[rid]
        if not diff:
            continue
        for phase in range(wheel):
            if not (diff >> phase) & 1:
                continue
            if (claimed >> phase) & 1:
                bad(
                    "OP003",
                    f"{_reg_name(artifacts, rid)} claims occupancy in "
                    f"wheel phase {phase} but nothing drives it — "
                    f"neither an earlier-phase op nor an injection "
                    f"seed",
                    "drop the claim or add the missing driver",
                )
            else:
                bad(
                    "OP003",
                    f"{_reg_name(artifacts, rid)} is driven in wheel "
                    f"phase {phase} but the claimed occupancy misses "
                    f"it — a lowering would prune its consumer and "
                    f"drop the word",
                    "recompute the occupancy masks from the seeds",
                )
    return sort_findings(findings)


def verify_refusal(refusal: Any, origin: str = ARTIFACTS_FILE) -> List[Finding]:
    """Prove OP004 over one :class:`CompileRefusal`.

    A typed refusal with a declared kind is a *clean* outcome (that is
    the completeness contract: unloweable networks refuse, loudly and
    typed); only an undeclared kind is a finding.
    """
    from ..sim.kernel import CompileRefusal

    declared = {
        value
        for name, value in vars(CompileRefusal).items()
        if name.isupper() and isinstance(value, str)
    }
    if refusal.kind in declared:
        return []
    return [
        Finding(
            rule="OP004",
            severity=Severity.ERROR,
            file=origin,
            line=0,
            message=(
                f"refusal kind {refusal.kind!r} ({refusal.detail}) is "
                f"not in the declared CompileRefusal taxonomy"
            ),
            hint="declare the kind on CompileRefusal or reuse one",
        )
    ]


def verify_components(
    network: Any, origin: str = ARTIFACTS_FILE
) -> List[Finding]:
    """Prove OP004 over a network's kernel roster.

    Every component must classify — through the public
    :func:`~repro.sim.compiled.classify_component` contract — as
    native/generator/sink or as a typed refusal with a declared kind.
    A classification that *raises* is the exact failure mode this rule
    exists to catch: an unlowerable component escaping the typed
    degradation chain.
    """
    from ..sim.compiled import classify_component
    from ..sim.kernel import CompileRefusal

    findings: List[Finding] = []
    for component in network.kernel.components:
        try:
            classified = classify_component(network, component)
        except Exception as exc:  # the contract is: never raise
            findings.append(
                Finding(
                    rule="OP004",
                    severity=Severity.ERROR,
                    file=origin,
                    line=0,
                    message=(
                        f"classifying component "
                        f"{getattr(component, 'name', component)!r} "
                        f"raised {type(exc).__name__}: {exc} — it "
                        f"must classify or refuse, typed"
                    ),
                    hint="return a CompileRefusal instead of raising",
                )
            )
            continue
        if isinstance(classified, CompileRefusal):
            findings.extend(verify_refusal(classified, origin))
        elif classified[0] not in ("native", "generator", "sink"):
            findings.append(
                Finding(
                    rule="OP004",
                    severity=Severity.ERROR,
                    file=origin,
                    line=0,
                    message=(
                        f"component "
                        f"{getattr(component, 'name', component)!r} "
                        f"classified as undeclared kind "
                        f"{classified[0]!r}"
                    ),
                    hint="keep the classification vocabulary closed",
                )
            )
    return sort_findings(findings)
