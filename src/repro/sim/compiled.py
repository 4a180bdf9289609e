"""Flat-schedule compiled execution of a configured daelite data plane.

The contention-free TDM schedule makes a *configured* data plane fully
deterministic: which register feeds which register in a given cycle is a
pure function of the cycle's wheel phase (``cycle mod T*words_per_slot``).
This module flattens that function, once per (re)configuration, into
per-phase integer-indexed move maps and then advances the network in one
tight loop over a sparse dict of in-flight phits — no component dispatch,
no ``Register`` objects, no wake-set bookkeeping on the fast path.

Two layers:

* **Compiled stepping** — :meth:`CompiledEngine.run_to` imports the data
  registers into a ``{register-index: Phit}`` dict, applies the move map
  of each cycle's phase (link traversal, crossbar forwarding with
  multicast fan-out, NI injection pipeline, arrivals with parity check,
  credit return), fires traffic generators at their self-scheduled
  cycles and drains sinks, then materializes every register, counter and
  statistic back — bit-exactly — before returning.
* **Epoch replay** — once every generator is in its steady rhythm the
  whole network state repeats with period ``P = lcm(wheel, generator and
  sink periods)``.  The engine probes state *signatures* at absolute
  multiples of ``P``; when two consecutive signatures are equal (in a
  form made shift-invariant by expressing sequence numbers and payloads
  relative to the per-connection counters), the next ``K`` epochs are
  applied arithmetically: the one recorded epoch's injection / ejection /
  sink events are re-recorded shifted by ``k*P`` cycles and ``k*D``
  sequence numbers, cumulative counters are scaled by ``K``, and the
  in-flight words are rewritten.  Re-entry into stepping is bit-exact.

Soundness of the replay (DESIGN.md §10 gives the full argument): the
cycle transition function commutes with the per-connection shift —
parity is stamped at submit time and recomputed for shifted payloads, no
data-path control flow branches on payload or sequence values, and the
credit dynamics are payload-independent.  Signature equality therefore
implies the next epoch repeats the recorded one shifted, by induction
for all ``K``; ``K`` is clamped so no finite generator runs past its
word budget, and any event the signature cannot extrapolate (an armed
fault hook, config traffic, a not-yet-exhausted trace generator, a
fault or drop during the probe epoch) disables or defers replay.

Whenever the network is *not* compilable — strict-registers, a tracer,
config traffic in flight, armed fault hooks, an unknown component, a
phit parked off the compiled schedule — the provider or the engine
returns a typed :class:`~repro.sim.kernel.CompileRefusal` and the kernel
transparently falls back to the activity mode for those cycles.
"""

from __future__ import annotations

import operator
import os
from collections import OrderedDict, deque
from dataclasses import dataclass
from math import lcm
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import SimulationError
from .flit import Phit, Word
from .kernel import CompileRefusal, Kernel, Register
from .stats import FAULT_DETECTED

# Move-map operation tags (op[0]).
_OP_MOVE = 0  # NI injection stage -> NI output register
_OP_SEND = 1  # router crossbar register -> outgoing data link
_OP_INJECT = 2  # NI output register -> NI-router link (records injection)
_OP_FORWARD = 3  # router input link -> crossbar registers (multicast fans)
_OP_ARRIVE = 4  # NI input link -> destination channel queue

# Replay event tags.
_EV_INJECT = 0
_EV_EJECT = 1
_EV_SINK = 2

_PAYLOAD_MASK = 0xFFFF_FFFF
_NEVER = 1 << 62

#: Steady-state periods above this are not worth probing: the two probe
#: epochs would dominate any realistic run length.
MAX_REPLAY_PERIOD = 1 << 16

#: Environment variable: capacity (entries) of the per-network lowering
#: cache that memoizes the schedule-dependent compile products on the
#: structural schedule image, so the recompile forced by every use-case
#: switch is a dict lookup when a regime returns.  ``0`` disables the
#: cache; malformed values refuse compilation with a typed
#: ``unsupported_params``.
LOWER_CACHE_ENV = "REPRO_LOWER_CACHE"
#: Default lowering-cache capacity (covers realistic use-case rosters;
#: one entry per distinct programmed schedule).
LOWER_CACHE_DEFAULT = 16

#: Stable string names of the move-map op tags.  The introspection API
#: (:meth:`CompiledEngine.lowered_artifacts`) speaks these so external
#: verifiers never depend on the private integer encoding.
OP_NAMES = {
    _OP_MOVE: "move",
    _OP_SEND: "send",
    _OP_INJECT: "inject",
    _OP_FORWARD: "forward",
    _OP_ARRIVE: "arrive",
}


@dataclass(frozen=True)
class LoweredOp:
    """One phase-table op in the stable introspection form.

    ``src`` is the register column the op consumes this phase; ``dsts``
    are the columns it drives entering the next wheel phase (empty for
    ``"arrive"``, which terminates the schedule walk); ``site`` names
    the link/router/NI the op belongs to, for diagnostics only.
    """

    kind: str
    src: int
    dsts: Tuple[int, ...]
    site: str


@dataclass(frozen=True)
class LoweredArtifacts:
    """The compile products that staticcheck's op-table prover consumes.

    This is the provability contract for data-plane substrates (see
    DESIGN.md §13): a substrate is checkable by the OP rules iff it can
    render its lowering as per-phase op tuples, the injection ``seeds``
    — ``(register, phase)`` pairs driven from outside the table walk —
    and the claimed ``occupancy`` bitmasks (bit ``p`` set iff the
    column may hold a phit entering wheel phase ``p``).
    """

    wheel: int
    register_names: Tuple[str, ...]
    phase_ops: Tuple[Tuple[LoweredOp, ...], ...]
    seeds: Tuple[Tuple[int, int], ...]
    occupancy: Tuple[int, ...]


def install_compile_provider(network: Any) -> None:
    """Install a compile provider for a :class:`DaeliteNetwork` kernel.

    The provider re-checks cheap eligibility on every acquisition and
    reuses the previous engine as long as the schedule token (slot-table
    versions + applied config actions) is unchanged.
    """

    def provider(
        kernel: Kernel, previous: Optional["CompiledEngine"]
    ) -> Any:
        refusal = _check_eligibility(network)
        if refusal is not None:
            return refusal
        token = _schedule_token(network)
        if previous is not None and previous.token == token:
            return previous
        return compile_network(network, token)

    network.kernel.compile_provider = provider


def install_refusing_provider(network: Any, detail: str) -> None:
    """Install a provider that always refuses with a typed reason.

    Used by network families whose data plane has no compiled engine yet
    (aelite's source-routed plane): ``compiled`` mode then runs as a
    transparent, telemetry-visible fallback to the activity kernel.
    """

    def provider(kernel: Kernel, previous: Any) -> CompileRefusal:
        return CompileRefusal(CompileRefusal.UNSUPPORTED_COMPONENT, detail)

    network.kernel.compile_provider = provider


def lower_network(network: Any) -> Any:
    """Compile exactly what the kernel's provider would run, offline.

    This is the entry point ``python -m repro.staticcheck --prove``
    uses: the network's installed provider is consulted (so every
    eligibility gate applies) and the result — an engine exposing
    :meth:`CompiledEngine.lowered_artifacts`, or a typed
    :class:`~repro.sim.kernel.CompileRefusal` — is returned without
    being installed on the kernel.
    """
    provider = network.kernel.compile_provider
    if provider is None:
        return CompileRefusal(
            CompileRefusal.NO_PROVIDER,
            "the network installed no compile provider",
        )
    return provider(network.kernel, None)


def _schedule_token(network: Any) -> int:
    """Cheap validity token covering every compiled-in decision.

    Slot-table versions cover (re)programming of the forwarding and
    injection/arrival schedules; ``config_applied`` counters cover
    channel-register writes arriving through the config tree.
    """
    token = 0
    for router in network.routers.values():
        token += router.slot_table.version + router.config_applied
    for ni in network.nis.values():
        token += (
            ni.injection_table.version
            + ni.arrival_table.version
            + ni.config_applied
        )
    return token


def _schedule_image(network: Any) -> tuple:
    """Structural image of the programmed schedule (content, not version).

    Unlike :func:`_schedule_token` — which bumps on every applied config
    action even when the resulting tables are identical — this captures
    the schedule *content* every schedule-dependent compile product is a
    pure function of: the slot wheel geometry and, per router/NI, the
    programmed forward/injection/arrival tables plus the static link
    attachment.  Two configurations with equal images lower to the same
    move maps, occupancy and refusals, which is what makes the lowering
    cache sound across use-case switches that revisit a schedule.
    """
    params = network.params
    table = params.slot_table_size
    routers = tuple(
        (
            name,
            tuple(
                tuple(
                    (output, input_port)
                    for output, input_port in router.slot_table.forwards(
                        slot
                    )
                )
                for slot in range(table)
            ),
        )
        for name, router in sorted(network.routers.items())
    )
    nis = tuple(
        (
            name,
            ni.out_link is not None,
            ni.in_link is not None,
            tuple(
                ni.injection_table.channel(slot)
                for slot in range(table)
            ),
            tuple(
                ni.arrival_table.channel(slot) for slot in range(table)
            ),
        )
        for name, ni in sorted(network.nis.items())
    )
    return (table, params.words_per_slot, routers, nis)


def _lower_cache_capacity(network: Any) -> Any:
    """Resolve the lowering-cache capacity knob (attribute, then env).

    Malformed values never escape as exceptions — every parse failure
    becomes a typed ``unsupported_params`` refusal, so the kernel falls
    back to the activity mode and ``kernel_stats()`` records the reason.
    """
    try:
        value = getattr(network, "lower_cache", None)
        if value is None:
            raw = os.environ.get(LOWER_CACHE_ENV, "").strip()
            if not raw:
                return LOWER_CACHE_DEFAULT
            return max(0, int(raw))
        return max(0, operator.index(value))
    except (TypeError, ValueError, OverflowError) as exc:
        return CompileRefusal(
            CompileRefusal.UNSUPPORTED_PARAMS,
            f"invalid lowering-cache setting: {exc}",
        )


def _check_eligibility(network: Any) -> Optional[CompileRefusal]:
    """Cheap per-acquisition checks that need no recompilation."""
    kernel = network.kernel
    if kernel.strict_registers:
        return CompileRefusal(
            CompileRefusal.STRICT_REGISTERS,
            "strict register-contract checking requires stepped "
            "evaluation",
        )
    if network.tracer.enabled:
        return CompileRefusal(
            CompileRefusal.TRACER_ACTIVE,
            "per-hop trace events are only emitted by stepped execution",
        )
    if network.config_module.busy:
        return CompileRefusal(
            CompileRefusal.CONFIG_ACTIVE,
            "configuration requests are in flight on the config tree",
        )
    for link in network.links.values():
        if link.fault_hook is not None:
            return CompileRefusal(
                CompileRefusal.FAULT_HOOKS_ARMED,
                f"fault hook armed on data link {link.name!r}",
            )
    for narrow in network.config_links.values():
        if narrow.fault_hook is not None:
            return CompileRefusal(
                CompileRefusal.FAULT_HOOKS_ARMED,
                f"fault hook armed on config link {narrow.name!r}",
            )
    for router in network.routers.values():
        if router.tracer.enabled:
            return CompileRefusal(
                CompileRefusal.TRACER_ACTIVE,
                f"tracer attached to router {router.name!r}",
            )
        if router.config.pending:
            return CompileRefusal(
                CompileRefusal.CONFIG_ACTIVE,
                f"config decoder of {router.name!r} has pending work",
            )
        if router.config.fault_monitor is not None:
            return CompileRefusal(
                CompileRefusal.FAULT_HOOKS_ARMED,
                f"fault monitor armed on {router.name!r}",
            )
        if router.stats is not network.stats:
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"router {router.name!r} reports to a foreign collector",
            )
    for ni in network.nis.values():
        if ni.tracer.enabled:
            return CompileRefusal(
                CompileRefusal.TRACER_ACTIVE,
                f"tracer attached to NI {ni.name!r}",
            )
        if ni.config.pending:
            return CompileRefusal(
                CompileRefusal.CONFIG_ACTIVE,
                f"config decoder of {ni.name!r} has pending work",
            )
        if ni.config.fault_monitor is not None:
            return CompileRefusal(
                CompileRefusal.FAULT_HOOKS_ARMED,
                f"fault monitor armed on {ni.name!r}",
            )
        if ni.stats is not network.stats:
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"NI {ni.name!r} reports to a foreign collector",
            )
    classified = _classify_components(network)
    if isinstance(classified, CompileRefusal):
        return classified
    return None


def _native_ids(network: Any) -> Set[int]:
    """Identity set of the network's own fabric components."""
    native: Set[int] = set()
    for router in network.routers.values():
        native.add(id(router))
    for ni in network.nis.values():
        native.add(id(ni))
    native.add(id(network.config_module))
    return native


def classify_component(
    network: Any, component: Any, _native: Optional[Set[int]] = None
) -> Any:
    """Classify one kernel component for the compiled lowering.

    Returns ``(kind, payload)`` with ``kind`` in ``{"native",
    "generator", "sink"}`` — payload is ``None``, the generator itself,
    or the sink metadata tuple — or a typed :class:`CompileRefusal`
    naming why the component has no compiled model.  This total map is
    the refusal-completeness contract staticcheck's OP004 rule audits:
    every component on a kernel must land in exactly one bucket, and
    anything unloweable must refuse with a declared kind rather than
    raise or silently degrade.
    """
    from ..core.config_network import ConfigModule
    from ..core.ni import ChannelInjector, ChannelReceiver
    from ..traffic.generators import (
        BurstGenerator,
        CbrGenerator,
        TraceGenerator,
    )
    from ..traffic.sinks import CheckingSink, DrainSink, ThrottledSink

    native = _native if _native is not None else _native_ids(network)
    if id(component) in native:
        return "native", None
    kind = type(component)
    if kind in (CbrGenerator, BurstGenerator, TraceGenerator):
        inject = component.inject
        if not isinstance(inject, ChannelInjector):
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"generator {component.name!r} does not inject "
                f"through a ChannelInjector",
            )
        return "generator", component
    if kind in (DrainSink, ThrottledSink, CheckingSink):
        receive = component.receive
        if not isinstance(receive, ChannelReceiver):
            return CompileRefusal(
                CompileRefusal.UNSUPPORTED_COMPONENT,
                f"sink {component.name!r} does not drain through "
                f"a ChannelReceiver",
            )
        period = component.period if kind is ThrottledSink else 0
        return "sink", (
            component,
            receive.ni,
            receive.channel,
            period,
            kind is CheckingSink,
        )
    if isinstance(component, ConfigModule):
        # A second config module would belong to another network.
        return CompileRefusal(
            CompileRefusal.UNSUPPORTED_COMPONENT,
            f"foreign config module {component.name!r}",
        )
    return CompileRefusal(
        CompileRefusal.UNSUPPORTED_COMPONENT,
        f"component {component.name!r} "
        f"({type(component).__name__}) has no compiled model",
    )


def _classify_components(network: Any) -> Any:
    """Split the kernel roster into (generators, sink metadata).

    Returns ``(gens, sinks)`` or a :class:`CompileRefusal` naming the
    first component the compiler cannot flatten.  Generators must inject
    through :class:`~repro.core.ni.ChannelInjector` and sinks must drain
    through :class:`~repro.core.ni.ChannelReceiver` so the engine knows
    which channel endpoint they touch; anything else (a shell, a random
    generator, a plain lambda) keeps the network on the stepped kernels.
    """
    native = _native_ids(network)
    gens: List[Any] = []
    sinks: List[Tuple[Any, Any, int, int, bool]] = []
    for component in network.kernel.components:
        classified = classify_component(network, component, native)
        if isinstance(classified, CompileRefusal):
            return classified
        kind, payload = classified
        if kind == "generator":
            gens.append(payload)
        elif kind == "sink":
            sinks.append(payload)
    return gens, sinks


def _lower_schedule(network: Any) -> Any:
    """Build the schedule-dependent compile products, or refuse.

    Returns ``(regs, move_map, inj_ops, occupancy)``: everything that
    is a pure function of the structural schedule image (and the fixed
    network wiring) — which is exactly what the lowering cache may
    memoize.  The traffic roster, steady period and replay eligibility
    are *not* here: they depend on live components and are recomputed
    on every compile.
    """
    params = network.params
    table = params.slot_table_size
    wps = params.words_per_slot
    wheel = table * wps

    regs: List[Register] = []
    index: Dict[int, int] = {}

    def rid_of(register: Register) -> int:
        key = id(register)
        rid = index.get(key)
        if rid is None:
            rid = len(regs)
            index[key] = rid
            regs.append(register)
        return rid

    for link in network.links.values():
        rid_of(link.register)

    static_ops: Dict[int, tuple] = {}
    phase_ops: List[Dict[int, tuple]] = [{} for _ in range(wheel)]
    inj_ops: List[List[tuple]] = [[] for _ in range(wheel)]
    seeds: List[Tuple[int, int]] = []

    for router in network.routers.values():
        xbar_rids = [rid_of(reg) for reg in router._xbar_regs]
        for output, xbar_rid in enumerate(xbar_rids):
            out_link = router.out_links[output]
            if out_link is not None:
                static_ops[xbar_rid] = (
                    _OP_SEND,
                    rid_of(out_link.register),
                    out_link,
                )
        for phase in range(wheel):
            lagged = ((phase - 1) % wheel) // wps
            forwards = router.slot_table.forwards(lagged)
            if not forwards:
                continue
            by_input: Dict[int, List[int]] = {}
            for output, input_port in forwards:
                by_input.setdefault(input_port, []).append(
                    xbar_rids[output]
                )
            for input_port, dsts in by_input.items():
                in_link = router.in_links[input_port]
                if in_link is None:
                    continue
                phase_ops[phase][rid_of(in_link.register)] = (
                    _OP_FORWARD,
                    tuple(dsts),
                    router,
                )

    for ni in network.nis.values():
        stage_rid = rid_of(ni._stage_reg)
        out_rid = rid_of(ni._out_reg)
        static_ops[stage_rid] = (_OP_MOVE, out_rid)
        if ni.injection_table.occupied():
            if ni.out_link is None:
                return CompileRefusal(
                    CompileRefusal.INCONSISTENT_SCHEDULE,
                    f"{ni.name} holds injection slots but has no "
                    f"outgoing link",
                )
            static_ops[out_rid] = (
                _OP_INJECT,
                rid_of(ni.out_link.register),
                ni.out_link,
            )
        for phase in range(wheel):
            channel = ni.injection_table.channel(phase // wps)
            if channel is not None:
                inj_ops[phase].append(
                    (ni, channel, stage_rid, phase % wps == 0)
                )
                seeds.append((stage_rid, (phase + 1) % wheel))
            if ni.in_link is not None:
                arrival = ni.arrival_table.channel(
                    ((phase - 1) % wheel) // wps
                )
                if arrival is not None:
                    phase_ops[phase][rid_of(ni.in_link.register)] = (
                        _OP_ARRIVE,
                        ni,
                        arrival,
                    )

    move_map: List[Dict[int, tuple]] = []
    for phase in range(wheel):
        merged = dict(static_ops)
        merged.update(phase_ops[phase])
        move_map.append(merged)

    # Static occupancy walk: every (register, phase) a phit can reach
    # must have exactly one consumer.  A missing consumer means the
    # schedule would drop the word (the stepped kernels' runtime checks
    # handle that); a doubly-reached (register, phase) means two writers
    # could collide.  Either way: refuse, fall back.
    occupancy = [0] * len(regs)
    work: deque = deque()

    def occupy(rid: int, phase: int) -> bool:
        bit = 1 << phase
        if occupancy[rid] & bit:
            return False
        occupancy[rid] |= bit
        work.append((rid, phase))
        return True

    for rid, phase in seeds:
        occupy(rid, phase)
    while work:
        rid, phase = work.popleft()
        op = move_map[phase].get(rid)
        if op is None:
            return CompileRefusal(
                CompileRefusal.INCONSISTENT_SCHEDULE,
                f"a phit reaching {regs[rid].name!r} in wheel phase "
                f"{phase} has no consumer (the schedule would drop it)",
            )
        tag = op[0]
        if tag == _OP_ARRIVE:
            continue
        nxt = (phase + 1) % wheel
        dsts = op[1] if tag == _OP_FORWARD else (op[1],)
        for dst in dsts:
            if not occupy(dst, nxt):
                # A second writer can reach this (register, phase):
                # phits from two schedule walks would collide exactly
                # where the stepped kernels raise a double-drive error.
                return CompileRefusal(
                    CompileRefusal.INCONSISTENT_SCHEDULE,
                    f"two phits may collide in {regs[dst].name!r} at "
                    f"wheel phase {nxt}",
                )

    return regs, move_map, inj_ops, occupancy


def compile_network(network: Any, token: int) -> Any:
    """Flatten the configured data plane into a :class:`CompiledEngine`.

    Returns the engine, or a :class:`CompileRefusal` when the programmed
    schedule cannot be proven drop- and collision-free (the stepped
    kernels handle such schedules with their runtime checks instead).

    The schedule-dependent products (:func:`_lower_schedule`) are
    memoized per network on the structural schedule image, so a
    use-case switch back to a previously programmed schedule recompiles
    as a dict lookup; the traffic roster, steady period and replay
    eligibility are recomputed fresh every time.
    """
    from ..traffic.generators import TraceGenerator

    classified = _classify_components(network)
    if isinstance(classified, CompileRefusal):
        return classified
    gens, sinks = classified

    capacity = _lower_cache_capacity(network)
    if isinstance(capacity, CompileRefusal):
        return capacity
    image = _schedule_image(network)
    kernel = network.kernel
    lowered: Any = None
    cache: Optional[OrderedDict] = None
    if capacity > 0:
        cache = getattr(network, "_lowering_cache", None)
        if cache is None:
            cache = OrderedDict()
            network._lowering_cache = cache
        lowered = cache.get(image)
        if lowered is not None:
            cache.move_to_end(image)
            kernel.lowering_cache_hits += 1
    if lowered is None:
        lowered = _lower_schedule(network)
        if cache is not None:
            # A typed INCONSISTENT_SCHEDULE is as cacheable as a
            # successful lowering: it is the same pure function of the
            # schedule image.
            cache[image] = lowered
            while len(cache) > capacity:
                cache.popitem(last=False)
        kernel.lowering_cache_misses += 1
    if isinstance(lowered, CompileRefusal):
        return lowered
    regs, move_map, inj_ops, occupancy = lowered

    params = network.params
    wheel = params.slot_table_size * params.words_per_slot

    # Steady-state period and replay eligibility.
    period = wheel
    replay_ok = True
    replay_refusal: Optional[CompileRefusal] = None
    trace_gens = []
    conn_meta: Dict[str, tuple] = {}
    fed_channels: Set[Tuple[int, int]] = set()
    for gen in gens:
        if isinstance(gen, TraceGenerator):
            trace_gens.append(gen)
            continue
        period = lcm(period, gen.period)
        inject = gen.inject
        conn = (
            inject.connection
            or f"{inject.ni.name}.ch{inject.channel}"
        )
        chan_key = (id(inject.ni), inject.channel)
        if conn in conn_meta or chan_key in fed_channels:
            # Two generators share a label or a channel: per-connection
            # shifts are ambiguous, so replay stays off (compiled
            # stepping still applies).
            replay_ok = False
            if replay_refusal is None:
                replay_refusal = CompileRefusal(
                    CompileRefusal.APERIODIC,
                    f"generators share connection label or channel "
                    f"({conn!r}): per-connection shifts are ambiguous",
                )
        conn_meta[conn] = (inject.ni, inject.channel, gen)
        fed_channels.add(chan_key)
    for sink, _ni, _channel, sink_period, _checking in sinks:
        if sink_period:
            period = lcm(period, sink_period)
    if period > MAX_REPLAY_PERIOD:
        replay_ok = False
        replay_refusal = CompileRefusal(
            CompileRefusal.APERIODIC,
            f"steady-state period {period} exceeds the probe budget "
            f"{MAX_REPLAY_PERIOD}",
        )

    engine = CompiledEngine(
        network=network,
        token=token,
        wheel=wheel,
        regs=regs,
        move_map=move_map,
        inj_ops=inj_ops,
        occupancy=occupancy,
        gens=gens,
        trace_gens=trace_gens,
        sinks=sinks,
        conn_meta=conn_meta,
        period=period,
        replay_ok=replay_ok,
    )
    engine.replay_refusal = replay_refusal
    return engine


class CompiledEngine:
    """A flattened, directly executable image of one configured network.

    Everything the hot loop touches is resolved to integers, tuples and
    direct object references at compile time.  The engine holds **no**
    authoritative state between :meth:`run_to` calls: registers,
    counters and statistics are fully materialized at every exit, so
    :meth:`flush` and :meth:`decompile` are no-ops and external code
    always observes bit-exact stepped-equivalent state.
    """

    def __init__(
        self,
        network: Any,
        token: int,
        wheel: int,
        regs: List[Register],
        move_map: List[Dict[int, tuple]],
        inj_ops: List[List[tuple]],
        occupancy: List[int],
        gens: List[Any],
        trace_gens: List[Any],
        sinks: List[tuple],
        conn_meta: Dict[str, tuple],
        period: int,
        replay_ok: bool,
    ) -> None:
        self.network = network
        self.kernel: Kernel = network.kernel
        self.stats = network.stats
        self.token = token
        self.wheel = wheel
        self.regs = regs
        self.idles = [reg.idle for reg in regs]
        self.move_map = move_map
        self.inj_ops = inj_ops
        self.occupancy = occupancy
        self.gens = gens
        self.trace_gens = trace_gens
        self.sinks = sinks
        self.conn_meta = conn_meta
        self.period = period
        self.replay_ok = replay_ok
        self.nis_list = list(network.nis.values())
        params = network.params
        self.credit_cap = min(
            (1 << params.credit_bits_per_slot) - 1,
            params.max_credit_value,
        )
        tracked = {id(reg) for reg in regs}
        self.other_regs = [
            reg
            for reg in self.kernel.all_registers()
            if id(reg) not in tracked
        ]
        # Cumulative counters scaled during replay (beyond the channel
        # and sequence counters, which are enumerated dynamically).
        getters: List[Callable[[], int]] = []
        setters: List[Callable[[int], None]] = []
        for link in network.links.values():
            getters.append(lambda l=link: l.phits_carried)
            setters.append(
                lambda v, l=link: setattr(l, "phits_carried", v)
            )
            getters.append(lambda l=link: l.words_carried)
            setters.append(
                lambda v, l=link: setattr(l, "words_carried", v)
            )
        for router in network.routers.values():
            getters.append(lambda r=router: r.forwarded_words)
            setters.append(
                lambda v, r=router: setattr(r, "forwarded_words", v)
            )
        self.counter_getters = getters
        self.counter_setters = setters
        self._cur: Dict[int, Phit] = {}
        #: Typed diagnosis when ``replay_ok`` is off: the current
        #: timeline segment is genuinely aperiodic (see
        #: :attr:`CompileRefusal.APERIODIC`).  Telemetry only — the
        #: engine still executes, it just never fast-forwards.
        self.replay_refusal: Optional[CompileRefusal] = None
        self._replay_refusal_noted = False
        #: True while epoch replay is engaged in the current steady
        #: regime; a boundary signature mismatch closes the regime, so
        #: ``kernel.regimes_detected`` counts regime *segments*, not
        #: replayed boundaries.
        self._regime_open = False

    def _note_aperiodic(self) -> None:
        """Record the aperiodic-segment diagnosis once per engine."""
        if (
            not self.replay_ok
            and self.replay_refusal is not None
            and not self._replay_refusal_noted
        ):
            self._replay_refusal_noted = True
            self.kernel._note_replay_refusal(self.replay_refusal)

    # -- introspection -----------------------------------------------------------

    def lowered_artifacts(self) -> LoweredArtifacts:
        """Export the compile products in the stable introspection form.

        External verifiers (``repro.staticcheck --prove``) consume this
        instead of the private ``move_map``/``inj_ops`` encoding; the
        shape is documented on :class:`LoweredArtifacts`.
        """
        phases: List[Tuple[LoweredOp, ...]] = []
        for phase in range(self.wheel):
            ops: List[LoweredOp] = []
            for rid, op in sorted(self.move_map[phase].items()):
                tag = op[0]
                if tag == _OP_ARRIVE:
                    ops.append(
                        LoweredOp(
                            "arrive", rid, (), f"{op[1].name}.ch{op[2]}"
                        )
                    )
                elif tag == _OP_FORWARD:
                    ops.append(
                        LoweredOp(
                            "forward", rid, tuple(op[1]), op[2].name
                        )
                    )
                elif tag == _OP_MOVE:
                    ops.append(
                        LoweredOp(
                            "move", rid, (op[1],), self.regs[op[1]].name
                        )
                    )
                else:  # send / inject carry their link at op[2]
                    ops.append(
                        LoweredOp(
                            OP_NAMES[tag], rid, (op[1],), op[2].name
                        )
                    )
            phases.append(tuple(ops))
        seeds: List[Tuple[int, int]] = []
        for phase, inj in enumerate(self.inj_ops):
            for _ni, _channel, stage_rid, _collect in inj:
                seeds.append((stage_rid, (phase + 1) % self.wheel))
        return LoweredArtifacts(
            wheel=self.wheel,
            register_names=tuple(reg.name for reg in self.regs),
            phase_ops=tuple(phases),
            seeds=tuple(seeds),
            occupancy=tuple(self.occupancy),
        )

    # -- kernel-facing lifecycle ------------------------------------------------

    def flush(self) -> None:
        """No-op: state is materialized at every :meth:`run_to` exit."""

    def decompile(self) -> None:
        """No-op: state is materialized at every :meth:`run_to` exit."""

    # -- register import / export ----------------------------------------------

    def _import_registers(self, cycle: int) -> Optional[CompileRefusal]:
        kernel = self.kernel
        if kernel._dirty:
            return CompileRefusal(
                CompileRefusal.DATAPATH_BUSY,
                "registers were driven outside a completed cycle",
            )
        phase = cycle % self.wheel
        occupancy = self.occupancy
        cur: Dict[int, Phit] = {}
        for rid, reg in enumerate(self.regs):
            q = reg.q
            idle = self.idles[rid]
            if q is idle or q == idle:
                continue
            if not isinstance(q, Phit):
                return CompileRefusal(
                    CompileRefusal.DATAPATH_BUSY,
                    f"register {reg.name!r} holds a non-phit value",
                )
            if not (occupancy[rid] >> phase) & 1:
                return CompileRefusal(
                    CompileRefusal.DATAPATH_BUSY,
                    f"in-flight phit in {reg.name!r} is off the "
                    f"compiled schedule",
                )
            cur[rid] = q
        for reg in self.other_regs:
            q = reg.q
            if q is not reg.idle and q != reg.idle:
                return CompileRefusal(
                    CompileRefusal.CONFIG_ACTIVE,
                    f"untracked register {reg.name!r} is not idle",
                )
        self._cur = cur
        return None

    def _export_registers(self) -> None:
        cur = self._cur
        idles = self.idles
        for rid, reg in enumerate(self.regs):
            value = cur.get(rid)
            reg.q = idles[rid] if value is None else value

    # -- execution ---------------------------------------------------------------

    def run_to(self, end: int) -> Optional[CompileRefusal]:
        """Advance the network to ``end``; ``None`` on success.

        A returned refusal means *nothing was executed* (the refusal is
        detected at import time) and the caller should fall back to the
        activity kernel.  Exceptions raised mid-flight (flow-control or
        statistics integrity violations — the same ones stepped
        execution raises) propagate after state is materialized.
        """
        kernel = self.kernel
        cycle = kernel.cycle
        if cycle >= end:
            return None
        refusal = self._import_registers(cycle)
        if refusal is not None:
            return refusal
        self._note_aperiodic()

        stats = self.stats
        move_map = self.move_map
        inj_ops = self.inj_ops
        wheel = self.wheel
        credit_cap = self.credit_cap
        sinks = self.sinks
        gens = self.gens
        cur = self._cur

        gen_next: List[int] = []
        gen_due = _NEVER
        for gen in gens:
            nxt = gen.next_evaluation(cycle)
            fire = _NEVER if nxt is None else nxt
            gen_next.append(fire)
            if fire < gen_due:
                gen_due = fire

        period = self.period
        replay_ok = self.replay_ok
        events: Optional[List[tuple]] = [] if replay_ok else None
        prev_sig: Any = None
        prev_snap: Any = None
        next_boundary = (
            cycle + (-cycle) % period if replay_ok else _NEVER
        )
        stepped = 0
        replayed_epochs = 0
        replayed_cycles = 0

        try:
            while cycle < end:
                if cycle == next_boundary:
                    assert events is not None
                    if any(not gen.done for gen in self.trace_gens):
                        # A live trace generator's future firings are
                        # not captured by any state signature: defer.
                        prev_sig = None
                        prev_snap = None
                    else:
                        sig = self._signature(cycle, cur)
                        snap = self._snapshot(cycle)
                        if prev_sig is not None and sig == prev_sig:
                            epochs = (end - cycle) // period
                            epochs = min(
                                epochs,
                                self._replay_horizon(prev_snap, snap),
                            )
                            if epochs >= 1 and self._deltas_clean(
                                prev_snap, snap
                            ):
                                if not self._regime_open:
                                    self._regime_open = True
                                    kernel.regimes_detected += 1
                                self._materialize(
                                    epochs, prev_snap, snap, events, cur
                                )
                                cycle += epochs * period
                                replayed_epochs += epochs
                                replayed_cycles += epochs * period
                                prev_sig = None
                                prev_snap = None
                                events.clear()
                                next_boundary = cycle + period
                                # The clock jumped: re-anchor every
                                # generator's next firing.
                                gen_due = _NEVER
                                for i, gen in enumerate(gens):
                                    nxt = gen.next_evaluation(cycle)
                                    fire = (
                                        _NEVER if nxt is None else nxt
                                    )
                                    gen_next[i] = fire
                                    if fire < gen_due:
                                        gen_due = fire
                                continue
                        if prev_sig is not None and sig != prev_sig:
                            # The steady rhythm broke: close the regime
                            # so the next replay counts a new segment.
                            self._regime_open = False
                        prev_sig = sig
                        prev_snap = snap
                    events.clear()
                    next_boundary = cycle + period

                phase = cycle % wheel
                ops = move_map[phase]
                new: Dict[int, Phit] = {}
                for rid, phit in cur.items():
                    op = ops.get(rid)
                    if op is None:
                        raise SimulationError(
                            f"compiled engine lost track of a phit in "
                            f"{self.regs[rid].name!r} at cycle {cycle}"
                        )
                    tag = op[0]
                    if tag == _OP_MOVE:
                        new[op[1]] = phit
                    elif tag == _OP_SEND:
                        new[op[1]] = phit
                        link = op[2]
                        link.phits_carried += 1
                        if phit.word is not None:
                            link.words_carried += 1
                    elif tag == _OP_INJECT:
                        new[op[1]] = phit
                        link = op[2]
                        link.phits_carried += 1
                        word = phit.word
                        if word is not None:
                            link.words_carried += 1
                            stats.record_injection(word, cycle)
                            if events is not None:
                                events.append(
                                    (_EV_INJECT, cycle, word, 0)
                                )
                    elif tag == _OP_FORWARD:
                        dsts = op[1]
                        for dst in dsts:
                            new[dst] = phit
                        if phit.word is not None:
                            op[2].forwarded_words += len(dsts)
                    else:  # _OP_ARRIVE
                        ni = op[1]
                        dest = ni.dest_channel(op[2])
                        word = phit.word
                        if word is not None:
                            if word.parity_ok:
                                dest.deliver(word)
                                stats.record_ejection(
                                    word, cycle, destination=ni.name
                                )
                                if events is not None:
                                    events.append(
                                        (_EV_EJECT, cycle, word, ni.name)
                                    )
                            else:
                                ni.dropped_words += 1
                                stats.record_fault(
                                    cycle,
                                    FAULT_DETECTED,
                                    "parity_error",
                                    ni.name,
                                    f"ch{op[2]}: {word!r}",
                                )
                        if phit.credit_bits:
                            ni._credit_paired_source(
                                dest, phit.credit_bits
                            )

                for ni, channel, stage_rid, collect in inj_ops[phase]:
                    source = ni.source_channels.get(channel)
                    if source is None:
                        continue
                    word = (
                        source.take_word() if source.can_send() else None
                    )
                    credits = None
                    if collect:
                        paired = source.paired_arrival
                        if paired is not None:
                            dest = ni.dest_channels.get(paired)
                            if dest is not None and dest.pending_credits:
                                credits = (
                                    dest.take_pending_credits(credit_cap)
                                    or None
                                )
                    if word is not None or credits:
                        new[stage_rid] = Phit(
                            word=word, credit_bits=credits
                        )

                cur = new
                self._cur = cur

                if cycle == gen_due:
                    gen_due = _NEVER
                    for i, gen in enumerate(gens):
                        fire = gen_next[i]
                        if fire == cycle:
                            gen.evaluate(cycle)
                            nxt = gen.next_evaluation(cycle + 1)
                            fire = _NEVER if nxt is None else nxt
                            gen_next[i] = fire
                        if fire < gen_due:
                            gen_due = fire

                for sink_index, meta in enumerate(sinks):
                    sink, ni, channel, sink_period, checking = meta
                    if cycle < sink.start_cycle:
                        continue
                    if sink_period and cycle % sink_period:
                        continue
                    dest = ni.dest_channels.get(channel)
                    if dest is None or not dest.queue:
                        continue
                    for word in dest.drain(sink.words_per_cycle):
                        self._consume(sink, checking, cycle, word)
                        if events is not None:
                            events.append(
                                (_EV_SINK, cycle, word, sink_index)
                            )

                cycle += 1
                stepped += 1
        finally:
            self._export_registers()
            kernel.cycle = cycle
            kernel.compiled_cycles += stepped + replayed_cycles
            kernel.replayed_epochs += replayed_epochs
            kernel.replayed_cycles += replayed_cycles
            kernel._watchers = None
        return None

    # -- sink semantics (replicated from repro.traffic.sinks) --------------------

    def _consume(
        self, sink: Any, checking: bool, cycle: int, word: Word
    ) -> None:
        sink.received.append((cycle, word.payload))
        if not checking:
            return
        if not word.parity_ok:
            sink._record(cycle, "sink_parity_error", f"{word!r}")
        if word.sequence >= 0 and word.connection:
            last = sink._last_seq.get(word.connection)
            expected = 0 if last is None else last + 1
            if word.sequence > expected:
                sink._record(
                    cycle,
                    "e2e_gap",
                    f"{word.connection}: expected seq "
                    f"{expected}, got {word.sequence}",
                )
            elif word.sequence < expected:
                sink._record(
                    cycle,
                    "e2e_out_of_order",
                    f"{word.connection}: expected seq "
                    f"{expected}, got {word.sequence}",
                )
            sink._last_seq[word.connection] = word.sequence
        return

    # -- steady-state signatures and replay --------------------------------------

    def _sig_anchors(self) -> Dict[str, Tuple[int, int]]:
        """Per-connection (sequence, payload) anchors for shift-invariant
        signatures: the live channel sequence counter and generator word
        counter every in-flight identity is expressed relative to."""
        base: Dict[str, Tuple[int, int]] = {}
        for conn, (ni, channel, gen) in self.conn_meta.items():
            base[conn] = (
                ni._sequence_counters.get(channel, 0),
                gen.words_generated & _PAYLOAD_MASK,
            )
        return base

    @staticmethod
    def _sig_rel(
        base: Dict[str, Tuple[int, int]]
    ) -> Callable[[Word], tuple]:
        """Word → shift-invariant identity under the given anchors."""

        def rel(word: Word) -> tuple:
            anchor = base.get(word.connection)
            if anchor is None:
                return (
                    word.connection,
                    word.sequence,
                    word.payload,
                    word.parity,
                    False,
                )
            return (
                word.connection,
                word.sequence - anchor[0],
                (word.payload - anchor[1]) & _PAYLOAD_MASK,
                None,
                True,
            )

        return rel

    def _signature(self, cycle: int, cur: Dict[int, Phit]) -> tuple:
        """Shift-invariant snapshot of the full network state.

        Words of generator-fed connections are expressed relative to the
        live per-channel sequence counter and generator word counter, so
        two boundaries one steady epoch apart compare equal; everything
        else (credits, flags, queue shapes, generator/sink phase) is
        absolute and must literally repeat.
        """
        base = self._sig_anchors()
        rel = self._sig_rel(base)
        regs_part = tuple(
            sorted(
                (
                    rid,
                    rel(phit.word) if phit.word is not None else None,
                    phit.credit_bits,
                )
                for rid, phit in cur.items()
            )
        )
        return (regs_part,) + self._sig_env(cycle, base, rel)

    def _sig_env(
        self,
        cycle: int,
        base: Dict[str, Tuple[int, int]],
        rel: Callable[[Word], tuple],
    ) -> tuple:
        """The non-register signature parts: channel queues, credits and
        flags, generator phases, sink phases and sequence checkpoints."""
        chans: List[tuple] = []
        for ni in self.nis_list:
            for channel in sorted(ni.source_channels):
                source = ni.source_channels[channel]
                chans.append(
                    (
                        0,
                        ni.name,
                        channel,
                        tuple(rel(w) for w in source.queue),
                        source.credit_counter,
                        source.flags,
                        source.paired_arrival,
                    )
                )
            for channel in sorted(ni.dest_channels):
                dest = ni.dest_channels[channel]
                chans.append(
                    (
                        1,
                        ni.name,
                        channel,
                        tuple(rel(w) for w in dest.queue),
                        dest.pending_credits,
                        dest.flags,
                        dest.paired_source,
                    )
                )
        # The start offset and next-firing offset pin the generator's
        # phase relative to the boundary.  Across same-regime boundaries
        # (one period P apart, every generator period dividing P) they
        # are constant, so only a generator that has not started yet
        # or has changed rhythm breaks the two-probe comparison.
        gens_part = tuple(
            (
                gen.done,
                max(0, getattr(gen, "start_cycle", 0) - cycle),
                self._gen_phase(gen, cycle),
            )
            for gen in self.gens
        )
        sinks_part = []
        for sink, _ni, _channel, _period, checking in self.sinks:
            last_rel: tuple = ()
            if checking:
                last_rel = tuple(
                    sorted(
                        (
                            conn,
                            (last - base[conn][0])
                            if conn in base
                            else last,
                            conn in base,
                        )
                        for conn, last in sink._last_seq.items()
                    )
                )
            sinks_part.append(
                (max(0, sink.start_cycle - cycle), last_rel)
            )
        return (tuple(chans), gens_part, tuple(sinks_part))

    @staticmethod
    def _gen_phase(gen: Any, cycle: int) -> int:
        """Cycles until the generator's next firing (-1 when done)."""
        nxt = gen.next_evaluation(cycle)
        return -1 if nxt is None else nxt - cycle

    def _snapshot(self, cycle: int) -> dict:
        """Absolute counter values backing the replay arithmetic."""
        chan_keys: List[tuple] = []
        chan_vals: List[int] = []
        for ni in self.nis_list:
            for channel in sorted(ni.source_channels):
                chan_keys.append((ni.name, 0, channel))
                chan_vals.append(
                    ni.source_channels[channel].words_sent
                )
            for channel in sorted(ni.dest_channels):
                chan_keys.append((ni.name, 1, channel))
                chan_vals.append(
                    ni.dest_channels[channel].words_received
                )
            for channel in sorted(ni._sequence_counters):
                chan_keys.append((ni.name, 2, channel))
                chan_vals.append(ni._sequence_counters[channel])
        network = self.network
        dropped = sum(
            router.dropped_words
            for router in network.routers.values()
        ) + sum(ni.dropped_words for ni in self.nis_list)
        return {
            "fixed": [get() for get in self.counter_getters],
            "chan_keys": tuple(chan_keys),
            "chan_vals": chan_vals,
            "seqs": {
                conn: ni._sequence_counters.get(channel, 0)
                for conn, (ni, channel, _gen) in self.conn_meta.items()
            },
            "gen_words": [gen.words_generated for gen in self.gens],
            "gen_bursts": [
                getattr(gen, "bursts_generated", 0) for gen in self.gens
            ],
            "faults": len(self.stats.faults),
            "dropped": dropped,
            "findings": tuple(
                len(sink.findings)
                for sink, _n, _c, _p, checking in self.sinks
                if checking
            ),
        }

    def _deltas_clean(self, before: dict, after: dict) -> bool:
        """Replay is only sound for epochs free of anomalies and with a
        stable channel-counter structure."""
        return (
            before["faults"] == after["faults"]
            and before["dropped"] == after["dropped"]
            and before["findings"] == after["findings"]
            and before["chan_keys"] == after["chan_keys"]
        )

    def _replay_horizon(self, before: dict, after: dict) -> int:
        """Largest K for which every finite generator stays in budget."""
        from ..traffic.generators import BurstGenerator, CbrGenerator

        horizon = _NEVER
        for i, gen in enumerate(self.gens):
            if isinstance(gen, CbrGenerator):
                if gen.total_words is None:
                    continue
                fired = after["gen_words"][i] - before["gen_words"][i]
                if fired > 0:
                    horizon = min(
                        horizon,
                        (gen.total_words - after["gen_words"][i])
                        // fired,
                    )
            elif isinstance(gen, BurstGenerator):
                if gen.total_bursts is None:
                    continue
                fired = after["gen_bursts"][i] - before["gen_bursts"][i]
                if fired > 0:
                    horizon = min(
                        horizon,
                        (gen.total_bursts - after["gen_bursts"][i])
                        // fired,
                    )
        return horizon

    def _materialize(
        self,
        epochs: int,
        before: dict,
        after: dict,
        events: List[tuple],
        cur: Dict[int, Phit],
    ) -> None:
        """Apply ``epochs`` steady epochs arithmetically.

        Re-records the captured epoch's injection/ejection/sink events
        shifted by ``k * period`` cycles and ``k * D[connection]``
        sequence numbers (k = 1..epochs, chronological within each
        epoch), scales every cumulative counter, and rewrites in-flight
        words and queue contents to their post-replay identities.
        """
        period = self.period
        stats = self.stats
        deltas = {
            conn: after["seqs"][conn] - before["seqs"][conn]
            for conn in after["seqs"]
        }

        def shifted(word: Word, offset: int) -> Word:
            payload = (word.payload + offset) & _PAYLOAD_MASK
            return Word(
                payload=payload,
                connection=word.connection,
                sequence=word.sequence + offset,
                injected_at=word.injected_at,
                parity=bin(payload).count("1") & 1,
            )

        sinks = self.sinks
        for k in range(1, epochs + 1):
            cycle_offset = k * period
            for tag, cycle, word, extra in events:
                delta = deltas.get(word.connection, 0)
                moved = shifted(word, k * delta) if delta else word
                at = cycle + cycle_offset
                if tag == _EV_INJECT:
                    stats.record_injection(moved, at)
                elif tag == _EV_EJECT:
                    stats.record_ejection(moved, at, destination=extra)
                else:
                    sink, _ni, _ch, _p, checking = sinks[extra]
                    self._consume(sink, checking, at, moved)

        self._scale_counters(epochs, before, after)

        for rid, phit in list(cur.items()):
            word = phit.word
            if word is None:
                continue
            delta = deltas.get(word.connection, 0)
            if delta:
                cur[rid] = Phit(
                    word=shifted(word, epochs * delta),
                    credit_bits=phit.credit_bits,
                )
        self._shift_queues(deltas, epochs)

    def _scale_counters(
        self, epochs: int, before: dict, after: dict
    ) -> None:
        """Scale every cumulative counter by ``epochs`` steady deltas
        (links, routers, generators, channel endpoints, sequence
        counters)."""
        for setter, old, now in zip(
            self.counter_setters, before["fixed"], after["fixed"]
        ):
            if now != old:
                setter(now + epochs * (now - old))
        for i, gen in enumerate(self.gens):
            delta = after["gen_words"][i] - before["gen_words"][i]
            if delta:
                gen.words_generated = (
                    after["gen_words"][i] + epochs * delta
                )
            delta = after["gen_bursts"][i] - before["gen_bursts"][i]
            if delta:
                gen.bursts_generated = (
                    after["gen_bursts"][i] + epochs * delta
                )
        index = 0
        chan_before = before["chan_vals"]
        chan_after = after["chan_vals"]
        for ni in self.nis_list:
            for channel in sorted(ni.source_channels):
                delta = chan_after[index] - chan_before[index]
                if delta:
                    ni.source_channels[channel].words_sent = (
                        chan_after[index] + epochs * delta
                    )
                index += 1
            for channel in sorted(ni.dest_channels):
                delta = chan_after[index] - chan_before[index]
                if delta:
                    ni.dest_channels[channel].words_received = (
                        chan_after[index] + epochs * delta
                    )
                index += 1
            for channel in sorted(ni._sequence_counters):
                delta = chan_after[index] - chan_before[index]
                if delta:
                    ni._sequence_counters[channel] = (
                        chan_after[index] + epochs * delta
                    )
                index += 1

    def _shift_queues(
        self, deltas: Dict[str, int], epochs: int
    ) -> None:
        """Rewrite queued words to their post-replay identities."""
        for ni in self.nis_list:
            for source in ni.source_channels.values():
                self._shift_queue(source.queue, deltas, epochs)
            for dest in ni.dest_channels.values():
                self._shift_queue(dest.queue, deltas, epochs)

    @staticmethod
    def _shift_queue(
        queue: Any, deltas: Dict[str, int], epochs: int
    ) -> None:
        if not queue or not any(
            deltas.get(word.connection) for word in queue
        ):
            return
        moved = []
        for word in queue:
            delta = deltas.get(word.connection, 0)
            if delta:
                offset = epochs * delta
                payload = (word.payload + offset) & _PAYLOAD_MASK
                word = Word(
                    payload=payload,
                    connection=word.connection,
                    sequence=word.sequence + offset,
                    injected_at=word.injected_at,
                    parity=bin(payload).count("1") & 1,
                )
            moved.append(word)
        queue.clear()
        queue.extend(moved)
