"""Two-phase cycle-driven simulation kernel with an activity-driven mode.

Every piece of state that crosses a clock edge lives in a :class:`Register`.
Each cycle the kernel runs two phases:

1. *evaluate*: every :class:`Component` reads register **outputs** (``q``,
   the values latched at the end of the previous cycle) and drives register
   **inputs** (``d``).  Because no component ever observes a value driven in
   the same cycle, evaluation order is irrelevant — exactly like a
   synchronous netlist.
2. *latch*: every register copies ``d`` to ``q`` and resets ``d`` to its
   idle value.

A register refuses to be driven twice in one cycle; a double drive is a
word collision, which the contention-free schedule must make impossible,
so it raises :class:`~repro.errors.SimulationError`.

Evaluation modes
----------------

The kernel supports three modes, selected per instance or through the
``REPRO_KERNEL_MODE`` environment variable (``activity``, the default,
``naive``, or ``compiled``):

* ``naive`` — the reference semantics above, literally: every component is
  evaluated and every register latched on every cycle.
* ``activity`` — the same observable behaviour, computed lazily.  A TDM
  NoC is mostly idle (most slots on most links carry nothing), so the
  kernel tracks *activity* instead of brute-forcing every cycle:

  - **dirty latch** — :meth:`Register.drive` records the register in the
    kernel's dirty set, and the latch phase touches only registers that
    were driven this cycle or still hold a non-idle output (which must
    decay back to idle, exactly as a full latch would).
  - **wake sets** — components declare the registers they read
    (:attr:`Component.registers` implicitly, :meth:`Component.external_inputs`
    explicitly); a component is evaluated only when one of those registers
    was latched non-idle at the previous edge, or when it *self-schedules*
    through :meth:`Component.next_evaluation` (pending slot-table work,
    queued words, a traffic generator's next firing, ...).
  - **fast-forward** — when no register is active, no callback is due and
    every component self-schedules strictly in the future (or never), the
    clock jumps straight to the earliest such cycle.  No state can change
    in between — skipped cycles are bit-for-bit identical to stepping
    through them — so the jump is sound; the static TDM schedule makes
    the next-work computation O(1) per component.

* ``compiled`` — the configured GS data plane is flattened into integer
  event schedules (see :mod:`repro.sim.compiled`) and advanced in one
  tight loop with no component dispatch and no :class:`Register` traffic
  on the fast path; exactly periodic steady states are replayed
  arithmetically, epoch by epoch.  A network opts in by installing a
  ``compile_provider`` on the kernel.  Whenever compilation is not
  possible — no provider, config traffic in flight, armed fault hooks,
  strict-registers, a tracer, an unknown component, words mid-flight —
  the kernel *transparently falls back* to the activity mode for the
  affected cycles and records a typed :class:`CompileRefusal`
  (``Kernel.kernel_stats()["compile_fallbacks"]``).  Registers and stats
  are re-materialized bit-exactly at every exit from compiled execution,
  so callbacks, ``run_until`` predicates and external code always
  observe the same state as stepped execution.

The activity invariant: a component may be skipped in a cycle only if its
``evaluate`` would have been a pure no-op, and a register may skip the
latch only if latching would not change it.  ``tests/sim/test_kernel_equivalence.py``
checks the two modes produce bit-identical per-cycle register traces on
randomized networks and workloads.

Strict-registers instrumentation
--------------------------------

The wake rules above are a *contract*: a component must declare every
register its ``evaluate`` reads (own registers implicitly, foreign ones
via :meth:`Component.external_inputs`) and must only drive registers it
owns or free-standing (link) registers.  ``Kernel(strict_registers=True)``
— or ``REPRO_STRICT_REGISTERS=1`` — verifies the contract dynamically:
while a component evaluates, every ``Register.q`` read is checked against
its declared read set and every drive against its write set, raising
:class:`~repro.errors.ContractViolationError` on the first breach.  This
is the runtime twin of the static auditor in :mod:`repro.staticcheck`;
the instrumentation swaps ``Register.q`` for a checking property only
while a strict kernel is actually stepping, so non-strict kernels never
pay for it.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import ContractViolationError, SimulationError

#: Environment variable selecting the default kernel mode.
KERNEL_MODE_ENV = "REPRO_KERNEL_MODE"
#: Environment variable enabling strict register-contract checking.
STRICT_REGISTERS_ENV = "REPRO_STRICT_REGISTERS"
#: Activity-driven evaluation (wake sets, dirty latch, fast-forward).
ACTIVITY_MODE = "activity"
#: Reference evaluation: everything, every cycle.
NAIVE_MODE = "naive"
#: Flat-schedule compiled evaluation with steady-state epoch replay
#: (falls back to the activity kernel whenever the network is not
#: compilable — see :mod:`repro.sim.compiled`).
COMPILED_MODE = "compiled"

_MODES = (ACTIVITY_MODE, NAIVE_MODE, COMPILED_MODE)


class CompileRefusal:
    """A typed reason why the data plane cannot be compiled right now.

    Returned by a kernel's compile provider (and queryable through
    :meth:`Kernel.kernel_stats`) whenever ``compiled`` mode has to fall
    back to the activity kernel.  ``kind`` is a stable machine-readable
    tag; ``detail`` is free-form diagnostics.
    """

    __slots__ = ("kind", "detail")

    #: No network installed a compile provider on this kernel.
    NO_PROVIDER = "no_provider"
    #: Configuration traffic is in flight on the config tree.
    CONFIG_ACTIVE = "config_active"
    #: A FaultInjector armed fault hooks on data or config links.
    FAULT_HOOKS_ARMED = "fault_hooks_armed"
    #: The kernel verifies the strict register contract, which only the
    #: stepped kernels exercise.
    STRICT_REGISTERS = "strict_registers"
    #: An event tracer is attached (per-hop events are not compiled).
    TRACER_ACTIVE = "tracer_active"
    #: A component the compiler does not know how to flatten.
    UNSUPPORTED_COMPONENT = "unsupported_component"
    #: The programmed schedule would drop words (dead-end walk).
    INCONSISTENT_SCHEDULE = "inconsistent_schedule"
    #: Words are mid-flight in pipeline registers; the engine only
    #: starts from a quiescent data plane.
    DATAPATH_BUSY = "datapath_busy"
    #: Parameters outside the compiled timing model.
    UNSUPPORTED_PARAMS = "unsupported_params"
    #: The current timeline segment is genuinely aperiodic — steady-state
    #: epoch replay cannot engage (ambiguous generator labels, a replay
    #: period beyond the probe budget, or trace-driven traffic that never
    #: settles).  The engine still *runs*; only the arithmetic
    #: fast-forward is withheld for this regime.
    APERIODIC = "aperiodic_segment"

    #: Kinds that are *transient* obstructions of an otherwise
    #: compilable network: config words draining off the tree, phits
    #: draining out of pipeline registers after a reconfiguration.
    #: The kernel treats these as deferrals — it steps a bounded window
    #: on the activity kernel and re-probes — instead of falling back
    #: for the remainder of the call, so piecewise-periodic workloads
    #: (use-case switches) re-enter compiled execution and
    #: re-arm steady-state probing in the *new* regime.
    DEFERRABLE = frozenset((CONFIG_ACTIVE, DATAPATH_BUSY))

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"CompileRefusal({self.kind!r}, {self.detail!r})"


def default_kernel_mode() -> str:
    """Kernel mode from ``REPRO_KERNEL_MODE`` (``activity`` when unset).

    Raises:
        SimulationError: if the variable holds an unknown mode.
    """
    mode = os.environ.get(KERNEL_MODE_ENV, ACTIVITY_MODE).strip().lower()
    if mode not in _MODES:
        raise SimulationError(
            f"{KERNEL_MODE_ENV}={mode!r} is not one of {_MODES}"
        )
    return mode


def default_strict_registers() -> bool:
    """Strict-registers default from ``REPRO_STRICT_REGISTERS``."""
    value = os.environ.get(STRICT_REGISTERS_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


class Register:
    """A single clocked register with collision detection.

    Attributes:
        name: Diagnostic name used in error messages and traces.
        q: Output — value latched at the previous clock edge.
        idle: Value ``q`` takes when nothing was driven.
    """

    __slots__ = ("name", "idle", "q", "_d", "_driven", "_sink")

    def __init__(self, name: str, idle: Any = None) -> None:
        self.name = name
        self.idle = idle
        self.q: Any = idle
        self._d: Any = idle
        self._driven = False
        #: Owning kernel's dirty list (None for free-standing registers).
        self._sink: Optional[List["Register"]] = None

    def drive(self, value: Any) -> None:
        """Drive the register input for this cycle.

        Raises:
            SimulationError: if the register was already driven this cycle.
        """
        if self._driven:
            raise SimulationError(
                f"register {self.name!r} driven twice in one cycle "
                f"(had {self._d!r}, got {value!r}) — word collision"
            )
        self._d = value
        self._driven = True
        if self._sink is not None:
            self._sink.append(self)

    @property
    def driven(self) -> bool:
        """Whether the register was driven during the current cycle."""
        return self._driven

    def latch(self) -> None:
        """Clock edge: commit ``d`` to ``q`` and reset the input."""
        self.q = self._d
        self._d = self.idle
        self._driven = False

    def reset(self) -> None:
        """Asynchronous reset to the idle value."""
        self.q = self.idle
        self._d = self.idle
        self._driven = False

    def __repr__(self) -> str:
        return f"Register({self.name!r}, q={self.q!r})"


class Component(ABC):
    """A clocked hardware component.

    Subclasses implement :meth:`evaluate`, reading ``.q`` of registers and
    calling ``.drive`` on register inputs.  Registers created through
    :meth:`make_register` are automatically latched by the kernel the
    component is attached to.

    Activity contract (used by the kernel's ``activity`` mode):

    * a component is always evaluated in a cycle in which one of its own
      registers or one of :meth:`external_inputs` holds a non-idle output;
    * otherwise it is evaluated only when :meth:`next_evaluation` says the
      current cycle may hold work.  The default — "every cycle" — is the
      safe choice for components the kernel knows nothing about; it simply
      reproduces naive-mode behaviour for them.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.registers: List[Register] = []
        self._kernel: Optional["Kernel"] = None

    def make_register(self, suffix: str, idle: Any = None) -> Register:
        """Create a register owned (and latched) with this component."""
        register = Register(f"{self.name}.{suffix}", idle=idle)
        self.registers.append(register)
        if self._kernel is not None:
            self._kernel._adopt_register(register)
        return register

    def external_inputs(self) -> Iterable[Register]:
        """Registers this component reads but does not own.

        Typically the pipeline registers of incoming links.  The kernel
        re-evaluates the component whenever one of them is active.
        """
        return ()

    def next_evaluation(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``>= cycle`` at which :meth:`evaluate` may do
        observable work, assuming no watched register becomes active and
        no external code mutates this component before then.

        ``None`` means "never (until something wakes me)".  Returning a
        conservative (too early) cycle is always sound — evaluating an
        idle component is a no-op — but returning a too-late cycle breaks
        cycle accuracy.  The default, ``cycle``, keeps unknown components
        on the naive every-cycle schedule.
        """
        return cycle

    @abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Combinational phase for ``cycle``; drive register inputs."""

    def reset(self) -> None:
        """Reset all owned registers; subclasses extend for extra state."""
        for register in self.registers:
            register.reset()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


# -- strict-registers instrumentation --------------------------------------
#
# While a strict kernel steps, ``Register.q`` is swapped for a property
# that consults the module-level observation context.  The context is set
# only around ``component.evaluate`` calls, so reads from test code, the
# host, or the kernel's own bookkeeping are never restricted.


class _StrictContext:
    """The component currently evaluating and its declared read set."""

    __slots__ = ("component", "allowed_reads")

    def __init__(
        self, component: "Component", allowed_reads: FrozenSet[Register]
    ) -> None:
        self.component = component
        self.allowed_reads = allowed_reads


_STRICT_CTX: Optional[_StrictContext] = None
_PATCH_DEPTH = 0
_Q_MEMBER: Any = None  # saved slot descriptor while the patch is active


def _checked_q_get(register: Register) -> Any:
    ctx = _STRICT_CTX
    if ctx is not None and register not in ctx.allowed_reads:
        raise ContractViolationError(
            f"component {ctx.component.name!r} read register "
            f"{register.name!r} which it neither owns nor declares — an "
            f"undeclared input is a fast-forward staleness race.  Fix: "
            f"return it from {type(ctx.component).__name__}."
            f"external_inputs(), or create it with make_register() if "
            f"the component owns it."
        )
    return _Q_MEMBER.__get__(register, Register)


def _checked_q_set(register: Register, value: Any) -> None:
    _Q_MEMBER.__set__(register, value)


def _push_strict_patch() -> None:
    global _PATCH_DEPTH, _Q_MEMBER
    if _PATCH_DEPTH == 0:
        _Q_MEMBER = Register.q
        Register.q = property(  # type: ignore[assignment]
            _checked_q_get, _checked_q_set
        )
    _PATCH_DEPTH += 1


def _pop_strict_patch() -> None:
    global _PATCH_DEPTH, _STRICT_CTX, _Q_MEMBER
    _PATCH_DEPTH -= 1
    if _PATCH_DEPTH == 0:
        Register.q = _Q_MEMBER  # type: ignore[assignment]
        _Q_MEMBER = None
        _STRICT_CTX = None


class Kernel:
    """Owns components and advances the global clock.

    The kernel also exposes a tiny scheduling facility: callbacks that run
    at the start of a chosen cycle, used by test benches and the host model
    to inject stimuli at precise times.

    Attributes:
        cycle: The current simulation cycle.
        active_cycles: Cycles in which at least one component was
            evaluated or register latched (instrumentation).
        fast_forwarded_cycles: Quiescent cycles skipped in O(1) by the
            activity mode (instrumentation).
        evaluations: Total component evaluations performed.
    """

    def __init__(
        self,
        mode: Optional[str] = None,
        strict_registers: Optional[bool] = None,
    ) -> None:
        self.cycle = 0
        self.components: List[Component] = []
        self._extra_registers: List[Register] = []
        self._callbacks: dict[int, List[Callable[[int], None]]] = {}
        if mode is None:
            mode = default_kernel_mode()
        elif mode not in _MODES:
            raise SimulationError(
                f"unknown kernel mode {mode!r}; expected one of {_MODES}"
            )
        self._mode = mode
        if strict_registers is None:
            strict_registers = default_strict_registers()
        #: Verify the read/write contract of every evaluation (slow;
        #: meant for tests — see the module docstring).
        self.strict_registers = strict_registers
        #: component -> (allowed reads, allowed writes); rebuilt lazily.
        self._strict_sets: Dict[
            Component, Tuple[FrozenSet[Register], FrozenSet[Register]]
        ] = {}
        #: Registers driven during the current cycle (filled by drive()).
        self._dirty: List[Register] = []
        #: Registers whose q was latched non-idle at the previous edge.
        self._carry: Set[Register] = set()
        #: Components woken for the current cycle by register activity.
        self._wake: Set[Component] = set()
        #: register -> components watching it; None marks "needs rebuild".
        self._watchers: Optional[Dict[Register, tuple]] = None
        self.active_cycles = 0
        self.fast_forwarded_cycles = 0
        self.evaluations = 0
        #: Installed by a network that knows how to flatten its data
        #: plane: ``provider(kernel, previous_engine)`` returns a fresh
        #: (or revalidated) engine object, or a :class:`CompileRefusal`.
        self.compile_provider: Optional[
            Callable[["Kernel", Any], Any]
        ] = None
        #: The live compiled engine, if any (owned by COMPILED_MODE).
        self._engine: Any = None
        #: Cycles advanced by the compiled engine's event loop.
        self.compiled_cycles = 0
        #: Steady-state epochs applied arithmetically instead of stepped.
        self.replayed_epochs = 0
        #: Cycles covered by replayed epochs (subset of compiled_cycles).
        self.replayed_cycles = 0
        #: refusal kind -> number of fallbacks to the activity kernel.
        self.compile_fallbacks: Dict[str, int] = {}
        #: refusal kind -> number of *deferrals*: transient refusals
        #: (config traffic, draining datapath) stepped through on the
        #: activity kernel before successfully re-acquiring an engine.
        self.compile_deferrals: Dict[str, int] = {}
        self._last_refusal: Optional[CompileRefusal] = None
        #: Distinct steady-state regimes in which epoch replay engaged
        #: (a regime opens when replay first fires after a signature
        #: mismatch or reconfiguration, and closes on the next mismatch).
        self.regimes_detected = 0
        #: ``lower_network`` products served from the schedule-image
        #: cache instead of recompiled (use-case-switch campaigns).
        self.lowering_cache_hits = 0
        #: Full compiles that populated the lowering cache.
        self.lowering_cache_misses = 0
        #: refusal kind -> count of *replay* refusals: the engine ran,
        #: but a timeline segment was aperiodic so epoch replay was
        #: withheld (see :attr:`CompileRefusal.APERIODIC`).
        self.replay_refusals: Dict[str, int] = {}
        #: Config packets applied as scheduled writes at their gap
        #: cycles (express delivery) / stepped word by word through the
        #: config tree, and refusal kind -> packets express refused.
        self.config_express_packets = 0
        self.config_stepped_packets = 0
        self.config_express_refusals: Dict[str, int] = {}

    # -- mode ----------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"activity"``, ``"naive"`` or ``"compiled"``."""
        return self._mode

    def set_mode(self, mode: str) -> None:
        """Switch evaluation mode (allowed at any cycle boundary).

        Raises:
            SimulationError: on an unknown mode.
        """
        if mode not in _MODES:
            raise SimulationError(
                f"unknown kernel mode {mode!r}; expected one of {_MODES}"
            )
        if mode != self._mode:
            self._retire_engine(decompile=True)
            self._mode = mode
            self._watchers = None  # rebuild activity state on next step
            self._strict_sets.clear()

    # -- construction --------------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a component (and its registers) with the kernel."""
        self._retire_engine(decompile=True)
        self.components.append(component)
        component._kernel = self
        for register in component.registers:
            register._sink = self._dirty
        self._watchers = None
        self._strict_sets.clear()
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        """Register several components at once."""
        for component in components:
            self.add(component)

    def add_register(self, register: Register) -> Register:
        """Track a free-standing register not owned by any component."""
        self._retire_engine(decompile=True)
        self._extra_registers.append(register)
        register._sink = self._dirty
        self._watchers = None
        self._strict_sets.clear()
        return register

    def _adopt_register(self, register: Register) -> None:
        """Hook a register created after its component was added."""
        self._retire_engine(decompile=True)
        register._sink = self._dirty
        self._watchers = None
        self._strict_sets.clear()

    def all_registers(self) -> List[Register]:
        """Every register latched by this kernel (components + extras)."""
        registers: List[Register] = []
        for component in self.components:
            registers.extend(component.registers)
        registers.extend(self._extra_registers)
        return registers

    def at(self, cycle: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(cycle)`` at the start of ``cycle``.

        Raises:
            SimulationError: if ``cycle`` is already in the past.
        """
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule at cycle {cycle}; now at {self.cycle}"
            )
        self._callbacks.setdefault(cycle, []).append(callback)

    # -- strict-registers contract checking -----------------------------------

    @contextmanager
    def _strict_stepping(self) -> Iterator[None]:
        """Install the ``Register.q`` observation patch while stepping."""
        if not self.strict_registers:
            yield
            return
        _push_strict_patch()
        try:
            yield
        finally:
            _pop_strict_patch()

    def _strict_allowed(
        self, component: Component
    ) -> Tuple[FrozenSet[Register], FrozenSet[Register]]:
        """(allowed reads, allowed writes) of one component, cached."""
        sets = self._strict_sets.get(component)
        if sets is None:
            own = frozenset(component.registers)
            reads = own | frozenset(component.external_inputs())
            writes = own | frozenset(self._extra_registers)
            sets = (reads, writes)
            self._strict_sets[component] = sets
        return sets

    def _evaluate_checked(self, component: Component, cycle: int) -> None:
        """Evaluate one component under read/write observation.

        Raises:
            ContractViolationError: on an undeclared register read (via
                the ``Register.q`` patch) or a drive of a register owned
                by another component (checked against the dirty list the
                evaluation appended to).
        """
        global _STRICT_CTX
        reads, writes = self._strict_allowed(component)
        before = len(self._dirty)
        _STRICT_CTX = _StrictContext(component, reads)
        try:
            component.evaluate(cycle)
        finally:
            _STRICT_CTX = None
        for register in self._dirty[before:]:
            if register not in writes:
                raise ContractViolationError(
                    f"component {component.name!r} drove register "
                    f"{register.name!r} which belongs to another "
                    f"component — a double-drive hazard the runtime "
                    f"collision check only catches when both drivers "
                    f"fire in the same cycle.  Fix: drive only "
                    f"registers created with make_register() or "
                    f"free-standing link registers."
                )

    # -- activity bookkeeping -------------------------------------------------

    def _finalize(self) -> None:
        """(Re)build the register->watchers map and the activity sets."""
        watchers: Dict[Register, list] = {}
        for component in self.components:
            component._kernel = self
            for register in component.registers:
                register._sink = self._dirty
                watchers.setdefault(register, []).append(component)
            for register in component.external_inputs():
                entry = watchers.setdefault(register, [])
                if component not in entry:
                    entry.append(component)
        for register in self._extra_registers:
            register._sink = self._dirty
            watchers.setdefault(register, [])
        self._watchers = {
            register: tuple(components)
            for register, components in watchers.items()
        }
        # Rebuild the active sets from the registers' current outputs so
        # a mode switch (or late component addition) starts consistent.
        carry: Set[Register] = set()
        wake: Set[Component] = set()
        for register in self._watchers:
            q = register.q
            if q is not register.idle and q != register.idle:
                carry.add(register)
                wake.update(self._watchers[register])
        self._carry = carry
        self._wake = wake

    def _next_active_cycle(self) -> Optional[int]:
        """Earliest cycle >= now at which anything may happen.

        Returns ``None`` when no register is active, no callback is
        scheduled and every component self-schedules "never".
        """
        cycle = self.cycle
        if self._wake or self._carry or self._dirty:
            return cycle
        best: Optional[int] = None
        for scheduled in self._callbacks:
            if scheduled >= cycle and (best is None or scheduled < best):
                best = scheduled
        if best == cycle:
            return cycle
        for component in self.components:
            nxt = component.next_evaluation(cycle)
            if nxt is None:
                continue
            if nxt <= cycle:
                return cycle
            if best is None or nxt < best:
                best = nxt
        return best

    def _run_active_cycle(self) -> None:
        """Execute one cycle: callbacks, woken components, dirty latch."""
        cycle = self.cycle
        self.active_cycles += 1
        for callback in self._callbacks.pop(cycle, ()):  # stimuli
            callback(cycle)
        wake = self._wake
        strict = self.strict_registers
        evaluated = 0
        for component in self.components:
            if component in wake:
                if strict:
                    self._evaluate_checked(component, cycle)
                else:
                    component.evaluate(cycle)
                evaluated += 1
            else:
                # Checked at the component's turn (not precomputed) so a
                # component earlier in the order that queued work for a
                # later one this cycle has the same effect as in naive
                # evaluation order.
                nxt = component.next_evaluation(cycle)
                if nxt is not None and nxt <= cycle:
                    if strict:
                        self._evaluate_checked(component, cycle)
                    else:
                        component.evaluate(cycle)
                    evaluated += 1
        self.evaluations += evaluated
        # Dirty latch: only registers driven this cycle or still holding
        # a non-idle output can change at this edge.
        pending = self._carry
        pending.update(self._dirty)
        self._dirty.clear()
        watchers = self._watchers
        assert watchers is not None
        carry: Set[Register] = set()
        wake = set()
        for register in pending:
            register.latch()
            q = register.q
            if q is not register.idle and q != register.idle:
                carry.add(register)
                watching = watchers.get(register)
                if watching:
                    wake.update(watching)
        self._carry = carry
        self._wake = wake
        self.cycle = cycle + 1

    # -- compiled-mode engine lifecycle ---------------------------------------

    def _note_refusal(self, refusal: CompileRefusal) -> None:
        self._last_refusal = refusal
        self.compile_fallbacks[refusal.kind] = (
            self.compile_fallbacks.get(refusal.kind, 0) + 1
        )

    def _note_replay_refusal(self, refusal: CompileRefusal) -> None:
        """Record an aperiodic-segment diagnosis (not a fallback).

        The engine keeps running; only the epoch fast-forward is
        withheld, so this feeds :attr:`replay_refusals` rather than the
        fallback counters.
        """
        self.replay_refusals[refusal.kind] = (
            self.replay_refusals.get(refusal.kind, 0) + 1
        )

    def note_config_packet(self, refusal: Optional[str]) -> None:
        """Count one activated config packet: express when ``refusal``
        is ``None``, else stepped for the given refusal kind."""
        if refusal is None:
            self.config_express_packets += 1
            return
        self.config_stepped_packets += 1
        self.config_express_refusals[refusal] = (
            self.config_express_refusals.get(refusal, 0) + 1
        )

    def _retire_engine(self, decompile: bool = True) -> None:
        """Drop the compiled engine, optionally materializing its state.

        ``decompile=True`` writes the engine's in-flight words back into
        the pipeline registers and flushes all deferred counters, so the
        stepped kernels (and external observers) resume from bit-exact
        state.  ``decompile=False`` simply discards it (reset paths,
        where registers are about to be cleared anyway).
        """
        engine = self._engine
        if engine is None:
            return
        self._engine = None
        if decompile:
            engine.decompile()
        self._watchers = None  # rebuild activity carry/wake from registers

    def _acquire_engine(self) -> Any:
        """Return a valid compiled engine, or fall back (``None``).

        The provider revalidates a previous engine cheaply (config-tree
        quiescence, schedule version token) and recompiles only when the
        programmed schedule actually changed.  On refusal the old engine
        is decompiled so the activity fallback sees current state.
        """
        provider = self.compile_provider
        if provider is None:
            self._retire_engine(decompile=True)
            self._note_refusal(
                CompileRefusal(
                    CompileRefusal.NO_PROVIDER,
                    "no network installed a compile provider",
                )
            )
            return None
        result = provider(self, self._engine)
        if isinstance(result, CompileRefusal):
            if result.kind not in CompileRefusal.DEFERRABLE:
                self._retire_engine(decompile=True)
            # Deferrable refusals keep the engine cached: it holds no
            # state between runs (decompile is a no-op), and the token
            # check makes reuse after the obstruction clears cheap.
            self._note_refusal(result)
            return None
        self._engine = result
        return result

    def flush_compiled(self) -> None:
        """Materialize compiled-engine state into registers and stats.

        A no-op outside compiled execution.  The engine also flushes at
        every exit from :meth:`step`, so this is only needed by code
        inspecting registers *between* engine-internal checkpoints.
        """
        if self._engine is not None:
            self._engine.flush()

    def kernel_stats(self) -> Dict[str, Any]:
        """Instrumentation snapshot, including compiled-mode telemetry."""
        refusal = self._last_refusal
        return {
            "mode": self._mode,
            "cycle": self.cycle,
            "active_cycles": self.active_cycles,
            "evaluations": self.evaluations,
            "fast_forwarded_cycles": self.fast_forwarded_cycles,
            "compiled_cycles": self.compiled_cycles,
            "replayed_epochs": self.replayed_epochs,
            "replayed_cycles": self.replayed_cycles,
            "compile_fallbacks": dict(self.compile_fallbacks),
            "compile_deferrals": dict(self.compile_deferrals),
            "regimes_detected": self.regimes_detected,
            # No engine caches replay regimes; the key stays, pinned at
            # 0, because perfbench's traced run reports it as
            # ``sim.replay.regime_cache_hits``.
            "regime_cache_hits": 0,
            "lowering_cache_hits": self.lowering_cache_hits,
            "lowering_cache_misses": self.lowering_cache_misses,
            "replay_refusals": dict(self.replay_refusals),
            "config_express_packets": self.config_express_packets,
            "config_stepped_packets": self.config_stepped_packets,
            "config_express_refusals": dict(self.config_express_refusals),
            "last_refusal": None if refusal is None else refusal.kind,
            "last_refusal_detail": (
                None if refusal is None else refusal.detail
            ),
        }

    #: First deferral window (cycles stepped on the activity kernel
    #: before re-probing engine eligibility after a transient refusal).
    DEFER_WINDOW_MIN = 64
    #: Deferral windows back off exponentially up to this cap, so a
    #: long-lived obstruction costs O(log) probes, not one per window.
    DEFER_WINDOW_MAX = 4096

    def _step_compiled(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, compiled where possible.

        Callbacks are barriers: they may mutate arbitrary state, so the
        engine runs up to the earliest scheduled callback, decompiles,
        and the callback's cycle executes under the activity kernel;
        eligibility is then re-checked.

        Refusals split two ways.  *Transient* kinds
        (:attr:`CompileRefusal.DEFERRABLE`: config traffic in flight,
        phits draining off the compiled schedule) are deferrals — the
        kernel steps a bounded, exponentially growing activity window
        and re-probes, so a use-case switch re-enters compiled
        execution (and re-arms steady-state probing) once the tree is
        quiet.  Every other kind falls back to the activity kernel for
        the remainder of this call — re-probing a permanently refusing
        configuration every window would only burn eligibility scans.
        """
        end = self.cycle + cycles
        defer_window = self.DEFER_WINDOW_MIN
        while self.cycle < end:
            engine = self._acquire_engine()
            if engine is None:
                refusal = self._last_refusal
                if (
                    refusal is not None
                    and refusal.kind in CompileRefusal.DEFERRABLE
                ):
                    self._defer(refusal, min(defer_window, end - self.cycle))
                    defer_window = min(
                        defer_window * 2, self.DEFER_WINDOW_MAX
                    )
                    continue
                self._step_activity(end - self.cycle)
                return
            barrier = end
            for scheduled in self._callbacks:
                if self.cycle <= scheduled < barrier:
                    barrier = scheduled
            if barrier > self.cycle:
                refusal = engine.run_to(barrier)
                if refusal is not None:
                    self._note_refusal(refusal)
                    if refusal.kind in CompileRefusal.DEFERRABLE:
                        # Import-time refusal: nothing was executed and
                        # the engine holds no state, so keep it cached —
                        # the next probe revalidates by token instead of
                        # recompiling the whole mesh.
                        self._defer(
                            refusal, min(defer_window, end - self.cycle)
                        )
                        defer_window = min(
                            defer_window * 2, self.DEFER_WINDOW_MAX
                        )
                        continue
                    self._retire_engine(decompile=True)
                    self._step_activity(end - self.cycle)
                    return
                defer_window = self.DEFER_WINDOW_MIN
            if self.cycle < end:
                # A callback is due at the current cycle; run it stepped.
                self._retire_engine(decompile=True)
                self._step_activity(1)

    def _defer(self, refusal: CompileRefusal, window: int) -> None:
        """Step a bounded activity window through a transient refusal."""
        self.compile_deferrals[refusal.kind] = (
            self.compile_deferrals.get(refusal.kind, 0) + 1
        )
        self._step_activity(max(1, window))

    # -- execution -----------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` clock cycles."""
        with self._strict_stepping():
            if self._mode == NAIVE_MODE:
                self._step_naive(cycles)
            elif self._mode == COMPILED_MODE:
                self._step_compiled(cycles)
            else:
                self._step_activity(cycles)

    def _step_naive(self, cycles: int) -> None:
        strict = self.strict_registers
        for _ in range(cycles):
            for callback in self._callbacks.pop(self.cycle, ()):  # stimuli
                callback(self.cycle)
            for component in self.components:
                if strict:
                    self._evaluate_checked(component, self.cycle)
                else:
                    component.evaluate(self.cycle)
            for component in self.components:
                for register in component.registers:
                    register.latch()
            for register in self._extra_registers:
                register.latch()
            self._dirty.clear()
            self.evaluations += len(self.components)
            self.active_cycles += 1
            self.cycle += 1

    def _step_activity(self, cycles: int) -> None:
        end = self.cycle + cycles
        while self.cycle < end:
            if self._watchers is None:
                self._finalize()
            nxt = self._next_active_cycle()
            if nxt is None or nxt >= end:
                self.fast_forwarded_cycles += end - self.cycle
                self.cycle = end
                return
            if nxt > self.cycle:
                self.fast_forwarded_cycles += nxt - self.cycle
                self.cycle = nxt
            self._run_active_cycle()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` is true; return the current cycle.

        In activity mode the predicate is re-checked after every cycle in
        which any component ran or register latched; fully quiescent
        stretches — during which no state the predicate could observe can
        change — are fast-forwarded.  (A predicate that watches
        ``kernel.cycle`` itself rather than simulation state should use
        :meth:`step` directly.)

        Raises:
            SimulationError: if the predicate stays false for
                ``max_cycles`` cycles.
        """
        start = self.cycle
        limit = start + max_cycles
        # run_until polls arbitrary state between cycles — inherently
        # stepped execution, so compiled mode defers to the activity
        # kernel here (after materializing any engine state).
        self._retire_engine(decompile=True)
        with self._strict_stepping():
            while not predicate():
                if self.cycle >= limit:
                    raise SimulationError(
                        f"condition not reached within {max_cycles} cycles"
                    )
                if self._mode == NAIVE_MODE:
                    self._step_naive(1)
                else:
                    if self._watchers is None:
                        self._finalize()
                    nxt = self._next_active_cycle()
                    if nxt is None or nxt >= limit:
                        self.fast_forwarded_cycles += limit - self.cycle
                        self.cycle = limit
                        continue
                    if nxt > self.cycle:
                        self.fast_forwarded_cycles += nxt - self.cycle
                        self.cycle = nxt
                    self._run_active_cycle()
        return self.cycle

    def reset(self) -> None:
        """Reset the clock, all components, and scheduled callbacks."""
        self._retire_engine(decompile=False)  # registers reset below
        self.cycle = 0
        self._callbacks.clear()
        for component in self.components:
            component.reset()
        for register in self._extra_registers:
            register.reset()
        self._dirty.clear()
        self._carry.clear()
        self._wake.clear()
