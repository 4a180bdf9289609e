"""The benchmark's four workloads and their seeded input generators.

Every input is drawn here from ``random.Random`` seeded by the run's
seed; the program only receives the resulting calls.  The generators
deliberately do not reuse the program's own churn or availability
harnesses, so changes to those cannot move the benchmark.

A workload runs in *reps*: one rep builds a fresh system (timed as
set-up), drives a fixed amount of seeded work through it (timed as the
measured phase), then checks the results.  A rep's simulated results
are a pure function of its seed, so they are hashed into a digest that
must repeat exactly.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import repro.alloc  # noqa: F401  (import order: alloc before core)
import repro.service.broker as broker_module
from repro.alloc import ConnectionRequest, SlotAllocator
from repro.alloc.spec import MulticastRequest
from repro.analysis.model import AdmissionOracle
from repro.core import DaeliteNetwork
from repro.core.online import OnlineConnectionManager
from repro.faults import FaultInjector
from repro.faults.spec import ConfigWordCorrupt, FaultPlan, SlotTableUpset
from repro.params import daelite_parameters
from repro.service import (
    SUCCESS_STATUSES,
    ConnectionBroker,
    ServiceConfig,
    ServiceOutcome,
    TenantRequest,
)
from repro.sim.kernel import ACTIVITY_MODE, COMPILED_MODE
from repro.staticcheck import verify_network_state
from repro.topology import build_mesh, ni_name
from repro.traffic.generators import CbrGenerator, TraceGenerator
from repro.traffic.sinks import CheckingSink

from measure import digest, histogram_lines, probe_host
from spans import Target

#: Explicit service configuration, so an environment override cannot
#: change the workload.  All values are the defaults except the lease,
#: which is short enough that sweep calls expire connections.
SERVICE_CONFIG = ServiceConfig(
    shards=2,
    timeout_cycles=50_000,
    max_retries=3,
    backoff_base_cycles=64,
    backoff_cap_cycles=4_096,
    jitter_cycles=16,
    lease_cycles=800,
    breaker_threshold=4,
    breaker_cooldown_cycles=10_000,
)
TENANTS = tuple(f"tenant{index}" for index in range(8))
#: Per-shard live-connection watermark: an open on a shard at the
#: watermark becomes a release there, keeping the fleet below its
#: admission ceiling so no open is refused for capacity.  Connections a
#: link failure reroutes keep their longer detours after the link is
#: restored; at a watermark of 4 that let an open be refused.
WATERMARK = 3
#: Connections opened per shard during set-up.
PREFILL = 2
#: Relative weights of the client's calls: the default ``ChurnMix`` of
#: ``repro.service.churn`` (the mix behind the repo's availability
#: benchmark), copied so the benchmark does not depend on that module.
SERVICE_MIX = (("open", 5), ("release", 3), ("renew", 6), ("repair", 1), ("sweep", 1))
#: Client calls in one service rep.
SERVICE_OPS = 350
#: Reps per pass (distinct sub-seeds): enough successful opens in one
#: pass for a p95 with at least ten samples beyond it, and enough
#: independent fleets that one unlucky fault wave moves a run little.
SERVICE_REPS = 4
#: service-faults: a fault wave starts every WAVE_EVERY calls, keeps its
#: faults armed for WAVE_OPS further calls, and every LINK_EVERY-th wave
#: also fails (then restores) one router-router link.  Only the
#: undeclared service-config-faults also corrupts a config word: the
#: program fails operations under that fault (see the README).
WAVE_EVERY = 50
WAVE_OPS = 6
LINK_EVERY = 4
TABLE_UPSETS = 2
#: service-config-faults: a config-word corrupt lands this many cycles
#: into the open it targets (set-up takes ~137 cycles on the 2x2 shards).
CORRUPT_WINDOW = (8, 120)

MESH = 8
DATA_PARAMS = daelite_parameters(slot_table_size=16, config_word_bits=9)
UNICAST_FLOWS = 16
#: Every unicast flow spans exactly this many mesh hops, so the
#: stepping cost per cycle does not depend on which pairs the seed picks.
FLOW_HOPS = 6
MULTICAST_DESTS = 3
#: One word per WORD_PERIOD cycles per flow (CBR) or on average
#: (aperiodic), well below the 2-of-16-slot reservation.  The period is
#: coprime to the 16-slot wheel, so each flow's words meet every slot
#: phase and the latency distribution does not hinge on where the seed
#: placed each flow's slots.
WORD_PERIOD = 33
APERIODIC_GAP = (9, 57)
WARMUP_CYCLES = 2_000
WINDOW_CYCLES = {"dataplane-periodic": 300_000, "dataplane-aperiodic": 100_000}
DRAIN_CYCLES = 20_000
#: The measured phase is timed in slices (cycles on the data plane,
#: client calls on the service); the host's speed is probed after each
#: slice and each set-up.
#: The periodic window is one slice: every ``run`` call probes two
#: epochs of the compiled engine's steady-state period (1056 cycles for
#: this traffic) before it can replay, so slicing it would push replay
#: coverage below 99%.
SLICE_CYCLES = {"dataplane-periodic": 300_000, "dataplane-aperiodic": 10_000}
SLICE_CALLS = 20


@dataclass
class RepResult:
    """One rep's measurements, digest lines and check failures."""

    setup_s: float = 0.0
    #: Total host seconds and count of the reference probes run after
    #: set-up and after each slice.
    probe_s: float = 0.0
    probes: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: List[int] = field(default_factory=list)
    open_us: List[float] = field(default_factory=list)
    #: (host seconds, units served, simulated cycles) per timed slice.
    #: Service units are successful operations (goodput); data-plane
    #: units are words received.
    slices: List[Tuple[float, int, int]] = field(default_factory=list)
    repair_cycles: List[int] = field(default_factory=list)
    digest_lines: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    kernel_mode: str = ""
    alloc_engine: str = ""

    @property
    def digest(self) -> str:
        return digest(self.digest_lines)

    def probe(self, timed_s: float) -> None:
        probe_s, probes = probe_host(timed_s)
        self.probe_s += probe_s
        self.probes += probes


def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _kernel_counters(stats_list: List[dict]) -> Dict[str, float]:
    keys = ("replayed_cycles", "replayed_epochs", "regime_cache_hits", "lowering_cache_hits")
    totals = {key: float(sum(stats[key] for stats in stats_list)) for key in keys}
    totals["compile_fallbacks"] = float(
        sum(sum(stats["compile_fallbacks"].values()) for stats in stats_list)
    )
    return totals


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


# -- service workloads -------------------------------------------------------------


class TenantClient:
    """Seeded closed-loop client: picks one broker call at a time.

    Choices depend only on the seed and on state the broker reports
    (live labels, lease deadlines), so a rep replays exactly.
    """

    def __init__(self, broker: ConnectionBroker, seed: int) -> None:
        self.broker = broker
        self.rng = random.Random(seed)
        self.table = [op for op, weight in SERVICE_MIX for _ in range(weight)]
        #: Ops are dealt from shuffled copies of the table, so every 16
        #: calls hold the mix exactly and the share of costly opens (and
        #: with it served_per_s) does not drift with the seed.
        self.deck: List[str] = []
        self.labels = 0

    def _live_on(self, shard_index: int) -> List[str]:
        return [
            label
            for label in self.broker.live_labels()
            if self.broker.shard_of_label(label).index == shard_index
        ]

    def open_ask(self, tenant: str) -> TenantRequest:
        nis = self.broker.shard_for(tenant).endpoint_nis
        src, dst = self.rng.sample(nis, 2)
        self.labels += 1
        return TenantRequest(
            tenant=tenant,
            request=ConnectionRequest(
                f"{tenant}.c{self.labels:05d}",
                src,
                dst,
                forward_slots=self.rng.randint(1, 2),
            ),
            min_forward_slots=1,
        )

    def open_call(self) -> Tuple[str, object]:
        """An ``open`` for a random tenant, or a release on the tenant's
        shard when that shard is at the watermark."""
        tenant = self.rng.choice(TENANTS)
        live = self._live_on(self.broker.shard_for(tenant).index)
        if len(live) >= WATERMARK:
            return "release", self.rng.choice(live)
        return "open", self.open_ask(tenant)

    def next_call(self) -> Tuple[str, object]:
        if not self.deck:
            self.deck = self.rng.sample(self.table, len(self.table))
        op = self.deck.pop()
        if op == "open":
            return self.open_call()
        if op == "sweep":
            return "sweep", None
        labels = self.broker.live_labels()
        if op == "renew":
            labels = [
                label
                for label in labels
                if self.broker.shard_of_label(label)
                .leases.get(label)
                .live(self.broker.shard_of_label(label).now)
            ]
        if not labels:
            return self.open_call()
        return op, self.rng.choice(labels)

    def execute(self, call: Tuple[str, object]) -> List[ServiceOutcome]:
        op, arg = call
        if op == "open":
            return [self.broker.open(arg)]
        if op == "release":
            return [self.broker.release(arg)]
        if op == "renew":
            return [self.broker.renew(arg)]
        if op == "repair":
            return [self.broker.repair(arg)]
        return self.broker.sweep_expired()


class ServiceRep:
    """One service rep: fresh 2-shard fleet, prefill, seeded calls."""

    def __init__(
        self, seed: int, faults: bool, recorder=None, config_corrupts: bool = False
    ) -> None:
        self.seed = seed
        self.faults = faults
        self.config_corrupts = config_corrupts
        self.recorder = recorder
        self.result = RepResult()
        self.fault_rng = random.Random(seed ^ 0xFA17)
        self.calls = 0
        #: Operations that neither raised nor returned an outcome outside
        #: SUCCESS_STATUSES.
        self.good = 0
        self.waves = 0

    # -- one call, timed and accounted ------------------------------------------------

    def _call(self, client: TenantClient, call: Tuple[str, object]) -> List[ServiceOutcome]:
        started = time.perf_counter()
        outcomes = self._guarded(call[0], lambda: client.execute(call))
        if call[0] == "open" and outcomes:
            self.result.open_us.append((time.perf_counter() - started) * 1e6)
            if outcomes[0].ok:
                self.result.latencies.append(outcomes[0].op_cycles)
        return outcomes

    def _guarded(self, op: str, action: Callable[[], List[ServiceOutcome]]) -> List[ServiceOutcome]:
        """Run one operation and account it: it fails if it raises or if
        any outcome is outside SUCCESS_STATUSES."""
        result = self.result
        if self.recorder is not None:
            self.recorder.op += 1
        result.attempted += 1
        try:
            outcomes = action()
        except Exception as error:  # a raised exception is a failed operation
            result.failed += 1
            result.digest_lines.append(f"{self.calls} {op} raised {type(error).__name__}")
            result.counters["service.raised"] = result.counters.get("service.raised", 0) + 1
            if not self.faults:
                # Without faults the broker's contract is never to raise.
                result.failures.append(f"call {self.calls} {op} raised {error!r}")
            self.calls += 1
            return []
        if any(outcome.status not in SUCCESS_STATUSES for outcome in outcomes):
            result.failed += 1
        else:
            self.good += 1
        if not outcomes:
            result.digest_lines.append(f"{self.calls} {op} -")
        for outcome in outcomes:
            result.digest_lines.append(
                f"{self.calls} {op} {outcome.status} {outcome.label} "
                f"{outcome.region} {outcome.cycle} {outcome.attempts} "
                f"{outcome.op_cycles}"
            )
        self.calls += 1
        return outcomes

    # -- fault waves ------------------------------------------------------------------

    def _live_entries(self, network: DaeliteNetwork) -> List[Tuple[str, int, int]]:
        slots = network.params.slot_table_size
        return [
            (name, output, slot)
            for name in sorted(network.routers)
            for output in range(network.routers[name].ports)
            for slot in range(slots)
            if network.routers[name].slot_table.entry(output, slot) is not None
        ]

    def _wave(self, broker: ConnectionBroker, client: TenantClient) -> None:
        """Arm table upsets on live slots (and, if enabled, a config-word
        corrupt inside the next open), churn through the window, then
        scrub to clean."""
        rng = self.fault_rng
        call = client.next_call()
        while call[0] != "open":
            self._call(client, call)
            call = client.next_call()
        shard = broker.shard_for(call[1].tenant)
        network = shard.network
        now = shard.now
        entries = self._live_entries(network)
        specs: List[object] = [
            SlotTableUpset(router, output, slot, now + 1 + index)
            for index, (router, output, slot) in enumerate(
                rng.sample(entries, min(TABLE_UPSETS, len(entries)))
            )
        ]
        if self.config_corrupts:
            cfg_links = sorted(name for name in network.config_links if name.startswith("cfg."))
            specs.append(
                ConfigWordCorrupt(
                    rng.choice(cfg_links), now + rng.randint(*CORRUPT_WINDOW), rng.randrange(7)
                )
            )
        last_fault = max((spec.cycle for spec in specs), default=now)
        events_before = len(network.stats.faults)
        injector = FaultInjector(network, FaultPlan(seed=self.seed, specs=tuple(specs)))
        injector.arm()
        try:
            self._call(client, call)
            for _ in range(WAVE_OPS):
                self._call(client, client.next_call())
            if shard.now <= last_fault:
                # Let every scheduled fault land before disarming.
                self._guarded("settle", lambda: network.run(last_fault + 1 - shard.now) or [])
        finally:
            injector.disarm()
        counters = self.result.counters
        _add(counters, "faults.armed", len(specs))
        _add(counters, "faults.effective", _landed(network.stats.faults[events_before:]))
        self._scrub(broker, shard.index)
        self.waves += 1
        if self.waves % LINK_EVERY == 0:
            self._link_failure(broker, shard.index)

    def _scrub(self, broker: ConnectionBroker, shard_index: int) -> None:
        shard = broker.shards[shard_index]
        started = shard.now
        scrubs: List[int] = []

        def scrub() -> List[ServiceOutcome]:
            findings, outcomes = broker.scrub(shard_index)
            scrubs.append(findings)
            return outcomes

        self._guarded("scrub", scrub)
        counters = self.result.counters
        if not scrubs or not scrubs[0]:
            return
        _add(counters, "staticcheck.scrub.findings", scrubs[0])
        _add(counters, "faults.waves_with_findings", 1)
        self._guarded("scrub", scrub)
        if len(scrubs) < 2 or scrubs[1]:
            # Replay cannot always heal a corrupted set-up (a stray NI
            # slot grant refuses the replayed write): the scrub's refused
            # repairs already count as failed operations.
            _add(counters, "faults.unrepaired_waves", 1)
        else:
            self.result.repair_cycles.append(shard.now - started)

    def _link_failure(self, broker: ConnectionBroker, shard_index: int) -> None:
        topology = broker.shards[shard_index].network.topology
        edges = sorted(
            {
                tuple(sorted((a, b)))
                for a, b in topology.links()
                if a.startswith("R") and b.startswith("R")
            }
        )
        a, b = self.fault_rng.choice(edges)
        counters = self.result.counters

        def fail_link() -> List[ServiceOutcome]:
            try:
                report, outcomes = broker.handle_link_failure(shard_index, (a, b))
            finally:
                if topology.link_is_failed(a, b):
                    topology.restore_link(a, b)
            _add(counters, "core.online.link_failure.recovered", len(report.recovered))
            _add(counters, "core.online.link_failure.revoked", len(report.failed))
            return outcomes

        self._guarded("link_failure", fail_link)

    # -- the rep ------------------------------------------------------------------

    def run(self) -> RepResult:
        result = self.result
        started = time.perf_counter()
        broker = ConnectionBroker.mesh_fleet(
            config=SERVICE_CONFIG, seed=self.seed, kernel_mode=ACTIVITY_MODE
        )
        client = TenantClient(broker, self.seed)
        for shard in broker.shards:
            tenants = [t for t in TENANTS if broker.shard_for(t) is shard]
            for index in range(PREFILL):
                outcome = broker.open(client.open_ask(tenants[index % len(tenants)]))
                if not outcome.ok:
                    result.failures.append(f"prefill open refused: {outcome.reason}")
        result.setup_s = time.perf_counter() - started
        result.probe(result.setup_s)
        result.kernel_mode = broker.shards[0].network.kernel.mode
        result.alloc_engine = str(broker.shards[0].manager.allocator.engine)
        cycles_before = sum(shard.now for shard in broker.shards)
        kernel_before = _kernel_counters(
            [shard.network.kernel.kernel_stats() for shard in broker.shards]
        )
        mark = (time.perf_counter(), 0, cycles_before, 0)
        while self.calls < SERVICE_OPS:
            if self.faults and self.calls and self.calls % WAVE_EVERY == 0:
                self._wave(broker, client)
            else:
                self._call(client, client.next_call())
            if self.calls - mark[1] >= SLICE_CALLS or self.calls >= SERVICE_OPS:
                now = (
                    time.perf_counter(),
                    self.calls,
                    sum(shard.now for shard in broker.shards),
                    self.good,
                )
                result.slices.append((now[0] - mark[0], now[3] - mark[3], now[2] - mark[2]))
                result.probe(now[0] - mark[0])
                # The next slice starts after the probe.
                mark = (time.perf_counter(),) + now[1:]
        kernel_after = _kernel_counters(
            [shard.network.kernel.kernel_stats() for shard in broker.shards]
        )
        result.counters.update(_delta(kernel_after, kernel_before))
        result.counters["service.retries"] = broker.stats.retries
        result.counters["service.breaker_opens"] = sum(
            shard.breaker.stats.opened for shard in broker.shards
        )
        self._final_checks(broker)
        return result

    def _final_checks(self, broker: ConnectionBroker) -> None:
        result = self.result
        for shard in broker.shards:
            findings = verify_network_state(
                shard.network, shard.manager.live_handles, raise_on_error=False
            )
            if findings and self.faults:
                # State the fault waves broke and repair could not heal.
                result.failed += len(findings)
                _add(result.counters, "faults.residual_findings", len(findings))
            elif findings:
                result.failures.append(
                    f"{shard.region}: {len(findings)} verify_network_state findings"
                )
        if not result.latencies:
            result.failures.append("no open succeeded")


def _landed(events) -> int:
    """Injected faults that hit live state: an upset that cleared an
    occupied entry, or a corrupt that flipped a word in flight."""
    return sum(
        1
        for event in events
        if event.category == "inject"
        and (
            (event.kind == "table_upset" and "(was in" in event.detail)
            or event.kind == "config_corrupt"
        )
    )


# -- data-plane workloads ---------------------------------------------------------


def plan_flows(
    rng: random.Random,
) -> Tuple[List[Tuple[str, str]], Tuple[str, Tuple[str, ...]]]:
    """Seeded unicast pairs (distinct sources and destinations, each
    exactly FLOW_HOPS apart) and one multicast (source, destinations)."""
    host = ni_name(0, 0)
    used_src = {host}
    used_dst = set()
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < UNICAST_FLOWS:
        x, y = rng.randrange(MESH), rng.randrange(MESH)
        dx = rng.randint(0, FLOW_HOPS)
        x2 = x + rng.choice((-1, 1)) * dx
        y2 = y + rng.choice((-1, 1)) * (FLOW_HOPS - dx)
        if not (0 <= x2 < MESH and 0 <= y2 < MESH):
            continue
        src, dst = ni_name(x, y), ni_name(x2, y2)
        if src in used_src or dst in used_dst or dst == host:
            continue
        used_src.add(src)
        used_dst.add(dst)
        pairs.append((src, dst))
    free = sorted(
        name
        for name in (ni_name(x, y) for x in range(MESH) for y in range(MESH))
        if name not in used_src and name not in used_dst
    )
    mc_src = rng.choice(free)
    mc_dsts = tuple(sorted(rng.sample([n for n in free if n != mc_src], MULTICAST_DESTS)))
    return pairs, (mc_src, mc_dsts)


def aperiodic_trace(rng: random.Random, start: int, end: int) -> List[Tuple[int, int]]:
    """Seeded arrivals with random gaps (mean WORD_PERIOD) over [start, end)."""
    trace: List[Tuple[int, int]] = []
    cycle = start
    while True:
        cycle += rng.randint(*APERIODIC_GAP)
        if cycle >= end:
            return trace
        trace.append((cycle, len(trace)))


class DataplaneRep:
    """One data-plane rep: 8x8 mesh, seeded flows, one measured window."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.aperiodic = workload == "dataplane-aperiodic"
        self.window = WINDOW_CYCLES[workload]
        self.slice = SLICE_CYCLES[workload]
        self.result = RepResult()

    def _setup(self) -> Tuple[DaeliteNetwork, List[Tuple[str, CheckingSink]], Dict[str, List[int]]]:
        """Build, admit, allocate and configure.  Returns the sinks with
        the label they receive, and each label's generation cycles (by
        payload, which is the word's index)."""
        rng = random.Random(self.seed)
        pairs, (mc_src, mc_dsts) = plan_flows(rng)
        network = DaeliteNetwork(
            build_mesh(MESH, MESH), DATA_PARAMS, host_ni=ni_name(0, 0), kernel_mode=COMPILED_MODE
        )
        manager = OnlineConnectionManager(network)
        oracle = AdmissionOracle(manager.allocator)
        self.result.alloc_engine = str(manager.allocator.engine)
        sources: List[Tuple[str, str, int]] = []
        sinks: List[Tuple[str, CheckingSink]] = []
        for index, (src, dst) in enumerate(pairs):
            label = f"flow{index:02d}"
            request = ConnectionRequest(label, src, dst, forward_slots=2, reverse_slots=1)
            if not oracle.admit(request).admitted:
                self.result.failures.append(f"{label} {src}->{dst} refused admission")
                continue
            forward = manager.open_connection(request).handle.forward
            sources.append((label, src, forward.src_channel))
            sinks.append((label, self._sink(network, label, dst, forward.dst_channel)))
        request = MulticastRequest("mcast", mc_src, mc_dsts, slots=2)
        if oracle.admit(request).admitted:
            handle = manager.open_multicast(request).handle
            sources.append(("mcast", mc_src, handle.src_channel))
            for dst in mc_dsts:
                sinks.append(
                    ("mcast", self._sink(network, f"mcast.{dst}", dst, handle.dst_channels[dst]))
                )
        else:
            self.result.failures.append("multicast refused admission")
        start = network.kernel.cycle + 1
        end = start + WARMUP_CYCLES + self.window
        schedules: Dict[str, List[int]] = {}
        for label, src, channel in sources:
            inject = network.ni(src).injector(channel, label)
            if self.aperiodic:
                trace = aperiodic_trace(rng, start, end)
                schedules[label] = [cycle for cycle, _ in trace]
                generator = TraceGenerator(f"gen.{label}", inject, trace)
            else:
                schedules[label] = list(range(start, end, WORD_PERIOD))
                generator = CbrGenerator(
                    f"gen.{label}",
                    inject,
                    period=WORD_PERIOD,
                    total_words=len(schedules[label]),
                    start_cycle=start,
                )
            network.kernel.add(generator)
        for _, sink in sinks:
            network.kernel.add(sink)
        return network, sinks, schedules

    @staticmethod
    def _sink(network: DaeliteNetwork, name: str, ni: str, channel: int) -> CheckingSink:
        return CheckingSink(
            f"sink.{name}", network.ni(ni).receiver(channel), words_per_cycle=2, stats=network.stats
        )

    def run(self) -> RepResult:
        result = self.result
        started = time.perf_counter()
        network, sinks, schedules = self._setup()
        result.setup_s = time.perf_counter() - started
        result.probe(result.setup_s)
        result.kernel_mode = network.kernel.mode
        kernel = network.kernel
        # Only the measured window goes through DaeliteNetwork.run, the
        # sim.kernel entry point the traced run wraps; warm-up and the
        # post-drain settle step the kernel directly.
        kernel.step(WARMUP_CYCLES)
        kernel_before = _kernel_counters([kernel.kernel_stats()])
        gc.collect()
        received = sum(len(sink.received) for _, sink in sinks)
        for _ in range(self.window // self.slice):
            started = time.perf_counter()
            network.run(self.slice)
            elapsed = time.perf_counter() - started
            before, received = received, sum(len(sink.received) for _, sink in sinks)
            result.slices.append((elapsed, received - before, self.slice))
            result.probe(elapsed)
        result.counters.update(_delta(_kernel_counters([kernel.kernel_stats()]), kernel_before))
        network.drain(max_cycles=DRAIN_CYCLES)
        # drain() counts a multicast word delivered once its first
        # destination ejects it, and an ejected word reaches its sink a
        # cycle later: step on until every sink holds every word of its
        # flow, within the drain budget (a word still missing fails the
        # check below).
        expected = sum(len(schedules[label]) for label, _ in sinks)
        for _ in range(DRAIN_CYCLES // DATA_PARAMS.slot_table_size):
            if sum(len(sink.received) for _, sink in sinks) >= expected:
                break
            kernel.step(DATA_PARAMS.slot_table_size)
        self._check(network, sinks, schedules)
        return result

    def _check(
        self,
        network: DaeliteNetwork,
        sinks: List[Tuple[str, CheckingSink]],
        schedules: Dict[str, List[int]],
    ) -> None:
        """Every generated word reaches every sink of its label, in
        order and unflagged; latency runs from generation to receipt."""
        result = self.result
        for label, sink in sinks:
            generated = schedules[label]
            received = sink.received
            result.attempted += len(generated)
            result.failed += max(0, len(generated) - len(received)) + len(sink.findings)
            latencies = [cycle - generated[payload] for cycle, payload in received]
            result.latencies.extend(latencies)
            result.digest_lines.append(f"{sink.name} generated={len(generated)} received={len(received)}")
            result.digest_lines.extend(histogram_lines(sink.name, latencies))
            if len(received) != len(generated):
                result.failures.append(f"{sink.name}: received {len(received)} of {len(generated)}")
            if not sink.clean:
                result.failures.append(f"{sink.name}: {sink.findings[:3]}")
        dropped = network.total_dropped_words
        if dropped:
            result.failed += dropped
            result.failures.append(f"{dropped} words dropped")
        undelivered = network.stats.undelivered()
        if undelivered:
            result.failures.append(f"{len(undelivered)} words undelivered after drain")


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: Reps per pass; rep ``r`` of a pass runs sub-seed ``seed * 1000 + r``.
    reps: int
    #: Passes always run (each repeats the same sub-seeds; their digests
    #: must agree); more run while the time budget lasts.
    min_passes: int
    rep: Callable[[int, object], RepResult]
    #: Declared in BENCHMARK.json and run by ``--workload all``.
    declared: bool = True


def _service(faults: bool, config_corrupts: bool = False) -> Callable[[int, object], RepResult]:
    return lambda seed, recorder: ServiceRep(seed, faults, recorder, config_corrupts).run()


def _dataplane(name: str) -> Callable[[int, object], RepResult]:
    return lambda seed, recorder: DataplaneRep(name, seed).run()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("service-churn", SERVICE_REPS, 2, _service(False)),
        Workload("service-faults", SERVICE_REPS, 2, _service(True)),
        Workload("dataplane-periodic", 1, 3, _dataplane("dataplane-periodic")),
        Workload("dataplane-aperiodic", 1, 3, _dataplane("dataplane-aperiodic")),
        Workload(
            "service-config-faults", SERVICE_REPS, 2, _service(True, True), declared=False
        ),
    )
}


def trace_targets() -> List[Target]:
    """The public entry points wrapped by the traced run, per layer."""

    def cycle_of(network: DaeliteNetwork) -> int:
        return network.kernel.cycle

    targets = [
        Target(ConnectionBroker, attr, f"service.{attr}", "service")
        for attr in ("open", "renew", "release", "repair", "sweep_expired", "scrub")
    ]
    targets += [
        Target(ConnectionBroker, "handle_link_failure", "service.link_failure", "service"),
        Target(
            AdmissionOracle, "admit", "analysis.admit", "analysis",
            verdict=lambda verdict: verdict.admitted,
        ),
        Target(SlotAllocator, "allocate_connection", "alloc.allocate", "alloc"),
        Target(SlotAllocator, "allocate_multicast", "alloc.allocate", "alloc"),
        Target(SlotAllocator, "release_connection", "alloc.release", "alloc"),
        Target(SlotAllocator, "release_multicast", "alloc.release", "alloc"),
    ]
    targets += [
        Target(OnlineConnectionManager, attr, f"core.online.{attr}", "core.online")
        for attr in ("open_connection", "open_multicast", "close_connection", "repair_connection")
    ]
    targets += [
        Target(
            OnlineConnectionManager, "handle_link_failure", "core.online.link_failure",
            "core.online",
        ),
        Target(DaeliteNetwork, "run_until_configured", "core.config", "core.config", clock=cycle_of),
        Target(DaeliteNetwork, "run", "sim.kernel", "sim.kernel", clock=cycle_of),
        Target(broker_module, "verify_network_state", "staticcheck.scrub", "staticcheck"),
        Target(FaultInjector, "arm", "faults.arm", "faults"),
        Target(FaultInjector, "disarm", "faults.disarm", "faults"),
    ]
    return targets
