"""End-to-end statistics collection.

The statistics collector is fed by the network interfaces: injection events
when a word is driven onto the source link, ejection events when the word is
deposited into the destination channel queue.  From those it derives the
latency distribution and delivered bandwidth per connection — the quantities
behind the paper's latency (33 % reduction) and bandwidth (header overhead,
config-slot loss) claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SimulationError, StatsIntegrityError
from .flit import Word


#: FaultEvent.category for a fault being *applied* by an injector.
FAULT_INJECTED = "inject"
#: FaultEvent.category for a fault being *observed* by a detector.
FAULT_DETECTED = "detect"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected or detected fault, as recorded by the collector.

    Events are totally ordered by recording order, which is
    deterministic for a fixed seed and fault plan regardless of the
    kernel mode (see DESIGN.md §9); :meth:`format` renders a stable
    one-line representation so whole logs can be compared bytewise.

    Attributes:
        cycle: Simulation cycle at which the fault fired / was seen.
        category: ``"inject"`` or ``"detect"``.
        kind: Fault kind tag (``"bitflip"``, ``"link_down"``,
            ``"stuck_at"``, ``"table_upset"``, ``"cfg_word_drop"``,
            ``"cfg_word_corrupt"``, ``"parity_error"``,
            ``"sequence_gap"``, ``"protocol_error"``,
            ``"config_timeout"``, ``"config_retry"``,
            ``"config_failed"``, ``"readback_mismatch"``, ...).
        site: Element or link name where it happened.
        detail: Free-form (but deterministic) description.
    """

    cycle: int
    category: str
    kind: str
    site: str
    detail: str = ""

    def format(self) -> str:
        """Stable single-line rendering for bytewise log comparison."""
        return (
            f"[{self.cycle:>8}] {self.category:<6} {self.kind:<16} "
            f"{self.site:<24} {self.detail}"
        ).rstrip()


@dataclass(slots=True)
class WordRecord:
    """Lifecycle of a single word, keyed by (connection, sequence)."""

    connection: str
    sequence: int
    injected_at: int
    ejected_at: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        """Injection-to-ejection latency in cycles, if delivered."""
        if self.ejected_at is None:
            return None
        return self.ejected_at - self.injected_at


@dataclass(slots=True)
class ConnectionStats:
    """Aggregated per-connection statistics."""

    connection: str
    injected: int = 0
    ejected: int = 0
    latencies: List[int] = field(default_factory=list)

    @property
    def in_flight(self) -> int:
        """Words injected but not yet delivered."""
        return self.injected - self.ejected

    @property
    def min_latency(self) -> Optional[int]:
        return min(self.latencies) if self.latencies else None

    @property
    def max_latency(self) -> Optional[int]:
        return max(self.latencies) if self.latencies else None

    @property
    def mean_latency(self) -> Optional[float]:
        if not self.latencies:
            return None
        return sum(self.latencies) / len(self.latencies)


class StatsCollector:
    """Records injection/ejection of every word and checks delivery order.

    The collector enforces two invariants of a correctly configured TDM
    network: words of a connection arrive *in order* and *exactly once*.
    Multicast connections deliver each word once per destination, so
    ejections are tracked per (connection, destination).
    """

    def __init__(self) -> None:
        self.connections: Dict[str, ConnectionStats] = {}
        self._records: Dict[tuple, WordRecord] = {}
        self._last_ejected: Dict[tuple, int] = {}
        #: Injected and detected faults, in recording order.
        self.faults: List[FaultEvent] = []

    # -- fault events ---------------------------------------------------------

    def record_fault(
        self,
        cycle: int,
        category: str,
        kind: str,
        site: str,
        detail: str = "",
    ) -> FaultEvent:
        """Append one :class:`FaultEvent` and return it."""
        event = FaultEvent(
            cycle=cycle,
            category=category,
            kind=kind,
            site=site,
            detail=detail,
        )
        self.faults.append(event)
        return event

    def fault_log(self) -> str:
        """All fault events, one stable line each (bytewise comparable)."""
        return "\n".join(event.format() for event in self.faults)

    def fault_counts(self) -> Dict[str, int]:
        """Events per kind — the quick chaos-run scoreboard."""
        counts: Dict[str, int] = {}
        for event in self.faults:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def _stats_for(self, connection: str) -> ConnectionStats:
        if connection not in self.connections:
            self.connections[connection] = ConnectionStats(connection)
        return self.connections[connection]

    def record_injection(self, word: Word, cycle: int) -> None:
        """Note that ``word`` was driven onto its source link at ``cycle``."""
        key = (word.connection, word.sequence)
        if key in self._records:
            raise StatsIntegrityError(
                f"word {key} injected twice (cycles "
                f"{self._records[key].injected_at} and {cycle})"
            )
        self._records[key] = WordRecord(
            connection=word.connection,
            sequence=word.sequence,
            injected_at=cycle,
        )
        self._stats_for(word.connection).injected += 1

    def record_ejection(
        self, word: Word, cycle: int, destination: str = ""
    ) -> None:
        """Note delivery of ``word`` at ``destination`` at ``cycle``.

        Raises:
            StatsIntegrityError: on duplicate, unknown, or out-of-order
                delivery — all impossible in a contention-free schedule.
                The collector state is not modified when this is raised,
                so a misdelivered word can never masquerade as (or
                overwrite) a legitimate record.
        """
        key = (word.connection, word.sequence)
        record = self._records.get(key)
        if record is None:
            known = sorted(self.connections)
            raise StatsIntegrityError(
                f"word {key} ejected at {destination!r} at cycle {cycle} "
                f"but was never injected — a misrouted or fabricated "
                f"word (known connections: {known})"
            )
        flow = (word.connection, destination)
        last = self._last_ejected.get(flow)
        if last is not None and word.sequence <= last:
            raise StatsIntegrityError(
                f"out-of-order delivery on {flow}: sequence {word.sequence} "
                f"after {last}"
            )
        # A *gap* (unlike a duplicate or reorder) is how a dropped word
        # manifests at the destination: record it as a detected fault
        # rather than raising, so lossy fault campaigns keep running.
        expected = 0 if last is None else last + 1
        if word.sequence > expected:
            self.record_fault(
                cycle,
                FAULT_DETECTED,
                "sequence_gap",
                destination or word.connection,
                f"{word.connection}: expected seq {expected}, "
                f"got {word.sequence}",
            )
        self._last_ejected[flow] = word.sequence
        if record.ejected_at is None:
            record.ejected_at = cycle
        stats = self._stats_for(word.connection)
        stats.ejected += 1
        stats.latencies.append(cycle - record.injected_at)

    # -- queries --------------------------------------------------------------

    def latency(self, connection: str, sequence: int) -> Optional[int]:
        """Latency of one specific word, or ``None`` if undelivered."""
        record = self._records.get((connection, sequence))
        return record.latency if record else None

    def delivered_words(self, connection: str) -> int:
        """Total delivery events for a connection (per destination)."""
        stats = self.connections.get(connection)
        return stats.ejected if stats else 0

    def injected_words(self, connection: str) -> int:
        stats = self.connections.get(connection)
        return stats.injected if stats else 0

    def undelivered(self) -> List[tuple]:
        """Keys of words still in flight (should drain to empty)."""
        return [
            key
            for key, record in self._records.items()
            if record.ejected_at is None
        ]

    def throughput_words_per_cycle(
        self, connection: str, cycles: int
    ) -> float:
        """Delivered words per cycle over an observation window."""
        if cycles <= 0:
            raise SimulationError("observation window must be positive")
        return self.delivered_words(connection) / cycles
