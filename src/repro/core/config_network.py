"""The host's configuration module — root of the broadcast tree.

"One IP, by convention called host, has exclusive control over the
configuration infrastructure through a configuration module."  The host
writes wide words to the module "using normal write operations"; the
module serializes them into 7-bit configuration words, one per cycle, onto
the root configuration link.  After every complete packet the module
enforces a cool-down period "during which no new configuration packets are
accepted", giving all elements time to commit their slot-table updates.

The module is also the termination of the response path, collecting the
words produced by CHANNEL_READ packets.  Only one request may be active at
a time; further requests queue inside the module.

Express delivery: the tree is a fixed broadcast tree moving one word per
cycle, so the cycle in which every element commits a write packet is a
closed form (:func:`~repro.topology.gap_cycle`).  When the module
activates a packet that expects no responses it offers it to its
:attr:`ConfigModule.express` handler (the network's), which
decodes it with the addressed elements' own decoders and schedules the
actions at their gap cycles; the module then keeps the exact stepped
timeline without driving a word.  Every other case steps the words
through the tree and counts a typed :class:`ExpressRefusal`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from ..errors import ConfigTimeoutError, ConfigurationError
from ..params import NetworkParameters
from ..sim.kernel import Component
from ..sim.link import NarrowLink
from ..sim.stats import FAULT_DETECTED, StatsCollector
from ..topology import ConfigTree, finish_cycle
from .config_protocol import ConfigPacket, Opcode


class ExpressRefusal:
    """Why a config packet is stepped through the tree, not expressed.

    ``kind`` is a stable tag counted in
    ``Kernel.kernel_stats()["config_express_refusals"]``.
    """

    __slots__ = ("kind",)

    #: The naive kernel is the reference semantics: always stepped.
    NAIVE_MODE = "naive_mode"
    #: A fault hook on a config link must see every word it targets.
    FAULT_HOOKS_ARMED = "fault_hooks_armed"
    #: CHANNEL_READ: the response travels the stepped reverse tree.
    EXPECTS_RESPONSES = "expects_responses"
    #: Some decoder is mid-packet, so the tree is not quiet.
    DECODER_BUSY = "decoder_busy"
    #: The packet is malformed; stepping reproduces where and when the
    #: elements notice.
    DECODE_ERROR = "decode_error"

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:
        return f"ExpressRefusal({self.kind!r})"


#: Express handler: schedules ``packet`` as if its first word left the
#: module at ``start``, or refuses (and schedules nothing).
ExpressHandler = Callable[[ConfigPacket, int], Optional[ExpressRefusal]]


@dataclass
class ConfigRequest:
    """A packet submitted to the configuration module, with its timeline.

    Attributes:
        packet: The serialized configuration packet.
        expected_responses: Response words to wait for (CHANNEL_READ).
        submitted_at: Cycle the host handed the packet to the module.
        started_at: Cycle the first word left the module.
        finished_at: Cycle the request fully completed (cool-down elapsed
            and, for reads, all responses received) — or was abandoned
            after exhausting its retries (see :attr:`failed`).
        responses: Response words received, in order.
        timeout_cycles: Cycles to wait, after the last word leaves the
            module, for the expected responses before re-sending.
            ``None`` (the default) waits forever — the correct setting
            for a fault-free network, where a missing response is a
            model bug, not an operational condition.
        max_retries: Re-sends allowed after the first transmission.
            Re-sending is idempotent: configuration writes set absolute
            register/table values, so applying a packet twice equals
            applying it once.
        attempts: Transmissions so far (1 = the original send).
        failed: True once every retry timed out; the request is then
            finished (so waiters unblock) but unsuccessful.
    """

    packet: ConfigPacket
    expected_responses: int = 0
    submitted_at: int = -1
    started_at: int = -1
    finished_at: int = -1
    responses: List[int] = field(default_factory=list)
    on_complete: Optional[Callable[["ConfigRequest"], None]] = None
    timeout_cycles: Optional[int] = None
    max_retries: int = 0
    attempts: int = 1
    failed: bool = False

    @property
    def done(self) -> bool:
        return self.finished_at >= 0

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.ConfigTimeoutError` if abandoned."""
        if self.failed:
            raise ConfigTimeoutError(
                f"request {self.packet.description!r} abandoned after "
                f"{self.attempts} attempts "
                f"(timeout {self.timeout_cycles} cycles)"
            )

    @property
    def setup_cycles(self) -> int:
        """Cycles from submission to completion.

        Raises:
            ConfigurationError: if the request has not completed.
        """
        if not self.done:
            raise ConfigurationError("request not complete yet")
        return self.finished_at - self.submitted_at


class ConfigModule(Component):
    """Serializer / response collector at the root of the config tree.

    Attributes:
        root_link: Narrow link feeding the root element of the tree.
        response_link: Narrow link on which responses arrive.
        word_queue: Words of the packet currently being transmitted.
    """

    def __init__(
        self,
        name: str,
        params: NetworkParameters,
        tree: ConfigTree,
        express: ExpressHandler,
    ) -> None:
        super().__init__(name)
        self.params = params
        self.tree = tree
        #: Express delivery handler (the network's); see the module
        #: docstring.
        self.express = express
        self.root_link: Optional[NarrowLink] = None
        self.response_link: Optional[NarrowLink] = None
        self._pending: Deque[ConfigRequest] = deque()
        self._active: Optional[ConfigRequest] = None
        self._word_queue: Deque[int] = deque()
        self._busy_until = 0
        self._deadline: Optional[int] = None
        self.completed: List[ConfigRequest] = []
        #: Optional stats collector (set by the network builder);
        #: timeouts and retries are recorded there as detected faults.
        self.stats: Optional[StatsCollector] = None
        #: Default timeout/retry budget applied by :meth:`submit` when
        #: the caller does not specify one (set by the fault injector).
        self.default_timeout_cycles: Optional[int] = None
        self.default_max_retries: int = 0
        self._active_express = False

    # -- host-facing API -------------------------------------------------------

    def submit(
        self,
        packet: ConfigPacket,
        cycle: int,
        expected_responses: Optional[int] = None,
        on_complete: Optional[Callable[[ConfigRequest], None]] = None,
        timeout_cycles: Optional[int] = None,
        max_retries: Optional[int] = None,
    ) -> ConfigRequest:
        """Queue a configuration packet for transmission.

        ``expected_responses`` defaults to 1 for CHANNEL_READ packets and
        0 otherwise.  ``timeout_cycles``/``max_retries`` default to the
        module-wide :attr:`default_timeout_cycles` /
        :attr:`default_max_retries` budget.
        """
        if expected_responses is None:
            expected_responses = (
                1 if packet.opcode is Opcode.CHANNEL_READ else 0
            )
        request = ConfigRequest(
            packet=packet,
            expected_responses=expected_responses,
            submitted_at=cycle,
            on_complete=on_complete,
            timeout_cycles=(
                timeout_cycles
                if timeout_cycles is not None
                else self.default_timeout_cycles
            ),
            max_retries=(
                max_retries
                if max_retries is not None
                else self.default_max_retries
            ),
        )
        self._pending.append(request)
        return request

    @property
    def busy(self) -> bool:
        """True while a request is being transmitted or cooling down."""
        return self._active is not None or bool(self._pending)

    @property
    def express_in_flight(self) -> bool:
        """True while the active request was expressed: its words never
        cross the config links, so nothing there can be faulted."""
        return self._active is not None and self._active_express

    # -- cycle behaviour ---------------------------------------------------------

    def external_inputs(self):
        """The response link, read while a request is active."""
        if self.response_link is not None:
            return (self.response_link.register,)
        return ()

    def next_evaluation(self, cycle: int) -> Optional[int]:
        """Streaming words happens every cycle; between the last word and
        the cool-down deadline (or the next pending activation) the
        module sleeps, except that awaited responses keep it polling."""
        if self._active is not None:
            if self._word_queue:
                return cycle
            if len(self._active.responses) < self._active.expected_responses:
                return cycle
            return max(cycle, self._busy_until)
        if self._pending:
            return max(cycle, self._busy_until)
        return None

    def evaluate(self, cycle: int) -> None:
        self._collect_response(cycle)
        if self._active is None and self._pending and (
            cycle >= self._busy_until
        ):
            self._active = self._pending.popleft()
            self._active.started_at = cycle
            if self._try_express(cycle):
                return
            self._word_queue.extend(self._active.packet.words)
        if self._active is None:
            return
        if self._word_queue:
            word = self._word_queue.popleft()
            if self.root_link is not None:
                self.root_link.send(word)
            if not self._word_queue:
                # Last word sent: the gap follows next cycle.
                self._arm_deadlines(
                    cycle + 1 - len(self._active.packet.words)
                )
            return
        # Transmission finished; wait for cool-down and responses.
        responses_done = (
            len(self._active.responses) >= self._active.expected_responses
        )
        if not responses_done and self._timed_out(cycle):
            return
        if cycle >= self._busy_until and responses_done:
            self._finish(cycle)

    def _try_express(self, cycle: int) -> bool:
        """Offer the just-activated request to the express handler.

        On success the module's deadlines are set exactly as if the last
        word had just left, and no word is driven.
        """
        request = self._active
        assert request is not None
        refusal: Optional[ExpressRefusal]
        if request.expected_responses:
            refusal = ExpressRefusal(ExpressRefusal.EXPECTS_RESPONSES)
        else:
            refusal = self.express(request.packet, cycle)
        if self._kernel is not None:
            self._kernel.note_config_packet(
                None if refusal is None else refusal.kind
            )
        self._active_express = refusal is None
        if refusal is not None:
            return False
        self._arm_deadlines(cycle)
        return True

    def _arm_deadlines(self, start: int) -> None:
        """Set the cool-down and response deadlines of the active
        request, whose words leave (or would leave) from ``start`` on.

        Cool-down starts after the whole tree has seen the gap.
        """
        request = self._active
        assert request is not None
        words = len(request.packet.words)
        self._busy_until = finish_cycle(
            start, words, self.tree.max_depth, self.params.cooldown_cycles
        )
        self._deadline = (
            start + words + request.timeout_cycles
            if request.timeout_cycles is not None
            else None
        )

    def _timed_out(self, cycle: int) -> bool:
        """Handle a response deadline; True if a retry was scheduled or
        the request was abandoned this cycle."""
        request = self._active
        assert request is not None
        if self._deadline is None or cycle < self._deadline:
            return False
        if self.stats is not None:
            self.stats.record_fault(
                cycle,
                FAULT_DETECTED,
                "config_timeout",
                self.name,
                f"attempt {request.attempts}: "
                f"{request.packet.description}",
            )
        if request.attempts <= request.max_retries:
            request.attempts += 1
            # Idempotent re-send: replay the identical word stream.  Any
            # partial responses of the failed attempt are discarded so
            # the retry's own response is the one collected.
            request.responses.clear()
            self._word_queue.extend(request.packet.words)
            self._deadline = None
            if self.stats is not None:
                self.stats.record_fault(
                    cycle,
                    FAULT_DETECTED,
                    "config_retry",
                    self.name,
                    f"attempt {request.attempts}: "
                    f"{request.packet.description}",
                )
            return True
        request.failed = True
        if self.stats is not None:
            self.stats.record_fault(
                cycle,
                FAULT_DETECTED,
                "config_failed",
                self.name,
                f"after {request.attempts} attempts: "
                f"{request.packet.description}",
            )
        self._finish(cycle)
        return True

    def _collect_response(self, cycle: int) -> None:
        if self.response_link is None or self._active is None:
            return
        word = self.response_link.incoming
        if word is None:
            return
        if len(self._active.responses) >= self._active.expected_responses:
            if self._active.attempts > 1:
                # A late response from a timed-out attempt arriving on
                # top of the retry's own: drop it (the values are equal
                # — reads are idempotent too).
                if self.stats is not None:
                    self.stats.record_fault(
                        cycle,
                        FAULT_DETECTED,
                        "stale_response",
                        self.name,
                        f"word {word:#x} discarded",
                    )
                return
            raise ConfigurationError(
                f"{self.name}: unexpected response word {word:#x}"
            )
        self._active.responses.append(word)

    def _finish(self, cycle: int) -> None:
        assert self._active is not None
        self._active.finished_at = cycle
        self._deadline = None
        self.completed.append(self._active)
        if self._active.on_complete is not None:
            self._active.on_complete(self._active)
        self._active = None
