"""Wall-clock spans around the program's public entry points.

The traced run patches a fixed list of public methods (one or more per
layer) with wrappers that record a :class:`Span` each call, restores
them afterwards, and derives per-layer busy and self time:

* a span's **self time** is its duration minus the durations of its
  direct children (single-threaded calls nest, so children never
  overlap);
* a layer's **busy time** sums the spans of that layer that have no
  ancestor in the same layer, so re-entrant calls are counted once.

Nothing here is imported by the program; wall clock stays out of the
deterministic core.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span (-1: none)."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    op: int
    cycles: int = 0
    accepted: Optional[bool] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A public callable to wrap: ``getattr(owner, attr)``.

    Attributes:
        clock: Maps the call's first argument to a cycle count; the
            span records the delta across the call.
        verdict: Maps the return value to an accept/refuse flag.
    """

    owner: Any
    attr: str
    name: str
    layer: str
    clock: Optional[Callable[[Any], int]] = None
    verdict: Optional[Callable[[Any], bool]] = None


class SpanRecorder:
    """In-memory span log; ``op`` tags spans with the client call id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []

    def wrap(self, target: Target, function: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = Span(target.name, target.layer, 0.0, 0.0, parent, recorder.op)
            recorder.spans.append(span)
            recorder._stack.append(index)
            before = target.clock(args[0]) if target.clock else 0
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
                if target.clock:
                    span.cycles = target.clock(args[0]) - before
            if target.verdict is not None:
                span.accepted = target.verdict(result)
            return result

        return traced

    def self_times(self) -> List[float]:
        """Self time of every span, by index."""
        result = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                result[span.parent] -= span.duration
        return result

    def layer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``busy_s``, ``self_s``, ``calls``, ``cycles``,
        ``accepted`` (spans with a true verdict)."""
        selfs = self.self_times()
        summary: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = summary.setdefault(
                span.layer,
                {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "cycles": 0, "accepted": 0},
            )
            entry["self_s"] += selfs[index]
            entry["calls"] += 1
            entry["cycles"] += span.cycles
            entry["accepted"] += int(bool(span.accepted))
            if not self._has_ancestor_in(span, span.layer):
                entry["busy_s"] += span.duration
        return summary

    def name_busy(self, name: str) -> float:
        """Busy time of the spans called ``name`` (outermost only)."""
        return sum(
            span.duration
            for span in self.spans
            if span.name == name and not self._has_ancestor_named(span, name)
        )

    def _ancestors(self, span: Span) -> Iterator[Span]:
        parent = span.parent
        while parent >= 0:
            ancestor = self.spans[parent]
            yield ancestor
            parent = ancestor.parent

    def _has_ancestor_in(self, span: Span, layer: str) -> bool:
        return any(a.layer == layer for a in self._ancestors(span))

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        return any(a.name == name for a in self._ancestors(span))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "layer": span.layer,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                            "cycles": span.cycles,
                        }
                    )
                    + "\n"
                )


@contextmanager
def patched(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore."""
    originals = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            originals.append((target, original))
            setattr(target.owner, target.attr, recorder.wrap(target, original))
        yield recorder
    finally:
        for target, original in reversed(originals):
            setattr(target.owner, target.attr, original)
