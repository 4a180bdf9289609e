"""Small measurement helpers: percentiles, digests, memory, host speed.

Percentiles use the nearest-rank rule on sorted samples, so every
reported value is a sample that was actually measured.  A tail
percentile is refused unless at least ``min_beyond`` samples lie above
it: a p99 of 200 samples would rest on two observations.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from typing import Iterable, List, Sequence, Tuple


class TooFewSamples(ValueError):
    """A tail percentile has fewer than the required samples beyond it."""


def nearest_rank(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-quantile by nearest rank, and its 1-based rank.

    Raises:
        ValueError: for an empty sample or ``q`` outside (0, 1].
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], rank


def tail_percentile(
    samples: Sequence[float], q: float = 0.99, min_beyond: int = 10
) -> Tuple[float, int]:
    """The ``q``-quantile and the sample count it rests on.

    Raises:
        TooFewSamples: if fewer than ``min_beyond`` samples lie beyond
            the quantile's rank.
    """
    value, rank = nearest_rank(samples, q)
    beyond = len(samples) - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {len(samples)} samples has {beyond} beyond "
            f"it; need {min_beyond} (>= {math.ceil(min_beyond / (1 - q))} "
            f"samples)"
        )
    return value, len(samples)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def digest(lines: Iterable[str]) -> str:
    """A short stable hash of a sequence of result lines."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def histogram_lines(label: str, values: Iterable[int]) -> List[str]:
    """``label value count`` lines of an integer histogram, sorted."""
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return [f"{label} {value} {counts[value]}" for value in sorted(counts)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Iterations of one reference probe, and the probe's host time on the
#: reference host that normalised host times are expressed in: about
#: its time on a 2-CPU Xeon VM (Python 3.11) running at full speed.
REFERENCE_ITERATIONS = 13_000
REFERENCE_S = 0.0025
#: Share of a timed stretch spent probing the host right after it.
PROBE_SHARE = 0.05


def reference_probe() -> float:
    """Host seconds for a fixed piece of interpreter work (integer
    arithmetic, list indexing, dict stores of fresh tuples), with the
    collector off so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        values = list(range(256))
        pairs: dict = {}
        for index in range(REFERENCE_ITERATIONS):
            acc = (acc * 31 + values[index & 255] + index) & 0xFFFF
            values[index & 255] = acc
            pairs[index & 4095] = (index, acc)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe_host(timed_s: float) -> Tuple[float, int]:
    """Run reference probes filling ``PROBE_SHARE`` of ``timed_s`` (at
    least one) and return their total host seconds and their count.

    Called right after every timed stretch, the probes sample a run
    evenly in time, so :func:`host_slowness` over all of them is the
    run's mean slowness.
    """
    count = max(1, round(PROBE_SHARE * timed_s / REFERENCE_S))
    return sum(reference_probe() for _ in range(count)), count


def host_slowness(probe_s: float, probes: int) -> float:
    """How much slower the host ran than the reference host: mean probe
    time over ``REFERENCE_S``.  The host's speed drifts by tens of
    percent over minutes when other tenants share it; a host time
    divided by the slowness of its run reads alike on a fast or a slow
    host."""
    return probe_s / (probes * REFERENCE_S)
