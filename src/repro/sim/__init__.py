"""Cycle-driven simulation substrate (kernel, links, flits, stats, trace)."""

from .flit import IDLE_PHIT, Phit, Word
from .kernel import (
    ACTIVITY_MODE,
    COMPILED_MODE,
    KERNEL_MODE_ENV,
    NAIVE_MODE,
    Component,
    Kernel,
    Register,
    default_kernel_mode,
)
from .link import Link, NarrowLink
from .stats import ConnectionStats, StatsCollector, WordRecord
from .trace import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "IDLE_PHIT",
    "Phit",
    "Word",
    "ACTIVITY_MODE",
    "COMPILED_MODE",
    "KERNEL_MODE_ENV",
    "NAIVE_MODE",
    "Component",
    "Kernel",
    "Register",
    "default_kernel_mode",
    "Link",
    "NarrowLink",
    "ConnectionStats",
    "StatsCollector",
    "WordRecord",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
]
