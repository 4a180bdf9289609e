"""Service knob resolution: typed refusals, never silent truncation.

Every operational knob of the connection service can come from three
places, in priority order: a programmatic argument, an environment
variable, or the built-in default.  The resolution contract is the
one the compiled kernel's lowering-cache knob follows (DESIGN.md §10):

* **Programmatic** values are the caller's code — a bad one is a bug,
  so it raises :class:`~repro.errors.ServiceConfigError` immediately.
* **Environment** values are operator input — a malformed or
  out-of-range one must never take the service down, so it degrades to
  the default and a typed ``unsupported_params`` refusal is recorded
  (surfaced through :class:`~repro.service.broker.ServiceStats`).

All knobs are integers in *cycles* (the simulated clock is the only
clock the service knows) and go through :func:`operator.index`, so a
float that ``int()`` would silently truncate is refused instead.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field, fields
from typing import List, Mapping, Optional, Tuple

from ..errors import ServiceConfigError

SERVICE_SHARDS_ENV = "REPRO_SERVICE_SHARDS"
SERVICE_TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT_CYCLES"
SERVICE_RETRIES_ENV = "REPRO_SERVICE_RETRIES"
SERVICE_BACKOFF_BASE_ENV = "REPRO_SERVICE_BACKOFF_BASE"
SERVICE_BACKOFF_CAP_ENV = "REPRO_SERVICE_BACKOFF_CAP"
SERVICE_JITTER_ENV = "REPRO_SERVICE_JITTER"
SERVICE_LEASE_ENV = "REPRO_SERVICE_LEASE_CYCLES"
SERVICE_BREAKER_THRESHOLD_ENV = "REPRO_SERVICE_BREAKER_THRESHOLD"
SERVICE_BREAKER_COOLDOWN_ENV = "REPRO_SERVICE_BREAKER_COOLDOWN"

#: (field name, env var, default, lo, hi) for every resolvable knob.
_KNOBS: Tuple[Tuple[str, str, int, int, int], ...] = (
    ("shards", SERVICE_SHARDS_ENV, 1, 1, 64),
    ("timeout_cycles", SERVICE_TIMEOUT_ENV, 50_000, 1_000, 10_000_000),
    ("max_retries", SERVICE_RETRIES_ENV, 3, 0, 16),
    ("backoff_base_cycles", SERVICE_BACKOFF_BASE_ENV, 64, 1, 1_000_000),
    ("backoff_cap_cycles", SERVICE_BACKOFF_CAP_ENV, 4_096, 1, 10_000_000),
    ("jitter_cycles", SERVICE_JITTER_ENV, 16, 0, 100_000),
    ("lease_cycles", SERVICE_LEASE_ENV, 40_000, 100, 1_000_000_000),
    ("breaker_threshold", SERVICE_BREAKER_THRESHOLD_ENV, 4, 1, 1_024),
    (
        "breaker_cooldown_cycles",
        SERVICE_BREAKER_COOLDOWN_ENV,
        10_000,
        1,
        1_000_000_000,
    ),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Resolved, validated operating parameters of the service.

    Attributes:
        shards: Independent mesh regions (allocator shards).
        timeout_cycles: Per-operation simulation budget.
        max_retries: Transient-failure retries per operation.
        backoff_base_cycles: First retry delay (doubles per attempt).
        backoff_cap_cycles: Ceiling on any single backoff delay.
        jitter_cycles: Seeded uniform jitter added to each delay.
        lease_cycles: Default lease duration for admitted connections.
        breaker_threshold: Consecutive failures that open a region's
            circuit breaker.
        breaker_cooldown_cycles: Open time before a half-open probe.
        refusals: Typed ``unsupported_params`` records for every
            environment knob that degraded to its default.
    """

    shards: int = 1
    timeout_cycles: int = 50_000
    max_retries: int = 3
    backoff_base_cycles: int = 64
    backoff_cap_cycles: int = 4_096
    jitter_cycles: int = 16
    lease_cycles: int = 40_000
    breaker_threshold: int = 4
    breaker_cooldown_cycles: int = 10_000
    refusals: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name, _env, _default, lo, hi in _KNOBS:
            value = getattr(self, name)
            try:
                indexed = operator.index(value)
            except TypeError as exc:
                raise ServiceConfigError(
                    f"service knob {name}={value!r} is not an integer"
                ) from exc
            if indexed != value:
                object.__setattr__(self, name, indexed)
            if not lo <= indexed <= hi:
                raise ServiceConfigError(
                    f"service knob {name}={indexed} outside [{lo}, {hi}]"
                )
        if self.backoff_cap_cycles < self.backoff_base_cycles:
            raise ServiceConfigError(
                f"backoff cap {self.backoff_cap_cycles} below base "
                f"{self.backoff_base_cycles}"
            )


def resolve_service_config(
    env: Optional[Mapping[str, str]] = None,
    **overrides: int,
) -> ServiceConfig:
    """Build a :class:`ServiceConfig` from overrides, then environment.

    Keyword overrides are programmatic and therefore strict: a
    malformed or out-of-range one raises
    :class:`~repro.errors.ServiceConfigError` (via the dataclass
    validator).  Environment values degrade: each failure to parse or
    range-check becomes one ``unsupported_params`` refusal string in
    :attr:`ServiceConfig.refusals` and the default is used, so a typo
    in one knob never takes the whole service down.

    Raises:
        ServiceConfigError: for an unknown or malformed *override*.
    """
    known = {f.name for f in fields(ServiceConfig)} - {"refusals"}
    for name in overrides:
        if name not in known:
            raise ServiceConfigError(
                f"unknown service knob {name!r}"
            )
    source = os.environ if env is None else env
    refusals: List[str] = []
    resolved: dict[str, int] = dict(overrides)
    for name, env_name, default, lo, hi in _KNOBS:
        if name in resolved:
            continue
        raw = source.get(env_name, "").strip()
        if not raw:
            continue
        try:
            value = int(raw)
        except ValueError:
            refusals.append(
                f"unsupported_params: {env_name}={raw!r} is not an "
                f"integer; using default {default}"
            )
            continue
        if not lo <= value <= hi:
            refusals.append(
                f"unsupported_params: {env_name}={value} outside "
                f"[{lo}, {hi}]; using default {default}"
            )
            continue
        resolved[name] = value
    if (
        "backoff_cap_cycles" in resolved
        and "backoff_cap_cycles" not in overrides
    ):
        base = resolved.get(
            "backoff_base_cycles", ServiceConfig.backoff_base_cycles
        )
        if resolved["backoff_cap_cycles"] < base:
            refusals.append(
                "unsupported_params: "
                f"{SERVICE_BACKOFF_CAP_ENV}="
                f"{resolved['backoff_cap_cycles']} below backoff base "
                f"{base}; using default "
                f"{ServiceConfig.backoff_cap_cycles}"
            )
            del resolved["backoff_cap_cycles"]
    return ServiceConfig(refusals=tuple(refusals), **resolved)
