"""Shared builders for the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.alloc import ConnectionRequest, SlotAllocator
from repro.core import DaeliteNetwork
from repro.params import NetworkParameters, daelite_parameters
from repro.sim.kernel import (
    KERNEL_MODE_ENV,
    NAIVE_MODE,
    default_kernel_mode,
)
from repro.topology import Topology, build_mesh

#: pytest option disabling the activity-driven fast path for a run.
NO_FAST_PATH_OPTION = "--no-fast-path"

#: Where machine-readable benchmark results land (repo root), so CI and
#: scripts can pick them up with a stable name, independent of cwd.
BENCH_RESULT_DIR = Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    """Stdout of one git command in the repo, or ``None`` on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=BENCH_RESULT_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_sha() -> Tuple[Optional[str], Optional[bool]]:
    """Commit the numbers were taken at and whether the working tree
    differed from it (``git status --porcelain`` non-empty); ``None``
    for either outside a repo."""
    sha = (_git("rev-parse", "HEAD") or "").strip() or None
    status = _git("status", "--porcelain")
    return sha, None if status is None else bool(status.strip())


def _cpu_model() -> str:
    """Human-readable CPU model, best effort across platforms."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def write_bench_json(
    name: str, payload: dict, kernel_mode: Optional[object] = None
) -> Path:
    """Write a benchmark result to ``BENCH_<name>.json`` in the repo
    root and return the path.

    The payload is augmented with full provenance — interpreter,
    platform, CPU model, git commit and dirty flag, UTC timestamp, and
    the kernel mode actually measured — so results from different machines, commits, or
    kernel configurations are never compared blindly.

    ``kernel_mode`` should name the mode(s) the numbers were taken
    under: a string for a single-mode bench, or a list/dict for a bench
    that timed several modes in one run.  When omitted, the
    process-global default is recorded (correct only for benches that
    never override the mode per network).
    """
    sha, dirty = _git_sha()
    record = {
        "benchmark": name,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "git_sha": sha,
        "git_dirty": dirty,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "kernel_mode": (
            resolved_kernel_mode() if kernel_mode is None else kernel_mode
        ),
        **payload,
    }
    path = BENCH_RESULT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def add_no_fast_path_option(parser) -> None:
    """Register ``--no-fast-path`` on a pytest parser (shared by the
    test and benchmark conftests)."""
    parser.addoption(
        NO_FAST_PATH_OPTION,
        action="store_true",
        default=False,
        help=(
            "run every simulation on the naive every-cycle kernel "
            f"(equivalent to {KERNEL_MODE_ENV}={NAIVE_MODE})"
        ),
    )


def apply_no_fast_path(config) -> None:
    """Honor ``--no-fast-path`` by pinning the kernel-mode env var, so
    every Kernel constructed during the run uses the naive path."""
    if config.getoption(NO_FAST_PATH_OPTION):
        os.environ[KERNEL_MODE_ENV] = NAIVE_MODE


def resolved_kernel_mode() -> str:
    """The mode any default-constructed Kernel will use right now."""
    return default_kernel_mode()


@contextmanager
def replay_off() -> Iterator[None]:
    """Withhold epoch replay for networks compiled inside the block.

    Every steady period then exceeds the probe budget, so the compiled
    engine records a typed ``aperiodic_segment`` and steps every cycle:
    the stepped throughput of the same engine on the same workload.
    """
    from repro.sim import compiled

    saved = compiled.MAX_REPLAY_PERIOD
    compiled.MAX_REPLAY_PERIOD = 1
    try:
        yield
    finally:
        compiled.MAX_REPLAY_PERIOD = saved


def connected_daelite(
    topology: Topology,
    params: NetworkParameters,
    src: str,
    dst: str,
    forward_slots: int = 2,
    reverse_slots: int = 1,
    host: Optional[str] = None,
    label: str = "bench",
    kernel_mode: Optional[str] = None,
    **net_kwargs,
):
    """A daelite network with one live connection; returns
    (network, connection, handle)."""
    allocator = SlotAllocator(topology=topology, params=params)
    connection = allocator.allocate_connection(
        ConnectionRequest(
            label,
            src,
            dst,
            forward_slots=forward_slots,
            reverse_slots=reverse_slots,
        )
    )
    network = DaeliteNetwork(
        topology,
        params,
        host_ni=host or src,
        kernel_mode=kernel_mode,
        **net_kwargs,
    )
    handle = network.configure(connection)
    return network, connection, handle


def line_mesh(length: int):
    """A 1-row mesh, convenient for path-length sweeps."""
    return build_mesh(length, 1)


def stream_and_measure(
    network,
    src: str,
    dst: str,
    src_channel: int,
    dst_channel: int,
    words: int,
    label: str,
    max_steps: int = 60_000,
) -> Tuple[int, int]:
    """Send ``words`` words, drain the sink; return (delivered, cycles)."""
    network.ni(src).submit_words(src_channel, list(range(words)), label)
    delivered = 0
    start = network.kernel.cycle
    for _ in range(max_steps):
        network.run(1)
        delivered += len(network.ni(dst).receive(dst_channel))
        if delivered >= words:
            break
    return delivered, network.kernel.cycle - start
