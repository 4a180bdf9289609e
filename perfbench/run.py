"""Run one benchmark workload (or all four declared ones) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload service-churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7

``all`` runs each workload in its own child process, so each reports
its own peak memory, and merges their results.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer metrics from a traced run.
See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import (
    TooFewSamples,
    digest,
    host_slowness,
    median,
    nearest_rank,
    peak_rss_mb,
    tail_percentile,
)
from spans import SpanRecorder, patched

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: End-to-end metric units (every workload reports every one).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles_per_s": "1/s",
    "served_per_s": "1/s",
    "latency_cycles_p50": "cycles",
    "latency_cycles_p95": "cycles",
}


def refused_environment() -> List[str]:
    """``REPRO_*`` variables that would change a workload if set."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def workload_whys() -> Dict[str, str]:
    """Each workload's one-line reason, as declared in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            declared = json.load(handle)["workloads"]
    except (OSError, ValueError, KeyError):
        return {}
    return {entry["name"]: entry["why"] for entry in declared}


def provenance() -> Dict[str, object]:
    """Where the numbers came from: tree, interpreter, host."""
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


class Pass:
    """The reps of one pass, summed; the digest covers every rep."""

    def __init__(self, reps: list) -> None:
        self.reps = reps
        #: Normalised host seconds of set-up and the measured phase.
        self.host_s = sum(
            rep.setup_s + sum(piece[0] for piece in rep.slices) for rep in reps
        ) / slowness(reps)
        self.digest = digest(rep.digest for rep in reps)


def slowness(reps: list) -> float:
    """The host slowness over every reference probe the reps ran."""
    return host_slowness(sum(rep.probe_s for rep in reps), sum(rep.probes for rep in reps))


def run_pass(workload, seed: int, recorder=None) -> Pass:
    reps = []
    for index in range(workload.reps):
        gc.collect()
        reps.append(workload.rep(seed * 1000 + index, recorder))
    return Pass(reps)


def end_to_end(passes: List[Pass]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end values and the sample count behind each."""

    reps = [rep for one in passes for rep in one.reps]
    first = passes[0].reps
    latencies = [value for rep in first for value in rep.latencies]
    slices = [piece for rep in reps for piece in rep.slices]
    p95, latency_n = tail_percentile(latencies, 0.95)
    # Host times are normalised to the reference host: divided by the
    # run's host slowness.
    normalised_s = sum(piece[0] for piece in slices) / slowness(reps)
    values = {
        "setup_s": median(rep.setup_s for rep in reps) / slowness(reps),
        "peak_rss_mb": peak_rss_mb(),
        "sim_cycles_per_s": sum(piece[2] for piece in slices) / normalised_s,
        "served_per_s": sum(piece[1] for piece in slices) / normalised_s,
        "latency_cycles_p50": float(nearest_rank(latencies, 0.5)[0]),
        "latency_cycles_p95": float(p95),
    }
    samples = {
        "setup_s": len(reps),
        "peak_rss_mb": 1,
        "sim_cycles_per_s": len(slices),
        "served_per_s": len(slices),
        "latency_cycles_p50": latency_n,
        "latency_cycles_p95": latency_n,
    }
    return values, samples


def details(passes: List[Pass]) -> List[Tuple[str, float, str, int]]:
    """Reported but ungated figures: raw host times and the host
    slowness, host time per open, failure share, repair cycles."""

    reps = [rep for one in passes for rep in one.reps]
    slices = [piece for rep in reps for piece in rep.slices]
    raw_s = sum(piece[0] for piece in slices)
    rows: List[Tuple[str, float, str, int]] = [
        ("raw_setup_s", median(rep.setup_s for rep in reps), "s", len(reps)),
        ("raw_sim_cycles_per_s", sum(piece[2] for piece in slices) / raw_s, "1/s", len(slices)),
        ("raw_served_per_s", sum(piece[1] for piece in slices) / raw_s, "1/s", len(slices)),
        ("host_slowness", slowness(reps), "ratio", sum(rep.probes for rep in reps)),
    ]
    open_us = [value for rep in reps for value in rep.open_us]
    if open_us:
        rows.append(("open_us_p50", nearest_rank(open_us, 0.5)[0], "us", len(open_us)))
        try:
            rows.append(("open_us_p99", tail_percentile(open_us, 0.99)[0], "us", len(open_us)))
        except TooFewSamples:
            pass  # fewer than 1000 opens: no p99
    repair = [value for rep in passes[0].reps for value in rep.repair_cycles]
    if repair:
        rows.append(("repair_cycles_p50", nearest_rank(repair, 0.5)[0], "cycles", len(repair)))
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    rows.append(("failed_share", failed / attempted if attempted else 0.0, "ratio", attempted))
    return rows


def per_layer(traced: List[Pass], untraced: List[Pass], recorders: list) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced passes (mean per pass)."""

    count = len(traced)
    layers: Dict[str, Dict[str, float]] = {}
    for recorder in recorders:
        for layer, entry in recorder.layer_summary().items():
            total = layers.setdefault(layer, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                total[key] += value
    reps = [rep for one in traced for rep in one.reps]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0) / count

    def counter(key: str) -> float:
        return sum(rep.counters.get(key, 0.0) for rep in reps) / count

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    config_cycles = layer("core.config", "cycles")
    config_busy = layer("core.config", "busy_s")
    kernel_cycles = layer("sim.kernel", "cycles")
    replayed = counter("replayed_cycles")
    stepped = max(0.0, kernel_cycles - replayed)
    kernel_busy = layer("sim.kernel", "busy_s")
    admits = layer("analysis", "calls")
    total_self = sum(entry["self_s"] for entry in layers.values()) / count
    repair = [value for rep in traced[0].reps for value in rep.repair_cycles]
    link_busy = sum(r.name_busy("core.online.link_failure") for r in recorders) / count
    traced_s = median(one.host_s for one in traced)
    plain_s = median(one.host_s for one in untraced)
    metrics = {
        "core.config.busy_s": (config_busy, "s"),
        "core.config.self_s": (layer("core.config", "self_s"), "s"),
        "core.config.calls": (layer("core.config", "calls"), "count"),
        "core.config.cycles": (config_cycles, "cycles"),
        "core.config.cycles_per_s": (rate(config_cycles, config_busy), "1/s"),
        "core.config.self_share": (
            layer("core.config", "self_s") / total_self if total_self else 0.0,
            "ratio",
        ),
        "analysis.admit.calls": (admits, "count"),
        "analysis.admit.busy_s": (layer("analysis", "busy_s"), "s"),
        "analysis.admit.accept_ratio": (
            layer("analysis", "accepted") / admits if admits else 0.0,
            "ratio",
        ),
        "alloc.allocate.busy_s": (
            sum(r.name_busy("alloc.allocate") for r in recorders) / count,
            "s",
        ),
        "alloc.release.busy_s": (
            sum(r.name_busy("alloc.release") for r in recorders) / count,
            "s",
        ),
        "alloc.self_s": (layer("alloc", "self_s"), "s"),
        "service.self_s": (layer("service", "self_s"), "s"),
        "service.calls": (layer("service", "calls"), "count"),
        "service.retries": (counter("service.retries"), "count"),
        "service.breaker_opens": (counter("service.breaker_opens"), "count"),
        "core.online.self_s": (layer("core.online", "self_s"), "s"),
        "sim.kernel.busy_s": (kernel_busy, "s"),
        "sim.kernel.self_s": (layer("sim.kernel", "self_s"), "s"),
        "sim.kernel.stepped_cycles": (stepped, "cycles"),
        "sim.kernel.stepped_cycles_per_s": (rate(stepped, kernel_busy), "1/s"),
        "sim.kernel.compile_fallbacks": (counter("compile_fallbacks"), "count"),
        "sim.kernel.lowering_cache_hits": (counter("lowering_cache_hits"), "count"),
        "sim.replay.replayed_cycles": (replayed, "cycles"),
        "sim.replay.replayed_epochs": (counter("replayed_epochs"), "count"),
        "sim.replay.coverage": (rate(replayed, kernel_cycles), "ratio"),
        "sim.replay.regime_cache_hits": (counter("regime_cache_hits"), "count"),
        "staticcheck.scrub.busy_s": (layer("staticcheck", "busy_s"), "s"),
        "staticcheck.scrub.findings": (counter("staticcheck.scrub.findings"), "count"),
        "faults.armed": (counter("faults.armed"), "count"),
        "faults.effective": (counter("faults.effective"), "count"),
        "faults.waves_with_findings": (counter("faults.waves_with_findings"), "count"),
        "faults.unrepaired_waves": (counter("faults.unrepaired_waves"), "count"),
        "faults.residual_findings": (counter("faults.residual_findings"), "count"),
        "faults.repair_cycles_p50": (
            float(nearest_rank(repair, 0.5)[0]) if repair else 0.0, "cycles"
        ),
        "core.online.link_failure.busy_s": (link_busy, "s"),
        "core.online.link_failure.recovered": (
            counter("core.online.link_failure.recovered"), "count"
        ),
        "core.online.link_failure.revoked": (
            counter("core.online.link_failure.revoked"), "count"
        ),
        "trace.spans": (sum(len(r.spans) for r in recorders) / count, "count"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "ratio"),
    }
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    from workloads import WORKLOADS, trace_targets

    workload = WORKLOADS[name]
    started = time.perf_counter()
    untraced: List[Pass] = []
    traced: List[Pass] = []
    recorders: List[SpanRecorder] = []

    def elapsed() -> float:
        return time.perf_counter() - started

    if trace:
        while not traced or elapsed() < seconds:
            untraced.append(run_pass(workload, seed))
            recorder = SpanRecorder()
            with patched(recorder, trace_targets()):
                traced.append(run_pass(workload, seed, recorder))
            recorders.append(recorder)
    else:
        while len(untraced) < workload.min_passes or elapsed() < seconds:
            untraced.append(run_pass(workload, seed))
    passes = untraced + traced
    reps = [rep for one in passes for rep in one.reps]
    failures = [message for rep in reps for message in rep.failures]
    for one in passes:
        counts = [rep.counters for rep in one.reps]
        if sum(c.get("faults.armed", 0) for c in counts) and not sum(
            c.get("faults.waves_with_findings", 0) for c in counts
        ):
            failures.append("faults were armed but no wave landed a finding")
    digests = sorted({one.digest for one in passes})
    if len(digests) > 1:
        failures.append(f"digest differs between passes of one seed: {digests}")
    report: Dict[str, object] = {
        "workload": name,
        "why": workload_whys().get(name, ""),
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "digest": digests[0],
        "kernel_mode": sorted({rep.kernel_mode for rep in reps}),
        "alloc_engine": sorted({rep.alloc_engine for rep in reps if rep.alloc_engine}),
        "failures": failures,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
    }
    values, samples = end_to_end(untraced)
    report["end_to_end"] = {
        key: {"value": values[key], "unit": unit, "samples": samples[key]}
        for key, unit in END_TO_END.items()
    }
    report["details"] = [
        {"name": row[0], "value": row[1], "unit": row[2], "samples": row[3]}
        for row in details(untraced)
    ]
    if trace:
        report["per_layer"] = {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in per_layer(traced, untraced, recorders).items()
        }
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        recorders[-1].write_jsonl(str(spans_path))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def print_report(report: Dict[str, object]) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['passes']} passes)")
    print(f"   why: {report['why']}")
    print(f"   kernel={report['kernel_mode']} alloc={report['alloc_engine']} "
          f"digest={report['digest']}")
    rows = [
        (key, entry["value"], entry["unit"], entry["samples"])
        for key, entry in report["end_to_end"].items()
    ] + [(row["name"], row["value"], row["unit"], row["samples"]) for row in report["details"]]
    for key, value, unit, count in rows:
        print(f"   {key:<22} {value:>16.6g} {unit:<7} n={count}")
    for key, entry in report.get("per_layer", {}).items():
        print(f"   {key:<38} {entry['value']:>16.6g} {entry['unit']}")
    for failure in report["failures"]:
        print(f"   CHECK FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refused = refused_environment()
    if refused:
        print(f"refusing to run: {', '.join(refused)} would change the workloads",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all([name for name, workload in WORKLOADS.items() if workload.declared], args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report["provenance"] = provenance()
    print_report(report)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            key: {"value": entry["value"], "unit": entry["unit"]}
            for key, entry in report[section].items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_all(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload in a child process of its own (peak memory is
    per process) and merge their results, metrics keyed
    ``<workload>/<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(child.stdout, end="")
            print(f"   CHECK FAILED: {name} exited {child.returncode} without a result")
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = entry
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
