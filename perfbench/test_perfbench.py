"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import TooFewSamples, nearest_rank, tail_percentile  # noqa: E402
from spans import Span, SpanRecorder, Target, patched  # noqa: E402


# -- percentile rule -------------------------------------------------------------------


def test_nearest_rank_returns_a_measured_sample():
    assert nearest_rank([5, 1, 3, 2, 4], 0.5) == (3, 3)
    assert nearest_rank([10, 20], 0.5) == (10, 1)
    assert nearest_rank([7], 0.99) == (7, 1)


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    assert tail_percentile(values, 0.99) == (989, 1000)
    with pytest.raises(TooFewSamples):
        tail_percentile(values[:999], 0.99)
    assert tail_percentile(values[:200], 0.95) == (189, 200)
    with pytest.raises(TooFewSamples):
        tail_percentile(values[:199], 0.95)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1], 0.0)


# -- host-speed normalisation -------------------------------------------------------


def test_host_times_are_divided_by_the_run_slowness():
    ref = measure.REFERENCE_S
    # Probes read twice the reference time in one rep and exactly it in
    # the other: the run's slowness is their mean, 1.5.
    fast = workloads.RepResult(setup_s=1.5, probe_s=2 * ref, probes=2)
    slow = workloads.RepResult(setup_s=3.0, probe_s=4 * ref, probes=2)
    slow.latencies = list(range(1, 201))
    slow.slices = [(2.0, 10, 100)]
    fast.slices = [(1.0, 30, 200)]
    values, samples = run.end_to_end([run.Pass([slow, fast])])
    assert run.slowness([slow, fast]) == pytest.approx(1.5)
    assert values["setup_s"] == pytest.approx(2.25 / 1.5)
    # 300 cycles and 40 operations in 3 host seconds = 2 reference seconds.
    assert values["sim_cycles_per_s"] == pytest.approx(150.0)
    assert values["served_per_s"] == pytest.approx(20.0)
    assert samples["sim_cycles_per_s"] == 2
    assert run.Pass([slow, fast]).host_s == pytest.approx(7.5 / 1.5)


def test_probes_fill_a_share_of_the_timed_stretch():
    probe_s, probes = measure.probe_host(0.0)
    assert probes == 1 and probe_s > 0
    timed_s = 10 * measure.REFERENCE_S / measure.PROBE_SHARE
    assert measure.probe_host(timed_s)[1] == 10


# -- self time of nested spans ------------------------------------------------------


def _recorder(spans):
    recorder = SpanRecorder()
    recorder.spans = [Span(name, layer, start, end, parent, 0) for name, layer, start, end, parent in spans]
    return recorder


def test_self_time_subtracts_direct_children_only():
    recorder = _recorder(
        [
            ("a", "service", 0.0, 10.0, -1),
            ("b", "analysis", 1.0, 4.0, 0),
            ("c", "core.config", 5.0, 9.0, 0),
            ("d", "sim.kernel", 6.0, 7.0, 2),
        ]
    )
    assert recorder.self_times() == [3.0, 3.0, 3.0, 1.0]
    summary = recorder.layer_summary()
    assert summary["service"]["self_s"] == 3.0
    assert summary["core.config"]["busy_s"] == 4.0
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_busy_time_counts_reentrant_layer_once():
    recorder = _recorder(
        [
            ("service.open_batch", "service", 0.0, 10.0, -1),
            ("service.open", "service", 2.0, 6.0, 0),
            ("core.config", "core.config", 3.0, 5.0, 1),
        ]
    )
    summary = recorder.layer_summary()
    assert summary["service"]["busy_s"] == 10.0
    assert summary["service"]["self_s"] == 8.0
    assert summary["service"]["calls"] == 2
    assert recorder.name_busy("service.open") == 4.0


def test_patched_wraps_and_restores():
    class Clock:
        def __init__(self):
            self.cycle = 0

        def outer(self):
            return self.inner(3)

        def inner(self, cycles):
            self.cycle += cycles
            return cycles > 0

    original = Clock.inner
    recorder = SpanRecorder()
    targets = [
        Target(Clock, "outer", "outer", "service"),
        Target(Clock, "inner", "inner", "core.config", clock=lambda clock: clock.cycle,
               verdict=bool),
    ]
    with patched(recorder, targets):
        assert Clock().outer() is True
    assert Clock.inner is original
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent == -1
    assert inner.cycles == 3 and inner.accepted is True
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- seeded generators ------------------------------------------------------------------


def test_flow_plan_is_seeded_and_shaped():
    first = workloads.plan_flows(random.Random(5))
    assert first == workloads.plan_flows(random.Random(5))
    assert first != workloads.plan_flows(random.Random(6))
    pairs, (mc_src, mc_dsts) = first
    assert len(pairs) == workloads.UNICAST_FLOWS
    assert len({src for src, _ in pairs}) == len({dst for _, dst in pairs}) == len(pairs)
    for src, dst in pairs:
        hops = abs(int(src[2]) - int(dst[2])) + abs(int(src[3]) - int(dst[3]))
        assert hops == workloads.FLOW_HOPS
    assert len(mc_dsts) == workloads.MULTICAST_DESTS and mc_src not in mc_dsts


def test_aperiodic_trace_is_seeded_and_spans_the_window():
    trace = workloads.aperiodic_trace(random.Random(3), 100, 100_100)
    assert trace == workloads.aperiodic_trace(random.Random(3), 100, 100_100)
    assert trace != workloads.aperiodic_trace(random.Random(4), 100, 100_100)
    cycles = [cycle for cycle, _ in trace]
    assert cycles == sorted(set(cycles)) and cycles[-1] < 100_100
    assert [payload for _, payload in trace] == list(range(len(trace)))
    mean_gap = (cycles[-1] - 100) / len(cycles)
    assert abs(mean_gap - workloads.WORD_PERIOD) < 1.0


@pytest.mark.parametrize("faults", [False, True])
def test_service_rep_is_deterministic(monkeypatch, faults):
    monkeypatch.setattr(workloads, "SERVICE_OPS", 70)
    first = workloads.ServiceRep(11, faults).run()
    again = workloads.ServiceRep(11, faults).run()
    other = workloads.ServiceRep(12, faults).run()
    assert first.failures == [] and first.attempted >= 70
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.latencies == again.latencies
    if faults:
        assert first.counters["faults.armed"] > 0


def test_declared_workloads_match_benchmark_json():
    declared = [name for name, workload in workloads.WORKLOADS.items() if workload.declared]
    assert declared == list(run.workload_whys())
    assert not workloads.WORKLOADS["service-config-faults"].declared


def test_only_the_undeclared_fault_workload_corrupts_config_words(monkeypatch):
    monkeypatch.setattr(workloads, "SERVICE_OPS", 110)
    plain = workloads.ServiceRep(11, True).run()
    corrupt = workloads.ServiceRep(11, True, None, config_corrupts=True).run()
    assert plain.failed == 0
    assert plain.counters["faults.armed"] == 2 * workloads.TABLE_UPSETS
    assert corrupt.counters["faults.armed"] == 2 * (workloads.TABLE_UPSETS + 1)
