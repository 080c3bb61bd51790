"""The benchmark's own tests: inputs, metric names, self time, percentiles.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.host import fingerprint, not_comparable_because
from perfbench.measure import InsufficientSamples, percentile
from perfbench.trace import Span, Tracer, layer_metrics, self_times
from perfbench.workloads import FrontendIndel, Fig7Sweep, StreamSubst

ROOT = Path(__file__).resolve().parents[2]


class SmallStream(StreamSubst):
    """stream-subst's code path at a size a unit test can afford."""

    gate_reads, pool_reads = 128, 128


class SmallFrontend(FrontendIndel):
    rows, gate_reads, pool_reads = 256, 128, 128


def _declared(section: str) -> "dict[str, str]":
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in document[section]}


def _input_arrays(workload, seed: int) -> "list[np.ndarray]":
    dataset = workload.generate(seed).dataset
    return [dataset.segments,
            np.stack([record.read.codes for record in dataset.reads])]


@pytest.mark.parametrize("workload", [SmallStream(), SmallFrontend(),
                                      Fig7Sweep()],
                         ids=lambda w: w.name)
def test_seed_fixes_the_inputs(workload):
    first, again = _input_arrays(workload, 5), _input_arrays(workload, 5)
    other = _input_arrays(workload, 6)
    assert all(np.array_equal(a, b) for a, b in zip(first, again, strict=True))
    assert not any(np.array_equal(a, b)
                   for a, b in zip(first, other, strict=True))


def test_fig7_requests_draw_distinct_datasets():
    seeds = {Fig7Sweep.request_seed(s, r) for s in (0, 1) for r in range(64)}
    assert len(seeds) == 128


def test_declared_units_match_the_runner():
    assert run.END_TO_END_UNITS == _declared("end_to_end")
    assert run.PER_LAYER_UNITS == _declared("per_layer")
    declared = {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert declared == set(workloads.WORKLOADS)


def test_untraced_run_emits_every_end_to_end_metric():
    workload = SmallStream()
    metrics, _, window, _ = run.untraced(workload, workload.generate(3),
                                         seconds=0.0)
    assert set(metrics) == set(_declared("end_to_end"))
    assert all(value > 0 for value in metrics.values())
    assert window.attempted >= workloads.MIN_REQUESTS
    assert window.failed == 0


def test_traced_run_matches_untraced_and_emits_every_layer_metric():
    workload = SmallStream()
    metrics, _, window, _ = run.traced(workload, workload.generate(3),
                                       seconds=0.0)
    assert set(metrics) == set(_declared("per_layer"))
    assert metrics["core.hdac_passes_per_read"] == 1.0
    assert metrics["core.tasr_passes_per_read"] == 0.0
    assert metrics["kernels.pairs"] > 0
    assert metrics["trace.reads"] == window.reads


class OffByOneStream(SmallStream):
    """A service that decides at the wrong threshold."""

    def setup(self, inputs):
        from repro.service import StreamingMappingService

        service = StreamingMappingService(
            inputs.dataset.segments, inputs.dataset.model,
            threshold=self.threshold - 1, retain_mappings=False)
        gate, _ = self._blocks(inputs)
        return workloads.Live(
            service, [self._request(service, gate[:workloads.REQUEST_READS])])


def test_gate_rejects_results_that_differ_from_the_reference():
    workload = OffByOneStream()
    inputs = workload.generate(3)
    live = workload.setup(inputs)
    try:
        with pytest.raises(workloads.GateFailure):
            workload.gate(live, inputs)
    finally:
        workload.close(live)


def _span(span_id, parent, start, end, thread=1, name="x"):
    return Span(span_id, parent, name, start, end, None, thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),               # same thread
        _span(3, 1, 2.0, 5.0, thread=2),     # overlaps 2 on another thread
        _span(4, 1, 8.0, 12.0, thread=3),    # runs past the parent's end
        _span(5, 3, 2.5, 3.5, thread=2),     # grandchild: not the root's
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_spans_on_other_threads_find_their_parent_through_an_owner():
    tracer = Tracer()
    owner = object()
    with tracer.span("request", request_id=7) as request_span:
        tracer.owners[id(owner)] = (request_span, 7)

        def work():
            tracer.close(tracer.open("core.match", owner=owner))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans, _ = tracer.collect()
    child = next(s for s in spans if s.name == "core.match")
    assert child.parent_id == request_span
    assert child.request_id == 7
    assert child.thread_id != threading.get_ident()


def test_layer_metrics_attribute_self_time_and_other():
    spans = [
        Span(1, None, "request", 0.0, 10.0, 0, 1),
        Span(2, 1, "service.dispatch", 0.0, 9.0, 0, 1),
        Span(3, 2, "core.run_batched", 1.0, 8.0, 0, 1),
        Span(4, 3, "core.match", 2.0, 6.0, 0, 1),
    ]
    metrics = layer_metrics(spans, Counter(),
                            window_s=10.0, client_thread=1, pool_workers=0,
                            overhead_fraction=0.0, autotune_s=0.0)
    assert metrics["trace.other_s"] == pytest.approx(1.0)
    assert metrics["service.dispatch_self_s"] == pytest.approx(2.0)
    assert metrics["core.report_fold_s"] == pytest.approx(3.0)
    assert metrics["core.match_self_s"] == pytest.approx(4.0)


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0
    with pytest.raises(InsufficientSamples):
        percentile(samples[:99], 90)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 10, 50)


def test_a_failed_request_misses_every_percentile():
    samples = [1.0] * 95 + [math.inf] * 15
    assert percentile(samples, 50) == 1.0
    with pytest.raises(InsufficientSamples):
        percentile(samples, 90)


def test_another_host_or_plan_is_not_comparable():
    host = fingerprint()
    plan = {"kernel_lane": "numpy-gemm"}
    reference = {"host": dict(host), "plans": {"w": dict(plan)}}
    assert not_comparable_because("w", host, plan, reference) == []
    assert not_comparable_because("w", {**host, "cpu_count": 64}, plan,
                                  reference)
    assert not_comparable_because("w", host, {"kernel_lane": "bitpacked"},
                                  reference)


def test_cold_start_refuses_when_the_calibration_cache_is_gone(monkeypatch):
    import repro.arch.autotune as autotune

    monkeypatch.delattr(autotune, "_PLANNED_BACKEND")
    with pytest.raises(workloads.NoColdStart):
        workloads.cold_start()

