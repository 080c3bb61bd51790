"""Span tracing for the benchmark's traced run.

The traced run wraps each layer's public entry points at the name its
caller resolves (``repro.cam.array.standard_normals``, not
``repro.cam.keyed_noise.standard_normals``), records one span per call
and restores every original afterwards.  Nothing in ``src/`` changes.

* A span records its name, start, end, parent span, request id and
  thread.  Spans and counters live in per-thread lists and are only
  folded into per-layer metrics after the run.
* Work on threads the benchmark does not drive (frontend dispatch
  workers, shard fan-out threads) has no parent on its own stack.  It
  is attributed through the object it runs on: the client registers
  each session and its pipeline under the request it flushed, and the
  sharded pipeline's span registers its shard matchers.
* A span's self time is its duration minus the part of it that its
  children cover, children on other threads included.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: "int | None"
    name: str
    start: float
    end: float
    request_id: "int | None"
    thread_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _ThreadState:
    thread_id: int
    stack: "list[tuple[int, int | None]]" = field(default_factory=list)
    spans: "list[Span]" = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    suspended: int = 0


def union_length(intervals: "Iterable[tuple[float, float]]") -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: "Iterable[Span]") -> "dict[int, float]":
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), whichever thread the children ran on."""
    spans = list(spans)
    children: "dict[int, list[Span]]" = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    return {
        span.span_id: span.duration - union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.span_id]
        )
        for span in spans
    }


class Tracer:
    """Collects spans and counters from every thread of one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: "list[_ThreadState]" = []
        self._ids = itertools.count(1)
        #: id(object) -> (span id, request id) that work on it belongs to.
        self.owners: "dict[int, tuple[int, int | None]]" = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    @property
    def suspended(self) -> bool:
        return self._state().suspended > 0

    def open(self, name: str, owner: object = None,
             request_id: "int | None" = None, push: bool = True):
        """Start a span; its parent is the innermost open span on this
        thread, else the span *owner* was registered under."""
        state = self._state()
        if state.stack:
            parent_id, request_id = state.stack[-1]
        elif owner is not None and id(owner) in self.owners:
            parent_id, request_id = self.owners[id(owner)]
        else:
            parent_id = None
        span_id = next(self._ids)
        if push:
            state.stack.append((span_id, request_id))
        return (span_id, parent_id, name, request_id, push,
                time.perf_counter())

    def close(self, token) -> Span:
        end = time.perf_counter()
        span_id, parent_id, name, request_id, pushed, start = token
        state = self._state()
        if pushed:
            state.stack.pop()
        span = Span(span_id, parent_id, name, start, end, request_id,
                    state.thread_id)
        state.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, request_id: "int | None" = None):
        token = self.open(name, request_id=request_id)
        try:
            yield token[0]
        finally:
            self.close(token)

    @contextmanager
    def suspend(self):
        """Calls on this thread pass through untraced (probe work)."""
        state = self._state()
        state.suspended += 1
        try:
            yield
        finally:
            state.suspended -= 1

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += int(n)

    def collect(self) -> "tuple[list[Span], Counter]":
        with self._lock:
            states = list(self._states)
        spans = [span for state in states for span in state.spans]
        counts: Counter = Counter()
        for state in states:
            counts.update(state.counts)
        return spans, counts

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        with self._lock:
            for state in self._states:
                state.spans.clear()
                state.counts.clear()


# -- the patch table ---------------------------------------------------------


def _wrap(tracer: Tracer, fn: Callable, name: "str | Callable",
          owned: bool, before: "Callable | None",
          after: "Callable | None") -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.suspended:
            return fn(*args, **kwargs)
        span_name = name(fn, args, kwargs) if callable(name) else name
        token = tracer.open(span_name, owner=args[0] if owned else None)
        if before is not None:
            before(tracer, token, args)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result
    return wrapper


def _count_size(counter: str, of: "Callable | None" = None) -> Callable:
    def after(tracer, fn, args, kwargs, result):
        tracer.count(counter, (of(result) if of else result).size)
    return after


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> "inspect.BoundArguments":
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def _search_name(fn, args, kwargs) -> str:
    """``cam.search`` for the base ED* pass, ``.hd`` for HDAC's Hamming
    pass and ``.rot`` for a TASR rotation."""
    from repro.cam.cell import MatchMode

    arguments = _bound(fn, args, kwargs).arguments
    if arguments["rotation"] != 0:
        return "cam.search.rot"
    if arguments["mode"] is MatchMode.HAMMING:
        return "cam.search.hd"
    return "cam.search"


def _make_search_probe(twins: "weakref.WeakKeyDictionary") -> Callable:
    """Count decisions and those a noise-free twin array, fed the same
    counts, would decide differently (the noise flip count)."""
    from repro.cam.array import CamArray

    def after(tracer, fn, args, kwargs, result):
        array = args[0]
        if array.domain == "charge":
            # ASMCap's own passes; EDAM's current-domain array has no
            # HDAC or TASR and would dilute the per-read pass ratios.
            tracer.count(f"{_search_name(fn, args, kwargs)}.queries",
                         result.mismatch_counts.shape[0])
        tracer.count("cam.decisions", result.matches.size)
        if not array.noisy:
            return
        with tracer.span("trace.probe"), tracer.suspend():
            twin = twins.get(array)
            if twin is None:
                twin = CamArray(
                    rows=array.rows, cols=array.cols, domain=array.domain,
                    noisy=False, backend=array.backend,
                    strict_paper_vref=array.sense_amp.strict_paper_rule,
                    vdd=array.sense_amp.vdd,
                )
                twins[array] = twin
            bound = _bound(fn, args, kwargs)
            bound.arguments["self"] = twin
            bound.arguments["precomputed_counts"] = result.mismatch_counts
            ideal = fn(*bound.args, **bound.kwargs)
            twin.ledger.clear()
            tracer.count("cam.noise_flips",
                         int((ideal.matches != result.matches).sum()))
    return after


def _register_shard_matchers(tracer, token, args) -> None:
    span_id, _, _, request_id, _, _ = token
    for matcher in args[0].matchers:
        tracer.owners[id(matcher)] = (span_id, request_id)


def patch_table() -> "list[tuple[object, str, object, bool, Callable | None, Callable | None]]":
    """``(target, attribute, span name, owned, before, after)`` for every
    traced entry point, patched where its caller resolves it."""
    import repro.arch.autotune as autotune
    import repro.cam.array as cam_array
    import repro.core.matcher as core_matcher
    import repro.core.pipeline as core_pipeline
    import repro.eval.experiment as eval_experiment
    import repro.eval.ground_truth as eval_ground_truth
    import repro.eval.sweeps as eval_sweeps
    import repro.service.frontend as service_frontend
    import repro.service.stream as service_stream
    from repro.baselines.edam import EdamMatcher
    from repro.cam.sense_amp import SenseAmplifier
    from repro.cam.variation import ChargeDomainVariation, CurrentDomainVariation
    from repro.cost.ledger import CostLedger
    from repro.kernels.base import KernelBackend

    twins: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
    probe = _make_search_probe(twins)
    pairs = _count_size("kernels.pairs",
                        lambda r: r[0] if isinstance(r, tuple) else r)
    table = [
        (KernelBackend, "counts_batch", "kernels.counts", False, None, pairs),
        (KernelBackend, "counts_batch_dual", "kernels.counts", False, None,
         pairs),
        (cam_array, "standard_normals", "cam.noise", False, None,
         _count_size("cam.noise_draws")),
        (ChargeDomainVariation, "sigma_vml", "cam.noise", False, None, None),
        (CurrentDomainVariation, "sigma_vml", "cam.noise", False, None, None),
        (SenseAmplifier, "decide", "cam.sense", False, None, None),
        (SenseAmplifier, "decide_sweep", "cam.sense", False, None, None),
        (cam_array.CamArray, "search_batch", _search_name, False, None,
         probe),
        (cam_array.CamArray, "search_sweep", _search_name, False, None,
         probe),
        (core_matcher.AsmCapMatcher, "match_batch", "core.match", True,
         None, None),
        (core_matcher.AsmCapMatcher, "match_sweep", "core.match", True,
         None, None),
        (core_matcher, "hdac_correct_batch", "core.hdac_correct", False,
         None, None),
        (core_matcher, "hdac_correct_sweep", "core.hdac_correct", False,
         None, None),
        (core_pipeline.ReadMappingPipeline, "run_batched",
         "core.run_batched", True, None, None),
        (core_pipeline.ShardedReadMappingPipeline, "run",
         "parallel.fanout", True, _register_shard_matchers, None),
        (CostLedger, "record", "cost.record", False, None,
         lambda tracer, *_: tracer.count("cost.events")),
        (CostLedger, "compact", "cost.compact", False, None,
         lambda tracer, fn, args, kwargs, folded:
         tracer.count("cost.compactions", 1 if folded else 0)),
        (service_stream.StreamingMappingService, "submit_many",
         "service.dispatch", True, None, None),
        (service_stream.StreamingMappingService, "flush",
         "service.dispatch", True, None, None),
        (service_frontend.MappingSession, "submit_many",
         "service.dispatch", True, None, None),
        (service_frontend.MappingSession, "flush", "service.dispatch",
         True, None, None),
        (eval_sweeps, "build_dataset", "genome.build_dataset", False, None,
         None),
        (eval_ground_truth, "banded_edit_distance_batch",
         "distance.ground_truth", False, None, None),
        (EdamMatcher, "match_sweep", "baselines.edam_sweep", False, None,
         None),
        (eval_experiment, "confusion_series", "eval.confusion", False, None,
         None),
    ]
    for target, attribute in (
            (autotune, "plan_backend"),
            (service_stream, "plan_microbatch"),
            (service_frontend, "plan_microbatch"),
            (service_frontend, "plan_service_pool"),
            (service_frontend, "resolve_engine"),
            (core_pipeline, "plan_shards"),
            (core_pipeline, "resolve_engine"),
            (eval_sweeps, "sweep_worker_count")):
        table.append((target, attribute, "arch.autotune", False, None, None))
    return table


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced entry point for the duration of the block."""
    originals = []
    try:
        for target, attribute, name, owned, before, after in patch_table():
            original = target.__dict__[attribute]
            originals.append((target, attribute, original))
            setattr(target, attribute,
                    _wrap(tracer, original, name, owned, before, after))
        yield tracer
    finally:
        for target, attribute, original in reversed(originals):
            setattr(target, attribute, original)


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(spans: "list[Span]", counts: Counter, *,
                  window_s: float, client_thread: int,
                  pool_workers: int, overhead_fraction: float,
                  autotune_s: float) -> "dict[str, float]":
    """Fold one traced window's spans and counters into the per-layer
    metrics declared in ``BENCHMARK.json``."""
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    total = Counter()
    self_total = Counter()
    for span in spans:
        total[span.name] += span.duration
        self_total[span.name] += own[span.span_id]
    search_names = ("cam.search", "cam.search.hd", "cam.search.rot")

    shard_children: "dict[int, list[float]]" = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent_id)
        if (span.name == "core.match" and parent is not None
                and parent.name == "parallel.fanout"):
            shard_children[parent.span_id].append(span.duration)
    imbalances = [max(d) / (sum(d) / len(d))
                  for d in shard_children.values() if sum(d) > 0]

    runs = ("parallel.fanout", "core.run_batched")
    flush_end: "dict[int, float]" = {}
    run_start: "dict[int, float]" = {}
    worker_busy = 0.0
    for span in spans:
        if span.request_id is None:
            continue
        if span.name == "service.dispatch" and span.thread_id == client_thread:
            flush_end[span.request_id] = max(
                flush_end.get(span.request_id, span.end), span.end)
        if span.name in runs and span.thread_id != client_thread:
            worker_busy += span.duration
            run_start[span.request_id] = min(
                run_start.get(span.request_id, span.start), span.start)
    queue_wait = sum(max(0.0, run_start[r] - flush_end[r])
                     for r in run_start if r in flush_end)

    base_passes = counts["cam.search.queries"]
    decisions = counts["cam.decisions"]
    return {
        "kernels.counts_s": self_total["kernels.counts"],
        "kernels.pairs": counts["kernels.pairs"],
        "cam.noise_s": self_total["cam.noise"],
        "cam.noise_draws": counts["cam.noise_draws"],
        "cam.decisions": decisions,
        "cam.noise_flip_fraction": (counts["cam.noise_flips"] / decisions
                                    if decisions else 0.0),
        "cam.sense_s": self_total["cam.sense"],
        "cam.search_self_s": sum(self_total[n] for n in search_names),
        "core.match_self_s": self_total["core.match"],
        "core.hdac_s": total["cam.search.hd"] + total["core.hdac_correct"],
        "core.hdac_passes_per_read": (
            counts["cam.search.hd.queries"] / base_passes
            if base_passes else 0.0),
        "core.tasr_search_s": total["cam.search.rot"],
        "core.tasr_passes_per_read": (
            counts["cam.search.rot.queries"] / base_passes
            if base_passes else 0.0),
        "core.report_fold_s": self_total["core.run_batched"],
        "cost.record_s": self_total["cost.record"],
        "cost.events": counts["cost.events"],
        "cost.compact_s": total["cost.compact"],
        "cost.compactions": counts["cost.compactions"],
        "service.dispatch_self_s": self_total["service.dispatch"],
        "service.queue_wait_s": queue_wait,
        "service.worker_busy_fraction": (
            worker_busy / (window_s * pool_workers)
            if window_s > 0 and pool_workers else 0.0),
        "parallel.fanout_self_s": self_total["parallel.fanout"],
        "parallel.shard_busy_s": sum(sum(d) for d in shard_children.values()),
        "parallel.shard_imbalance": (sum(imbalances) / len(imbalances)
                                     if imbalances else 0.0),
        "genome.build_dataset_s": total["genome.build_dataset"],
        "distance.ground_truth_s": total["distance.ground_truth"],
        "baselines.edam_sweep_s": total["baselines.edam_sweep"],
        "eval.confusion_s": total["eval.confusion"],
        "arch.autotune_s": autotune_s,
        "trace.other_s": self_total["request"],
        "trace.probe_s": total["trace.probe"],
        "trace.overhead_fraction": overhead_fraction,
    }
