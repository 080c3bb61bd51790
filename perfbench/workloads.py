"""The benchmark's three closed-loop workloads.

Every workload makes its inputs from the seed, sets the system up
(construction until the first request's result), passes a correctness
gate before any timing, then measures a closed loop.  The simulated
metrics (``f1``, ``f1_edam``, ``model_energy_pj_per_read``,
``searches_per_read``) are read over the fixed gate block, so for a
given seed they repeat exactly, however many requests the timed window
completes.

* ``stream-subst`` — Condition A on one paper array (256 x 256, charge
  domain, T=8) through a default :class:`StreamingMappingService`; one
  client sends 64-read requests and flushes after each.  HDAC's HD pass
  runs, TASR does not: count kernel, keyed noise, sense-amp, report fold
  and ledger, no thread pool.
* ``frontend-indel`` — Condition B against a 1024 x 256 reference
  (T=12) through ``MappingFrontend(engine="sharded")`` with autotuned
  pool, shards and fan-out; two sessions fed by one generator thread,
  one 64-read request outstanding per session.  TASR's four rotated
  passes run, HDAC does not; the only workload with shard fan-out and
  frontend scheduling.
* ``fig7-sweep`` — the paper's Fig. 7 Condition-B sweep
  (``repro.eval.sweeps.run_sweep``): ASMCap (full) and EDAM over
  T = 2..16 step 2, one Monte-Carlo repetition (fresh dataset) per
  request.  Dataset generation and exact ground truth dominate.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from perfbench.measure import Window, closed_loop, cpu_seconds

#: Reads per client request (stream-subst, frontend-indel).
REQUEST_READS = 64
#: Every timed window completes at least this many requests, so that
#: ``request_p90_ms`` has ten samples beyond it.
MIN_REQUESTS = 100


class GateFailure(Exception):
    """A correctness gate found a result that differs from its reference."""


class NoColdStart(Exception):
    """The program no longer has the calibration cache set-ups forget."""


def cold_start() -> None:
    """Forget the cached kernel-lane calibration, so that every set-up
    pays it as a fresh process would.  Refuses to run when the cache is
    gone: setting a new attribute would leave the real cache warm and
    make set-ups look cheaper than a fresh process's."""
    import repro.arch.autotune as autotune

    if not hasattr(autotune, "_PLANNED_BACKEND"):
        raise NoColdStart("repro.arch.autotune has no _PLANNED_BACKEND "
                          "cache to forget; update perfbench.cold_start")
    autotune._PLANNED_BACKEND = None


def mapping_key(mapping) -> tuple:
    """Everything a :class:`ReadMapping` reports, in comparable form."""
    outcome = mapping.outcome
    return (mapping.read_index, mapping.matched_rows,
            outcome.decisions.tobytes(), outcome.threshold,
            outcome.n_searches, outcome.energy_joules, outcome.latency_ns,
            outcome.hdac_probability, outcome.tasr_lower_bound)


def mappings_key(mappings) -> tuple:
    """One request's mappings, in comparable form."""
    return tuple(mapping_key(m) for m in mappings)


def aggregates(report) -> tuple:
    """A :class:`MappingReport`'s aggregate counters and totals."""
    return (report.n_reads, report.n_mapped, report.n_unique,
            report.n_searches, report.total_energy_joules,
            report.total_latency_ns)


def report_key(report) -> tuple:
    """A :class:`MappingReport`'s aggregates and every retained mapping."""
    return aggregates(report) + (mappings_key(report.mappings),)


def _require(same: bool, what: str) -> None:
    if not same:
        raise GateFailure(what)


def _reads_of(dataset) -> np.ndarray:
    return np.stack([record.read.codes for record in dataset.reads])


def _f1_pair(dataset, decisions: np.ndarray, threshold: int) -> "tuple[float, float]":
    """ASMCap's and EDAM's F1 against exact banded edit distance."""
    from repro.eval.confusion import f1_from_decisions
    from repro.eval.experiment import edam_system
    from repro.eval.ground_truth import label_dataset

    truth = label_dataset(dataset, threshold).labels(threshold)
    edam = edam_system(dataset, 0).decide_sweep(_reads_of(dataset),
                                                 np.asarray([threshold]))[0]
    return (f1_from_decisions(decisions, truth),
            f1_from_decisions(edam, truth))


@dataclass
class Gate:
    """What the gate established: reference-checked results over the
    fixed gate block and the simulated metrics read from them."""

    simulated: "dict[str, float]"
    evidence: tuple
    decisions: "np.ndarray | None" = None


@dataclass
class Live:
    """A set-up system plus the gate requests it has served so far."""

    system: object
    gate_results: list = field(default_factory=list)


@dataclass(frozen=True)
class Inputs:
    dataset: object
    seed: int


class _MappingWorkload:
    """What the two read-mapping workloads share: one dataset of gate
    reads followed by the timed window's pool, and F1 over the gate."""

    condition: str
    rows: int
    threshold: int
    gate_reads: int
    pool_reads: int
    result_key = staticmethod(mappings_key)

    def generate(self, seed: int) -> Inputs:
        from repro.genome.datasets import build_dataset

        return Inputs(build_dataset(
            self.condition, n_reads=self.gate_reads + self.pool_reads,
            read_length=256, n_segments=self.rows, seed=seed), seed)

    def quality(self, inputs: Inputs, gate: Gate) -> "tuple[float, float]":
        dataset = dataclasses.replace(
            inputs.dataset, reads=inputs.dataset.reads[:self.gate_reads])
        return _f1_pair(dataset, gate.decisions, self.threshold)


# -- stream-subst ------------------------------------------------------------


class StreamSubst(_MappingWorkload):
    name = "stream-subst"
    condition, rows, threshold = "A", 256, 8
    gate_reads, pool_reads = 2048, 4096

    def _blocks(self, inputs: Inputs) -> "tuple[np.ndarray, np.ndarray]":
        reads = _reads_of(inputs.dataset)
        return reads[:self.gate_reads], reads[self.gate_reads:]

    @staticmethod
    def _request(service, block: np.ndarray) -> tuple:
        service.submit_many(block)
        service.flush()
        return service.last_batch_mappings

    def setup(self, inputs: Inputs) -> Live:
        from repro.service import StreamingMappingService

        dataset = inputs.dataset
        # retain_mappings=False: an endless feed must not grow the
        # aggregate report (peak RSS would then track throughput).
        service = StreamingMappingService(dataset.segments, dataset.model,
                                          threshold=self.threshold,
                                          retain_mappings=False)
        gate, _ = self._blocks(inputs)
        return Live(service, [self._request(service, gate[:REQUEST_READS])])

    def gate(self, live: Live, inputs: Inputs) -> Gate:
        from repro.cam.array import CamArray
        from repro.core.matcher import AsmCapMatcher, MatcherConfig
        from repro.core.pipeline import MappingReport, ReadMappingPipeline

        service, dataset = live.system, inputs.dataset
        gate, _ = self._blocks(inputs)
        for start in range(REQUEST_READS, self.gate_reads, REQUEST_READS):
            live.gate_results.append(
                self._request(service, gate[start:start + REQUEST_READS]))
        streamed = MappingReport()
        for result in live.gate_results:
            for mapping in result:
                streamed.add(mapping)
        # The one-shot reference, built as the service builds its engine.
        array = CamArray(rows=self.rows, cols=dataset.read_length,
                         domain="charge", noisy=True, seed=0)
        array.store(dataset.segments)
        reference = ReadMappingPipeline(
            AsmCapMatcher(array, dataset.model, MatcherConfig(), seed=0)
        ).run_batched(gate, self.threshold)
        _require(report_key(streamed) == report_key(reference),
                 "stream-subst: streamed report != one run_batched")
        _require(aggregates(service.report) == aggregates(reference),
                 "stream-subst: service aggregates != one run_batched")
        stats = service.stats()
        simulated = {
            "model_energy_pj_per_read":
                stats.total_energy_joules / self.gate_reads * 1e12,
            "searches_per_read": stats.n_searches / self.gate_reads,
        }
        return Gate(simulated, (report_key(streamed), simulated),
                    np.stack([m.outcome.decisions
                              for m in streamed.mappings]))

    def window(self, live: Live, inputs: Inputs, seconds: float,
               n_requests: "int | None" = None, key=None,
               tracer=None) -> Window:
        service = live.system
        _, pool = self._blocks(inputs)
        n_blocks = self.pool_reads // REQUEST_READS

        def request(r: int) -> tuple:
            start = (r % n_blocks) * REQUEST_READS
            return self._request(service, pool[start:start + REQUEST_READS])

        return closed_loop(_traced(request, tracer), REQUEST_READS, seconds,
                           MIN_REQUESTS, n_requests, key)

    @staticmethod
    def plan(live: Live) -> dict:
        service = live.system
        return {"kernel_lane": service.backend, "engine": service.engine,
                "micro_batch": service.micro_batch}

    @staticmethod
    def pool_workers(live: Live) -> int:
        return 0

    @staticmethod
    def close(live: Live) -> None:
        live.system.close()


# -- frontend-indel ----------------------------------------------------------


@dataclass
class _Frontend:
    frontend: object
    sessions: list


class FrontendIndel(_MappingWorkload):
    name = "frontend-indel"
    condition, rows, threshold = "B", 1024, 12
    n_sessions = 2
    gate_reads, pool_reads = 2048, 2048

    def _gate_blocks(self, inputs: Inputs, session: int) -> "list[np.ndarray]":
        """Session *session*'s gate requests: its share of the gate reads."""
        reads = _reads_of(inputs.dataset)
        share = self.gate_reads // self.n_sessions
        mine = reads[session * share:(session + 1) * share]
        return [mine[i:i + REQUEST_READS]
                for i in range(0, share, REQUEST_READS)]

    @staticmethod
    def _request(session, block: np.ndarray) -> tuple:
        session.submit_many(block)
        session.flush()
        session.drain()
        return session.last_batch_mappings

    def setup(self, inputs: Inputs) -> Live:
        from repro.service import MappingFrontend

        dataset = inputs.dataset
        frontend = MappingFrontend(dataset.segments, dataset.model,
                                   engine="sharded")
        sessions = [frontend.session(threshold=self.threshold, seed=k,
                                     retain_mappings=False)
                    for k in range(self.n_sessions)]
        first = self._request(sessions[0], self._gate_blocks(inputs, 0)[0])
        return Live(_Frontend(frontend, sessions), [first])

    def gate(self, live: Live, inputs: Inputs) -> Gate:
        from repro.service import StreamingMappingService

        dataset = inputs.dataset
        sessions = live.system.sessions
        per_session = [[] for _ in sessions]
        per_session[0].append(live.gate_results[0])
        for k, session in enumerate(sessions):
            for block in self._gate_blocks(inputs, k)[len(per_session[k]):]:
                per_session[k].append(self._request(session, block))
        evidence = []
        for k, session in enumerate(sessions):
            with StreamingMappingService(
                    dataset.segments, dataset.model,
                    threshold=self.threshold, engine="sharded",
                    seed=k) as standalone:
                expected = [StreamSubst._request(standalone, block)
                            for block in self._gate_blocks(inputs, k)]
                ours = [mappings_key(result) for result in per_session[k]]
                _require(ours == [mappings_key(result)
                                  for result in expected],
                         f"frontend-indel: session {k} != standalone "
                         f"sharded service")
                _require(aggregates(session.report)
                         == aggregates(standalone.report),
                         f"frontend-indel: session {k} aggregates != "
                         f"standalone sharded service")
            evidence.append(ours)
        stats = [session.merged_stats() for session in sessions]
        simulated = {
            "model_energy_pj_per_read":
                sum(s.total_energy_joules for s in stats)
                / self.gate_reads * 1e12,
            "searches_per_read":
                sum(s.n_searches for s in stats) / self.gate_reads,
        }
        decisions = np.stack([m.outcome.decisions
                              for results in per_session
                              for result in results for m in result])
        return Gate(simulated, (tuple(map(tuple, evidence)), simulated),
                    decisions)

    def window(self, live: Live, inputs: Inputs, seconds: float,
               n_requests: "int | None" = None, key=None,
               tracer=None) -> Window:
        """One generator thread keeps one request outstanding per
        session: request ``r`` goes to session ``r % 2`` and is sent as
        soon as request ``r - 2`` (the same session's) was drained."""
        sessions = live.system.sessions
        pool = _reads_of(inputs.dataset)[self.gate_reads:]
        n_blocks = self.pool_reads // REQUEST_READS
        window = Window()
        pending: deque = deque()

        def send(r: int) -> None:
            session = sessions[r % self.n_sessions]
            start = (r % n_blocks) * REQUEST_READS
            token = None
            if tracer is not None:
                token = tracer.open("request", request_id=r, push=False)
                tracer.owners[id(session)] = (token[0], r)
                tracer.owners[id(session.pipeline)] = (token[0], r)
            sent = time.perf_counter()
            try:
                session.submit_many(pool[start:start + REQUEST_READS])
                session.flush()
            except Exception as exc:  # noqa: BLE001 — counted as a failed request
                pending.append((session, sent, token, exc))
            else:
                pending.append((session, sent, token, None))

        def wanted() -> bool:
            if n_requests is not None:
                return next_request < n_requests
            return (time.perf_counter() - begin < seconds
                    or next_request < MIN_REQUESTS)

        cpu_start = cpu_seconds()
        begin = time.perf_counter()
        next_request = 0
        while True:
            if not pending:
                while len(pending) < self.n_sessions and wanted():
                    send(next_request)
                    next_request += 1
                if not pending:
                    break
            session, sent, token, failure = pending.popleft()
            result = None
            if failure is None:
                try:
                    session.drain()
                    result = session.last_batch_mappings
                except Exception as exc:  # noqa: BLE001 — counted below
                    failure = exc
            done = time.perf_counter()
            if token is not None:
                tracer.close(token)
            window.attempted += 1
            if failure is None:
                window.latencies.append(done - sent)
                window.reads += REQUEST_READS
            else:
                window.failed += 1
                window.latencies.append(math.inf)
            if key is not None:
                window.results.append(key(result))
            if wanted():
                send(next_request)
                next_request += 1
        window.elapsed_s = time.perf_counter() - begin
        window.cpu_s = cpu_seconds() - cpu_start
        return window

    @staticmethod
    def plan(live: Live) -> dict:
        from repro.arch.autotune import plan_service_pool

        frontend, session = live.system.frontend, live.system.sessions[0]
        return {"kernel_lane": session.pipeline.backend,
                "engine": frontend.engine,
                "shard_engine": frontend.shard_engine,
                "micro_batch": session.micro_batch,
                "pool_workers": frontend.pool_workers,
                "n_shards": frontend.n_shards,
                "fanout_threads": plan_service_pool(
                    n_shards=frontend.n_shards).shard_workers}

    @staticmethod
    def pool_workers(live: Live) -> int:
        return live.system.frontend.pool_workers

    @staticmethod
    def close(live: Live) -> None:
        live.system.frontend.close()


# -- fig7-sweep --------------------------------------------------------------


class _Recorded:
    """A Fig. 7 system that keeps its last sweep's decisions."""

    def __init__(self, inner):
        self.inner = inner
        self.decisions = None

    def decide(self, *args, **kwargs):
        return self.inner.decide(*args, **kwargs)

    def decide_sweep(self, reads, thresholds):
        self.decisions = np.asarray(self.inner.decide_sweep(reads,
                                                            thresholds))
        return self.decisions


class Fig7Sweep:
    name = "fig7-sweep"
    condition = "B"
    thresholds = tuple(range(2, 17, 2))
    gate_threshold = 8
    #: Reads per repetition: 128 (not the paper's 256) so that a window
    #: of the benchmark's length completes MIN_REQUESTS repetitions.
    reads_per_request, segments = 128, 256
    gate_requests = 10

    def generate(self, seed: int) -> Inputs:
        """The first repetition's dataset, which set-up builds on; every
        request draws its own dataset from its seed inside ``run_sweep``."""
        from repro.genome.datasets import build_dataset

        return Inputs(build_dataset(self.condition,
                                    n_reads=self.reads_per_request,
                                    read_length=256,
                                    n_segments=self.segments,
                                    seed=self.request_seed(seed, 0)), seed)

    @staticmethod
    def request_seed(seed: int, r: int) -> int:
        # run_sweep and build_dataset derive streams at offsets up to
        # 2 * 7919 from this base; the stride keeps requests disjoint.
        return seed * 100_000_000 + r * 20_011

    def _sweep(self, inputs: Inputs, r: int, systems: dict):
        from repro.eval.sweeps import run_sweep

        return run_sweep(self.condition, systems, list(self.thresholds),
                         n_runs=1, n_reads=self.reads_per_request,
                         read_length=256, n_segments=self.segments,
                         seed=self.request_seed(inputs.seed, r))

    @staticmethod
    def _systems() -> dict:
        from repro.eval.experiment import asmcap_full_system, edam_system

        return {"ASMCap": asmcap_full_system, "EDAM": edam_system}

    def setup(self, inputs: Inputs) -> Live:
        """Build both systems on the first repetition's dataset and
        decide its sweep."""
        dataset = inputs.dataset
        systems = [factory(dataset, self.request_seed(inputs.seed, 0))
                   for factory in self._systems().values()]
        for system in systems:
            system.decide_sweep(_reads_of(dataset),
                                np.asarray(self.thresholds))
        return Live(systems)

    def gate(self, live: Live, inputs: Inputs) -> Gate:
        from repro.cost.views import search_stats
        from repro.eval.experiment import asmcap_full_system

        captured = []

        def recording(factory):
            def build(dataset, seed):
                system = _Recorded(factory(dataset, seed))
                captured.append((factory, dataset, seed, system))
                return system
            return build

        systems = {name: recording(factory)
                   for name, factory in self._systems().items()}
        results = [self._sweep(inputs, r, systems)
                   for r in range(self.gate_requests)]
        t_index = self.thresholds.index(self.gate_threshold)
        energy = searches = 0.0
        for factory, dataset, seed, system in captured:
            if factory is not asmcap_full_system:
                continue
            fresh = asmcap_full_system(dataset, seed)
            batch = fresh.matcher.match_batch(_reads_of(dataset),
                                              self.gate_threshold)
            _require(np.array_equal(system.decisions[t_index],
                                    batch.decisions),
                     "fig7-sweep: sweep slice != match_batch")
            stats = search_stats(system.inner.matcher.array.ledger)
            energy += stats.total_energy_joules
            searches += stats.n_searches
        n_reads = self.gate_requests * self.reads_per_request
        simulated = {
            "f1": float(np.mean([res.systems["ASMCap"].mean_f1()
                                 for res in results])),
            "f1_edam": float(np.mean([res.systems["EDAM"].mean_f1()
                                      for res in results])),
            "model_energy_pj_per_read": energy / n_reads * 1e12,
            "searches_per_read": searches / n_reads,
        }
        return Gate(simulated, (tuple(self.result_key(r) for r in results),
                                simulated))

    def window(self, live: Live, inputs: Inputs, seconds: float,
               n_requests: "int | None" = None, key=None,
               tracer=None) -> Window:
        systems = self._systems()

        def request(r: int):
            return self._sweep(inputs, self.gate_requests + r, systems)

        return closed_loop(_traced(request, tracer), self.reads_per_request,
                           seconds, MIN_REQUESTS, n_requests, key)

    @staticmethod
    def quality(inputs: Inputs, gate: Gate) -> "tuple[float, float]":
        return gate.simulated["f1"], gate.simulated["f1_edam"]

    @staticmethod
    def result_key(result) -> tuple:
        return tuple((name, series.f1_runs.tobytes())
                     for name, series in result.systems.items())

    @staticmethod
    def plan(live: Live) -> dict:
        from repro.arch.autotune import sweep_worker_count

        return {"kernel_lane": live.system[0].matcher.array.backend,
                "engine": "sweep",
                "sweep_workers": sweep_worker_count(1)}

    @staticmethod
    def pool_workers(live: Live) -> int:
        return 0

    @staticmethod
    def close(live: Live) -> None:
        return None


def _traced(request, tracer):
    """Wrap a synchronous request in a ``request`` span when tracing."""
    if tracer is None:
        return request

    def traced(r: int):
        with tracer.span("request", request_id=r):
            return request(r)
    return traced


WORKLOADS = {w.name: w for w in (StreamSubst(), FrontendIndel(), Fig7Sweep())}
