"""Long-running streaming read-mapping service, and the one session core.

Every pre-existing execution path is one-shot: the caller hands
:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched` (or the
sharded pipeline) a complete read block and gets a report back.  A
sequencing front-end does not work like that — reads arrive
incrementally, for hours.  :class:`StreamingMappingService` is the
long-running entry point:

* **feed** — reads are submitted one at a time (or from any iterator)
  and coalesced into micro-batches sized by
  :func:`repro.arch.autotune.plan_microbatch`;
* **dispatch** — each full micro-batch flows through the existing
  batched (:meth:`~repro.core.pipeline.ReadMappingPipeline.run_batched`)
  or sharded (:meth:`~repro.core.pipeline.ShardedReadMappingPipeline.run`)
  engine with its global read offset as the determinism key base;
* **bounded memory** — the arrays' cost ledgers run in compaction mode
  (:class:`repro.cost.ledger.CostLedger`), folding fully-materialised
  pass events into exact checkpoints, so the retained event count
  plateaus instead of growing linearly with the stream;
* **observe** — :meth:`StreamingMappingService.stats` snapshots a
  :class:`ServiceStats` (throughput, reads in flight, per-strategy
  pass counts, energy/latency read from the compacted ledger views);
* **drain / close** — :meth:`flush` dispatches a partial micro-batch,
  :meth:`drain` flushes and returns the aggregate report,
  :meth:`close` drains and ends the lifecycle (the service is also a
  context manager).

The session itself — read validation, the coalescing buffer, key
assignment, the report fold and the statistics — is
:class:`SessionCore`, which this service and every
:class:`~repro.service.frontend.MappingSession` share.  The service is
the core with the *inline* dispatch policy: a full micro-batch runs
right away, on the caller's thread.

**Determinism contract.**  Read ``i`` of the stream (0-based
submission order) is keyed as global read ``i``, so a streamed session
is **bit-identical** to one ``run_batched`` (or one sharded ``run``)
call over the same reads with the same seeds — per-read decisions,
per-read costs and the aggregate report — for *any* micro-batch
boundaries.  ``tests/service/test_service.py`` asserts this over
randomized boundaries; ``benchmarks/bench_service_stream.py`` asserts
it at soak scale while demonstrating the flat-memory ledger.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.arch.autotune import plan_microbatch
from repro.arch.scheduler import bank_row_ranges
from repro.cam.array import StoredReference
from repro.core.matcher import AsmCapMatcher, MatcherConfig
from repro.core.pipeline import (
    MappingReport,
    ReadMapping,
    ReadMappingPipeline,
    ShardedReadMappingPipeline,
    encode_shard_references,
    resolve_shard_plan,
)
from repro.cost.events import ReferenceLoad
from repro.cost.ledger import CostLedger
from repro.cost.views import (
    SearchStats,
    fold_ledger_observability,
    search_stats,
)
from repro.errors import CamConfigError, ServiceError
from repro.faults.hooks import fire as _fire_fault
from repro.genome.edits import ErrorModel
from repro.genome.reads import ReadRecord
from repro.knobs import validate_reference_source, validate_service_knobs
from repro.refstore.format import slice_stored_reference

__all__ = [
    "DEFAULT_SERVICE_COMPACTION",
    "ServiceStats",
    "SessionCore",
    "StreamingMappingService",
    "build_pipeline",
    "check_engine",
    "record_reference_loads",
    "seal_reference",
    "validate_service_knobs",
]

_ENGINES = ("batched", "sharded")

#: Default live-event bound for the service's compacting ledgers: deep
#: enough that a whole micro-batch's passes (2 + 2*NR events) stay
#: inspectable between folds, shallow enough that memory is flat.
DEFAULT_SERVICE_COMPACTION = 64


def check_engine(engine: str, shard_engine: "str | None") -> None:
    """Reject an unknown service engine, and a ``shard_engine`` on the
    batched engine (which has no shard fan-out), with
    :class:`~repro.errors.ServiceError`."""
    if engine not in _ENGINES:
        raise ServiceError(
            f"engine must be one of {_ENGINES}, got {engine!r}"
        )
    if shard_engine is not None and engine != "sharded":
        raise ServiceError(
            f"shard_engine={shard_engine!r} applies to the sharded "
            f"engine only (engine={engine!r})"
        )


def seal_reference(engine: str,
                   reference: "np.ndarray | StoredReference",
                   n_shards: "int | None" = None,
                   chunk_size: "int | None" = None,
                   ) -> "tuple[tuple[StoredReference, ...], int | None]":
    """The sealed reference(s) an engine searches, and the resolved
    sharded chunk size (``None`` on the batched engine).

    A segment matrix is encoded exactly once — one
    :meth:`StoredReference.encode`, or one per shard through
    :func:`~repro.core.pipeline.encode_shard_references`.  A sealed
    reference is borrowed whole, or sliced zero-copy into the bank
    ranges ``encode_shard_references`` would use, so both sources
    resolve to the same shards.
    """
    if engine == "batched":
        if not isinstance(reference, StoredReference):
            reference = StoredReference.encode(reference)
        return (reference,), None
    if not isinstance(reference, StoredReference):
        return encode_shard_references(reference, n_shards=n_shards,
                                       chunk_size=chunk_size)
    n_rows = reference.n_segments
    n_shards, chunk_size = resolve_shard_plan(n_rows, reference.cols,
                                              n_shards, chunk_size)
    return (slice_stored_reference(reference,
                                   bank_row_ranges(n_rows, n_shards)),
            chunk_size)


def record_reference_loads(ledger: CostLedger,
                           shards: "tuple[StoredReference, ...]") -> None:
    """Charge writing the reference into the arrays: one
    :class:`~repro.cost.events.ReferenceLoad` per shard, recorded once
    by the owner of the arrays' reference — a standalone service in
    its pipeline ledger, a frontend in its own ledger (never per
    session)."""
    for shard in shards:
        ledger.record(ReferenceLoad(n_segments=shard.n_segments,
                                    n_cells=shard.cols))


def build_pipeline(engine: str,
                   shards: "tuple[StoredReference, ...]",
                   error_model: ErrorModel,
                   config: "MatcherConfig | None",
                   *,
                   domain: str,
                   noisy: bool,
                   seed: int,
                   compaction: "int | None",
                   backend: "str | None",
                   chunk_size: "int | None" = None,
                   max_workers: "int | None" = None,
                   shard_engine: "str | None" = None,
                   executor=None,
                   process_engine=None):
    """One session's engine over sealed reference shard(s).

    Only per-session state is built here — arrays with their own seed
    (the sharded engine derives ``seed + s`` per shard), matchers and
    compacting ledgers; every array borrows its shard.  ``executor`` /
    ``process_engine`` inject a shared shard fan-out (sharded engine
    only; see :class:`~repro.core.pipeline.ShardedReadMappingPipeline`).
    """
    if engine == "batched":
        return ReadMappingPipeline(AsmCapMatcher.over_stored(
            shards[0], error_model, config, domain=domain, noisy=noisy,
            seed=seed, ledger_compaction=compaction, backend=backend,
        ))
    return ShardedReadMappingPipeline(
        shards, error_model, n_shards=None, config=config, domain=domain,
        noisy=noisy, seed=seed, max_workers=max_workers,
        chunk_size=chunk_size, ledger_compaction=compaction,
        backend=backend, engine=shard_engine, executor=executor,
        process_engine=process_engine,
    )


@dataclass(frozen=True)
class ServiceStats:
    """One observability snapshot of a streaming service.

    Attributes
    ----------
    reads_submitted / reads_dispatched / reads_in_flight:
        Stream accounting: everything accepted, everything that went
        through an engine dispatch, and the difference (reads buffered
        or queued, not yet folded into the report).
    reads_mapped:
        Dispatched reads with at least one matched row.
    batches_dispatched / micro_batch:
        Micro-batches issued so far and the configured batch size.
    n_searches:
        Physical search passes issued (from the ledger views, folded
        events included).
    pass_counts:
        Per-strategy pass counts by event class
        (``EdStarPass`` / ``HdacPass`` / ``TasrRotationPass``),
        checkpoint summaries included.
    total_energy_joules / total_latency_ns:
        Modelled hardware cost, read from the (compacted) ledger
        views — bit-identical to an uncompacted run's views.
    wall_seconds / reads_per_second:
        Simulator wall-clock since the first submission and the
        dispatch throughput over it.
    ledger_events_live / ledger_events_folded /
    ledger_population_elements:
        Bounded-memory evidence: live events, events folded into
        checkpoints, and retained mismatch-population elements
        (the dominant ledger payload), summed over every ledger.
    compactions:
        Total prefix folds across every ledger.
    """

    reads_submitted: int
    reads_dispatched: int
    reads_in_flight: int
    reads_mapped: int
    batches_dispatched: int
    micro_batch: int
    n_searches: int
    pass_counts: "dict[str, int]"
    total_energy_joules: float
    total_latency_ns: float
    wall_seconds: float
    reads_per_second: float
    ledger_events_live: int
    ledger_events_folded: int
    ledger_population_elements: int
    compactions: int


class SessionCore:
    """The one implementation of a mapping session over a built engine.

    Owns read validation, the coalescing buffer, the determinism key
    of every micro-batch (its first read's 0-based submission index,
    fixed when the batch leaves the buffer), the serial FIFO fold of
    batch reports into the aggregate :class:`MappingReport`, the
    last-batch hand-off, the counters and the :class:`ServiceStats`
    builder.  Subclasses supply only a dispatch policy:

    * ``_hand_off_locked(wait)`` moves the buffered reads on (run them
      now, or queue them) and returns how many it moved; with
      ``wait=True`` it also waits until they are folded;
    * ``_on_full_locked()`` is what :meth:`submit` does when the
      buffer reaches :attr:`micro_batch`;
    * ``_check_open_locked()`` raises once the session is closed;
    * ``close()`` drains and ends the lifecycle.

    Every ``*_locked`` method runs with ``_lock`` held.  Engine runs
    and ledger reads serialise on ``_dispatch_mutex``, which is always
    taken *before* ``_lock``.  Without a ``lock`` (the inline policy,
    which runs the engine inside the submit/flush critical section),
    one reentrant lock plays both roles.
    """

    def __init__(self, pipeline, engine: str, threshold: int,
                 micro_batch: int, retain_mappings: bool, cols: int,
                 lock=None):
        self._pipeline = pipeline
        self._engine_kind = engine
        self._threshold = int(threshold)
        self._micro_batch = int(micro_batch)
        self._retain_mappings = bool(retain_mappings)
        self._cols = int(cols)
        self._dispatch_mutex = threading.RLock()
        self._lock = self._dispatch_mutex if lock is None else lock
        # Everything below is guarded by _lock.
        self._buffer: "list[np.ndarray]" = []
        self._report = MappingReport()
        self._last_batch: "tuple[ReadMapping, ...]" = ()
        self._n_submitted = 0
        self._n_dispatched = 0
        self._n_batches = 0
        self._closed = False
        self._started_at: "float | None" = None

    # -- configuration ------------------------------------------------------

    @property
    def engine(self) -> str:
        """``"batched"`` or ``"sharded"``."""
        return self._engine_kind

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def micro_batch(self) -> int:
        """Reads coalesced per engine dispatch."""
        return self._micro_batch

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pipeline(self):
        """The underlying engine (a :class:`ReadMappingPipeline` or a
        :class:`ShardedReadMappingPipeline`)."""
        return self._pipeline

    @property
    def report(self) -> MappingReport:
        """The aggregate report over every *dispatched* read so far.

        Buffered or queued reads are not in it yet; :meth:`drain` for
        a complete view.  A defensive
        :meth:`~repro.core.pipeline.MappingReport.snapshot` — callers
        may mutate it without corrupting the live aggregates or
        breaking the streamed/one-shot bit-identity contract.
        :meth:`drain` and ``close`` return the same kind of snapshot.
        """
        with self._lock:
            return self._report.snapshot()

    @property
    def batches_dispatched(self) -> int:
        """Micro-batches the engine has completed so far."""
        with self._lock:
            return self._n_batches

    @property
    def last_batch_mappings(self) -> "tuple[ReadMapping, ...]":
        """The most recently completed micro-batch's per-read results.

        Replaced wholesale on every dispatch (one micro-batch of
        memory, independent of ``retain_mappings``) — the hand-off
        surface :func:`stream_mapped` drains, bounded even on endless
        feeds.
        """
        with self._lock:
            return self._last_batch

    # -- feed ---------------------------------------------------------------

    def submit(self, read: "np.ndarray | ReadRecord") -> None:
        """Accept one read into the coalescing buffer.

        Whenever the buffer fills, the micro-batch is dispatched
        (standalone service) or queued (frontend session).  Raises
        :class:`~repro.errors.CamConfigError` for a read that does not
        fit the reference width and
        :class:`~repro.errors.ServiceError` once the session (or its
        frontend) is closed.  On a frontend session a full backlog
        blocks here (``backpressure="block"``) or raises
        :class:`~repro.errors.ServiceError` (``backpressure="error"``);
        a rejected submit is **all-or-nothing** — the read was *not*
        accepted, so the caller retries the same read after backing
        off (no risk of duplicating it).
        """
        codes = np.asarray(
            read.read.codes if isinstance(read, ReadRecord) else read,
            dtype=np.uint8,
        )
        if codes.shape != (self._cols,):
            raise CamConfigError(
                f"read shape {codes.shape} does not fit reference width "
                f"{self._cols}"
            )
        with self._lock:
            self._check_open_locked()
            if self._started_at is None:
                self._started_at = time.perf_counter()
            self._buffer.append(codes)
            self._n_submitted += 1
            if len(self._buffer) >= self._micro_batch:
                self._on_full_locked()

    def submit_many(
            self,
            reads: "Iterable[np.ndarray] | Iterable[ReadRecord]") -> int:
        """Consume any read iterable, handing batches on as they fill.

        The iterable is read lazily — an endless generator works; only
        one micro-batch of reads is ever coalesced.  Returns how many
        reads were accepted.
        """
        n = 0
        for read in reads:
            self.submit(read)
            n += 1
        return n

    def flush(self) -> int:
        """Hand the buffered reads on now, full micro-batch or not.

        Returns how many reads were handed on (0 when the buffer was
        empty — flushing twice is a no-op, not an error).  The
        standalone service runs them before returning; a frontend
        session only queues them (:meth:`drain` waits).
        """
        with self._lock:
            self._check_open_locked()
            return self._hand_off_locked()

    def drain(self) -> MappingReport:
        """Flush, wait until every accepted read is folded, and return
        the aggregate report (a defensive snapshot).

        The session stays open — a long-running caller drains at
        checkpoint boundaries and keeps feeding.
        """
        with self._lock:
            self._check_open_locked()
            self._hand_off_locked(wait=True)
            return self._report.snapshot()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability ------------------------------------------------------

    def ledgers(self) -> "tuple[CostLedger, ...]":
        """Every cost ledger the session owns (deterministic order:
        system traffic first for the sharded engine, then arrays)."""
        if self._engine_kind == "batched":
            return (self._pipeline.ledger,)
        return (self._pipeline.ledger,
                *(m.array.ledger for m in self._pipeline.matchers))

    def merged_stats(self) -> SearchStats:
        """Whole-session search counters (exact under compaction).

        Delegates to the engine's own fold so there is exactly one
        definition of the whole-system aggregation per engine.
        """
        with self._dispatch_mutex:
            if self._engine_kind == "sharded":
                return self._pipeline.merged_stats()
            return search_stats(self._pipeline.ledger)

    def stats(self) -> ServiceStats:
        """Snapshot the session's observable state (see
        :class:`ServiceStats`)."""
        # The dispatch mutex freezes the ledgers, then _lock freezes
        # the counters — the order every dispatch takes them in.
        with self._dispatch_mutex:
            stats = self.merged_stats()
            if (self._engine_kind == "sharded"
                    and self._pipeline.engine == "process"):
                # Worker-side ledger summaries: the per-task events
                # were folded at the process boundary.
                observed = self._pipeline.ledger_observability()
            else:
                observed = fold_ledger_observability(self.ledgers())
            (pass_counts, events_live, events_folded, population,
             compactions) = observed
            with self._lock:
                wall = (0.0 if self._started_at is None
                        else time.perf_counter() - self._started_at)
                return ServiceStats(
                    reads_submitted=self._n_submitted,
                    reads_dispatched=self._n_dispatched,
                    reads_in_flight=self._n_submitted - self._n_dispatched,
                    reads_mapped=self._report.n_mapped,
                    batches_dispatched=self._n_batches,
                    micro_batch=self._micro_batch,
                    n_searches=stats.n_searches,
                    pass_counts=pass_counts,
                    total_energy_joules=stats.total_energy_joules,
                    total_latency_ns=stats.total_latency_ns,
                    wall_seconds=wall,
                    reads_per_second=(self._n_dispatched / wall
                                      if wall > 0.0 else 0.0),
                    ledger_events_live=events_live,
                    ledger_events_folded=events_folded,
                    ledger_population_elements=population,
                    compactions=compactions,
                )

    # -- internals ----------------------------------------------------------

    def _take_locked(self) -> "tuple[int, list[np.ndarray]]":
        """Detach the buffered reads with their determinism key base:
        the first read's submission index, fixed here — before any
        queueing or scheduling could reorder the batch."""
        batch, self._buffer = self._buffer, []
        return self._n_submitted - len(batch), batch

    def _run(self, first: int, codes: "list[np.ndarray]") -> None:
        """Run one micro-batch through the engine and fold its report.

        The caller holds the dispatch mutex.  The fold repeats, per
        read and in order, the ``add()`` sequence a one-shot run
        performs, so the aggregate totals are bit-identical to it.
        """
        if self._engine_kind == "batched":
            report = self._pipeline.run_batched(
                codes, self._threshold, first_read_index=first)
        else:
            report = self._pipeline.run(
                codes, self._threshold, first_read_index=first)
        with self._lock:
            for mapping in report.mappings:
                self._report.add(mapping)
            if not self._retain_mappings:
                self._report.mappings.clear()
            self._last_batch = tuple(report.mappings)
            self._n_dispatched += len(codes)
            self._n_batches += 1


class StreamingMappingService(SessionCore):
    """Accept reads incrementally; map them in autotuned micro-batches.

    Parameters
    ----------
    segments:
        The reference, in one of three forms: a ``(n_rows, N)`` uint8
        segment matrix (encoded here, once); a **sealed**
        :class:`~repro.cam.array.StoredReference` — e.g. from
        :func:`repro.refstore.open_stored_reference` — whose encoding
        is reused with **zero** further encode passes; or, with
        ``catalog=``, the *name* of a reference to borrow from the
        catalog.  All three are bit-identical in decisions, costs and
        reports (the reference persistence contract — DESIGN.md).
    error_model:
        Workload error rates driving the HDAC/TASR policies.
    threshold:
        The matching threshold ``T`` applied to every read.
    config:
        Strategy configuration (default: the paper's full setting).
    engine:
        ``"batched"`` (one CAM array, the default) or ``"sharded"``
        (the reference partitioned across autotuned shards).
    micro_batch:
        Reads coalesced per dispatch; ``None`` autotunes via
        :func:`repro.arch.autotune.plan_microbatch`.
    compaction:
        Live-event bound handed to every ledger
        (:data:`DEFAULT_SERVICE_COMPACTION`); ``None`` disables
        compaction and reproduces the append-only ledgers of the
        one-shot paths (the memory baseline the soak benchmark
        compares against).
    domain / noisy / seed:
        Array configuration.  The batched engine builds its array with
        ``seed`` and its matcher with the same ``seed`` (the
        convention of ``benchmarks/bench_batch_pipeline.py``); the
        sharded engine derives per-shard seeds exactly as
        :class:`~repro.core.pipeline.ShardedReadMappingPipeline` does
        — so a one-shot pipeline built the same way is bit-identical.
    n_shards / chunk_size / max_workers:
        Sharded-engine knobs, forwarded to the sharded pipeline
        (``None`` autotunes).
    backend:
        Kernel backend for the engine's mismatch-count primitives
        (``None`` = the standard selection order; see
        :mod:`repro.kernels`).  Bit-identical across backends, so a
        streamed session keeps its one-shot bit-identity contract
        whichever backend runs.
    shard_engine:
        Sharded-engine fan-out execution engine — ``"thread"``,
        ``"process"`` or ``None`` (the standard resolution order; see
        :class:`~repro.core.pipeline.ShardedReadMappingPipeline`).
        Sharded engine only; bit-identical either way, so the knob
        never touches the determinism contract.
    retain_mappings:
        Keep every per-read :class:`~repro.core.pipeline.ReadMapping`
        in the aggregate report (the one-shot behaviour, needed for
        bit-identity comparisons).  ``False`` drops them after their
        counters fold in, bounding result memory for endless streams
        (aggregate totals stay bit-identical — the same additions run
        in the same order).
    catalog:
        A :class:`~repro.refstore.ReferenceCatalog` to borrow the
        reference from; ``segments`` must then be a registered
        reference *name*.  The lease pins the mapped file for the
        service's lifetime (the catalog will not evict it) and is
        released by :meth:`close`.
    """

    def __init__(self,
                 segments: "np.ndarray | StoredReference | str",
                 error_model: ErrorModel,
                 threshold: int,
                 config: "MatcherConfig | None" = None,
                 engine: str = "batched",
                 micro_batch: "int | None" = None,
                 compaction: "int | None" = DEFAULT_SERVICE_COMPACTION,
                 domain: str = "charge",
                 noisy: bool = True,
                 seed: int = 0,
                 n_shards: "int | None" = None,
                 chunk_size: "int | None" = None,
                 max_workers: "int | None" = None,
                 backend: "str | None" = None,
                 shard_engine: "str | None" = None,
                 retain_mappings: bool = True,
                 catalog: "object | None" = None):
        check_engine(engine, shard_engine)
        validate_service_knobs(micro_batch, compaction,
                               max_workers=max_workers, backend=backend,
                               engine=shard_engine)
        validate_reference_source(segments, catalog=catalog)
        self._lease = None if catalog is None else catalog.borrow(segments)
        try:
            shards, chunk_size = seal_reference(
                engine, segments if self._lease is None
                else self._lease.reference, n_shards, chunk_size)
            pipeline = build_pipeline(
                engine, shards, error_model, config, domain=domain,
                noisy=noisy, seed=seed, compaction=compaction,
                backend=backend, chunk_size=chunk_size,
                max_workers=max_workers, shard_engine=shard_engine,
            )
            record_reference_loads(pipeline.ledger, shards)
        except BaseException:
            if self._lease is not None:
                self._lease.close()
            raise
        cols = shards[0].cols
        if micro_batch is None:
            micro_batch = plan_microbatch(
                sum(shard.n_segments for shard in shards), cols,
                n_shards=len(shards))
        super().__init__(pipeline, engine, threshold, micro_batch,
                         retain_mappings, cols)

    @property
    def shard_engine(self) -> "str | None":
        """The sharded pipeline's resolved fan-out engine
        (``"thread"`` or ``"process"``); ``None`` on the batched
        engine, which has no shard fan-out."""
        if self._engine_kind != "sharded":
            return None
        return self._pipeline.engine

    @property
    def backend(self) -> str:
        """Kernel backend name the engine's arrays search with."""
        return self._pipeline.backend

    # Bound on this class, not only inherited, so a profiler can patch
    # the standalone service's entry points apart from a session's.
    submit_many = SessionCore.submit_many
    flush = SessionCore.flush

    def close(self) -> MappingReport:
        """Drain, end the lifecycle, and return the final report.

        Idempotent; every later :meth:`submit` / :meth:`flush` raises
        :class:`~repro.errors.ServiceError`.  The returned report is a
        defensive snapshot (see :attr:`report`); each call returns a
        fresh one.
        """
        with self._lock:
            if not self._closed:
                self._hand_off_locked()
                if self._engine_kind == "sharded":
                    # Release the sharded engine's persistent fan-out.
                    self._pipeline.close()
                if self._lease is not None:
                    # Unpin the catalog reference only after the
                    # engine that searched its arrays is gone.
                    self._lease.close()
                self._closed = True
            return self._report.snapshot()

    # -- inline dispatch policy ---------------------------------------------

    def _check_open_locked(self) -> None:
        if self._closed:
            raise ServiceError("the streaming service has been closed")

    def _hand_off_locked(self, wait: bool = False) -> int:
        """Run the buffered micro-batch through the engine, here, on
        the caller's thread (so ``wait`` is always satisfied)."""
        if not self._buffer:
            return 0
        # Chaos hook, before the buffer is taken: a poisoned-read fault
        # raising here leaves the reads coalesced, so a later drain
        # (e.g. the close() path) still dispatches them once.
        _fire_fault("service.stream.dispatch", service=self,
                    first_read_index=self._n_submitted - len(self._buffer))
        first, batch = self._take_locked()
        self._run(first, batch)
        return len(batch)

    _on_full_locked = _hand_off_locked


def stream_mapped(service: StreamingMappingService,
                  reads: "Iterable[np.ndarray] | Iterable[ReadRecord]",
                  ) -> "Iterator[ReadMapping]":
    """Feed *reads* through *service*, yielding mappings as batches
    complete.

    A convenience generator for pull-style callers: reads are
    submitted lazily and each completed micro-batch's
    :class:`~repro.core.pipeline.ReadMapping` results are yielded in
    read order (the trailing partial batch is flushed at the end).
    Results are handed off per micro-batch
    (:attr:`StreamingMappingService.last_batch_mappings`), so memory
    stays bounded on endless feeds — pair with
    ``retain_mappings=False`` so the aggregate report does not retain
    them either.
    """
    for read in reads:
        before = service.batches_dispatched
        service.submit(read)
        # One submit dispatches at most one micro-batch, and it does
        # so inside this call — a new batch here is always ours.
        if service.batches_dispatched != before:
            yield from service.last_batch_mappings
    before = service.batches_dispatched
    service.flush()
    if service.batches_dispatched != before:
        yield from service.last_batch_mappings
