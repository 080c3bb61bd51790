"""Multi-session concurrent mapping front end over one shared reference.

The accelerator's whole economic argument is amortisation: one
expensive resource — the reference, encoded and stored in the CAM
arrays — serves an entire read workload.  PR 4's
:class:`~repro.service.stream.StreamingMappingService` modelled the
*time* axis of that amortisation (a single long-running feed) but not
the *client* axis: every service instance re-encoded and re-stored the
reference and served exactly one synchronous caller.

:class:`MappingFrontend` adds the client axis:

* **encode once** — the reference is stored and one-hot-encoded
  exactly once, as a sealed, immutable
  :class:`~repro.cam.array.StoredReference` (per shard for the sharded
  engine), shared by every session;
* **many sessions** — :meth:`MappingFrontend.session` opens an
  independent :class:`MappingSession`: its own seed (keyed noise
  prefix, HDAC stream), threshold, micro-batch size, compacting cost
  ledgers and aggregate report, all borrowing the shared reference;
* **one worker pool** — a persistent, autotuned
  (:func:`repro.arch.autotune.plan_service_pool`) pool of dispatch
  workers executes queued micro-batches **fairly**: the scheduler
  round-robins across sessions with pending work, so one heavy feed
  cannot starve the others; a session's own batches run serially, in
  submission order (one worker at a time), which is what keeps its
  report folding deterministic;
* **bounded backlog** — at most ``max_backlog`` queued micro-batches
  frontend-wide; a full backlog either blocks the submitting thread
  (``backpressure="block"``, the default) or raises
  :class:`~repro.errors.ServiceError` (``backpressure="error"``);
* for the sharded engine, every session's pipeline shares the
  frontend's one persistent shard fan-out — a thread executor
  (``shard_engine="thread"``) or one
  :class:`~repro.parallel.ProcessShardEngine` whose spawned workers
  attach the shared-memory shard references once and serve every
  session's self-contained tasks (``shard_engine="process"``) —
  instead of owning a pool each.

**Session-isolation / determinism contract.**  A session configured
with ``(seed, threshold, micro_batch, compaction)`` and fed a read
sequence is **bit-identical** — per-read decisions, per-read costs,
and the aggregate report — to a standalone
:class:`~repro.service.stream.StreamingMappingService` built with the
same configuration over the same reads, no matter how many other
sessions run concurrently, how their feeds interleave, how many pool
workers exist, or where micro-batch boundaries fall.  It holds by
construction: a session *is* the standalone service's
:class:`~repro.service.stream.SessionCore` (buffer, key assignment,
report fold, statistics) over a pipeline from the same
:func:`~repro.service.stream.build_pipeline`; only the dispatch policy
differs, and every random draw is keyed by ``(seed, read index,
pass)`` — never by wall-clock, thread or batch shape — over an
immutable shared reference.  ``tests/service/test_frontend.py`` keeps
asserting it under concurrent randomized feeds as a regression check;
DESIGN.md states the binding rules.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.arch.autotune import (
    MIN_SERVICE_BACKLOG,
    plan_microbatch,
    plan_service_pool,
    resolve_engine,
)
from repro.cam.array import StoredReference
from repro.core.matcher import MatcherConfig
from repro.core.pipeline import MappingReport
from repro.cost.ledger import CostLedger
from repro.errors import CamConfigError, ServiceError
from repro.faults.hooks import fire as _fire_fault
from repro.genome.edits import ErrorModel
from repro.parallel import ProcessShardEngine
from repro.service.stream import (
    DEFAULT_SERVICE_COMPACTION,
    SessionCore,
    build_pipeline,
    check_engine,
    record_reference_loads,
    seal_reference,
    validate_service_knobs,
)

_BACKPRESSURE = ("block", "error")


class MappingSession(SessionCore):
    """One independent client stream over a frontend's shared reference.

    The same :class:`~repro.service.stream.SessionCore` the standalone
    :class:`~repro.service.stream.StreamingMappingService` runs
    (``submit`` / ``submit_many`` / ``flush`` / ``drain`` / ``close`` /
    ``stats`` / ``report``), with the *pooled* dispatch policy: full
    micro-batches are queued to the frontend's worker pool, and
    :meth:`drain` / :meth:`close` wait for this session's queue to
    empty.  A session is intended to be fed by one client thread
    (results and lifecycle are still safe to *read* from others).

    Created by :meth:`MappingFrontend.session` — not directly.
    """

    def __init__(self, frontend: "MappingFrontend", index: int,
                 pipeline, threshold: int, micro_batch: int,
                 retain_mappings: bool, cols: int):
        super().__init__(pipeline, frontend.engine, threshold,
                         micro_batch, retain_mappings, cols,
                         lock=frontend._lock)
        self._frontend = frontend
        self._index = index
        # Guarded by the frontend's lock, like the core's state.
        self._pending: "deque[tuple[int, list[np.ndarray]]]" = deque()
        self._executing = False
        self._closing = False
        self._failure: "BaseException | None" = None
        self._idle = threading.Condition(frontend._lock)

    @property
    def index(self) -> int:
        """Stable session number within the frontend (open order)."""
        return self._index

    # Bound on this class, not only inherited, so a profiler can patch
    # a session's entry points apart from the standalone service's.
    submit_many = SessionCore.submit_many
    flush = SessionCore.flush

    def close(self) -> MappingReport:
        """Drain, end the session, and return the final report.

        Idempotent; later :meth:`submit` / :meth:`flush` /
        :meth:`drain` calls raise
        :class:`~repro.errors.ServiceError`.  Each call returns a
        fresh defensive snapshot.
        """
        with self._lock:
            if not self._closed:
                self._check_failure_locked()
                # Refuse new feeds from here on: a concurrent submitter
                # refilling the queue must not keep the drain below
                # from ever terminating.
                self._closing = True
                if self._frontend._running:
                    self._hand_off_locked(wait=True)
                elif self._buffer or self._pending or self._executing:
                    # The frontend stopped (no workers left) while this
                    # session still had accepted-but-unexecuted reads:
                    # surface the loss instead of waiting forever.
                    raise ServiceError(
                        f"the mapping frontend was closed while session "
                        f"{self._index} still had reads in flight"
                    )
                self._closed = True
            return self._report.snapshot()

    # -- pooled dispatch policy (frontend lock held) ------------------------

    def _check_failure_locked(self) -> None:
        if self._failure is not None:
            raise ServiceError(
                f"session {self._index} dispatch failed: "
                f"{self._failure!r}"
            ) from self._failure

    def _check_open_locked(self) -> None:
        self._check_failure_locked()
        if self._closed or self._closing:
            raise ServiceError(f"session {self._index} has been closed")
        if not self._frontend._running:
            raise ServiceError("the mapping frontend has been closed")

    def _on_full_locked(self) -> None:
        """Queue the full buffer; when the backlog is full under
        ``backpressure="error"``, hand the just-submitted read back so
        the rejected submit stays all-or-nothing."""
        try:
            self._hand_off_locked()
        except ServiceError:
            self._buffer.pop()
            self._n_submitted -= 1
            raise

    def _hand_off_locked(self, wait: bool = False) -> int:
        """Move the coalescing buffer onto the frontend's work queue.

        Applies the backlog bound: blocks (releasing the lock) or
        raises per the frontend's backpressure policy.  On the error
        path the reads stay buffered, so a later flush can retry.
        ``wait=True`` forces blocking regardless of the policy, then
        waits until every queued batch of this session has run —
        :meth:`drain` / :meth:`close` are synchronisation points that
        *relieve* pressure, so erroring there would be perverse.
        """
        n = len(self._buffer)
        frontend = self._frontend
        if n:
            # Chaos hook: a backlog-saturation fault raises the same
            # documented ServiceError a genuinely full queue would, so
            # the all-or-nothing submit unwind is exercised for real.
            _fire_fault("service.frontend.enqueue", session=self)
            while frontend._backlog_count >= frontend._max_backlog:
                if frontend._backpressure == "error" and not wait:
                    raise ServiceError(
                        f"frontend backlog full "
                        f"({frontend._max_backlog} queued micro-batches); "
                        f"drain sessions or slow the feed"
                    )
                frontend._backlog_free.wait()
                # Not _check_open_locked: close() itself enqueues
                # through here after setting _closing — only a dispatch
                # failure or a stopped frontend should abort the wait.
                self._check_failure_locked()
                if not frontend._running:
                    raise ServiceError(
                        "the mapping frontend has been closed"
                    )
            self._pending.append(self._take_locked())
            frontend._backlog_count += 1
            frontend._work.notify()
        if wait:
            while self._pending or self._executing:
                if not frontend._running:
                    raise ServiceError(
                        f"the mapping frontend was closed while session "
                        f"{self._index} still had reads in flight"
                    )
                self._idle.wait()
            self._check_failure_locked()
        return n

    def _execute(self, first: int, codes: "list[np.ndarray]") -> None:
        """Run one queued micro-batch on a pool worker.

        The engine runs outside the frontend lock (that is the
        parallelism) but inside the session's dispatch mutex (the
        per-session serialisation observability relies on).  A failure
        poisons this session only: it is kept for the feeder, and the
        session's queue is dropped so blocked feeders and drainers
        wake instead of hanging.
        """
        failure: "BaseException | None" = None
        with self._dispatch_mutex:
            try:
                # Chaos hook inside the try: a poisoned read raised
                # here is captured as this session's failure, exactly
                # like an engine-side error would be.
                _fire_fault("service.frontend.execute", session=self,
                            first_read_index=first)
                self._run(first, codes)
            except BaseException as exc:  # noqa: BLE001 — kept for the feeder
                failure = exc
        frontend = self._frontend
        with self._lock:
            if failure is not None:
                self._failure = failure
                dropped = len(self._pending)
                self._pending.clear()
                frontend._backlog_count -= dropped
                if dropped:
                    frontend._backlog_free.notify_all()
            self._executing = False
            if self._pending:
                frontend._work.notify()
            self._idle.notify_all()


@dataclass
class _RefState:
    """One reference's shared state, built once by the frontend.

    The sealed shards every session over it borrows, the resolved
    chunk size and fan-out engine, the one
    :class:`~repro.parallel.ProcessShardEngine` those sessions share
    when the fan-out resolved to ``"process"`` (on a catalog frontend
    its workers re-open the store file by path: no shared-memory
    copy), and — catalog frontends only — the lease that pins the
    mapped file for the frontend's lifetime.
    """

    shards: "tuple[StoredReference, ...]"
    chunk_size: "int | None"
    shard_engine_kind: "str | None"
    process_engine: "ProcessShardEngine | None"
    lease: "object | None" = None

    @property
    def cols(self) -> int:
        return self.shards[0].cols

    @property
    def n_rows(self) -> int:
        return sum(shard.n_segments for shard in self.shards)


class MappingFrontend:
    """Serve N concurrent mapping sessions over one encoded reference.

    Parameters
    ----------
    segments:
        ``(n_rows, N)`` uint8 matrix of reference segments — encoded
        and stored **once**, at construction, for every session.
        Must be ``None`` when ``catalog=`` is given: a catalog
        frontend encodes *nothing*; each session names the stored
        reference it maps against.
    error_model:
        Workload error rates driving the HDAC/TASR policies (shared:
        the policies are a property of the stored workload).
    config:
        Default strategy configuration for sessions (each session may
        override).
    engine:
        ``"batched"`` (one shared array image) or ``"sharded"`` (the
        reference partitioned across autotuned shards; sessions share
        the per-shard references *and* one shard fan-out executor).
    domain / noisy:
        Array configuration shared by every session's arrays.
    n_shards / chunk_size:
        Sharded-engine knobs, resolved exactly as
        :class:`~repro.core.pipeline.ShardedReadMappingPipeline`
        resolves them (``None`` autotunes) — a frontend session is
        therefore bit-identical to a standalone sharded service built
        with the same knobs.
    pool_workers:
        Dispatch workers in the persistent pool; ``None`` autotunes
        via :func:`repro.arch.autotune.plan_service_pool`.
    max_backlog:
        Queued micro-batches (frontend-wide) before backpressure
        engages; ``None`` autotunes.
    backpressure:
        ``"block"`` (default): a submit that fills the backlog waits
        for a worker; ``"error"``: it raises
        :class:`~repro.errors.ServiceError` and leaves the reads
        buffered for a later retry.
    backend:
        Default kernel backend for every session's arrays (``None`` =
        the standard selection order; see :mod:`repro.kernels`);
        individual sessions may override it.  Bit-identical across
        backends, so the frontend/standalone equivalence holds
        whichever backend runs.
    shard_engine:
        Sharded-engine fan-out execution engine — ``"thread"`` shares
        one fan-out thread pool across sessions, ``"process"`` shares
        one :class:`~repro.parallel.ProcessShardEngine` (the shard
        references live in shared memory and one spawned worker pool
        serves every session's self-contained tasks), ``None`` resolves
        through the standard order (environment variable, then
        autotune).  Resolved once, frontend-wide, so every session's
        pipeline agrees.  Bit-identical either way.
    catalog:
        A :class:`~repro.refstore.ReferenceCatalog` to serve stored
        references from.  Sessions then pass ``reference=<name>`` to
        :meth:`session`; the frontend borrows each named reference
        once (pinned until :meth:`close`), slices it into the same
        bank ranges a segments frontend would encode, and never runs
        an encode pass — :meth:`encode_count` stays 0.  With the
        process fan-out, workers attach the store file by path, so
        booting copies zero reference bytes.  The catalog belongs to
        the caller and is left open by :meth:`close`.
    """

    def __init__(self, segments: "np.ndarray | None",
                 error_model: ErrorModel,
                 config: "MatcherConfig | None" = None,
                 engine: str = "batched",
                 domain: str = "charge",
                 noisy: bool = True,
                 n_shards: "int | None" = None,
                 chunk_size: "int | None" = None,
                 pool_workers: "int | None" = None,
                 max_backlog: "int | None" = None,
                 backpressure: str = "block",
                 backend: "str | None" = None,
                 shard_engine: "str | None" = None,
                 catalog: "object | None" = None):
        check_engine(engine, shard_engine)
        if backpressure not in _BACKPRESSURE:
            raise ServiceError(
                f"backpressure must be one of {_BACKPRESSURE}, got "
                f"{backpressure!r}"
            )
        validate_service_knobs(backend=backend, engine=shard_engine)
        for knob, value in (("pool_workers", pool_workers),
                            ("max_backlog", max_backlog)):
            if value is not None and int(value) < 1:
                raise ServiceError(f"{knob} must be positive, got {value}")
        if catalog is not None and segments is not None:
            raise CamConfigError(
                "a catalog frontend takes no construction-time "
                "segments; each session names its reference "
                "(session(..., reference=<name>))"
            )
        if catalog is None and segments is None:
            raise CamConfigError(
                "segments is required unless a catalog= is given"
            )
        self._engine_kind = engine
        self._model = error_model
        self._config = config
        self._domain = domain
        self._noisy = bool(noisy)
        self._backend = backend
        self._backpressure = backpressure
        self._catalog = catalog
        # Resolved per reference: once here for segments, lazily per
        # name for a catalog.
        self._req_n_shards = n_shards
        self._req_chunk_size = chunk_size
        self._req_shard_engine = shard_engine
        self._ref_states: "dict[str, _RefState]" = {}
        self._ref_lock = threading.Lock()
        #: Frontend-level traffic ledger; holds the single
        #: ReferenceLoad per shard (the encode-once evidence) — session
        #: ledgers only ever see search passes.
        self._ledger = CostLedger()
        self._shard_executor: "ThreadPoolExecutor | None" = None
        #: A segments frontend's reference, encoded EXACTLY ONCE here.
        self._own: "_RefState | None" = None
        if catalog is None:
            self._own = self._open_reference(segments)
            fanout = len(self._own.shards)
        else:
            # Zero encode passes, ever: references arrive through the
            # catalog as mmap-opened store files, per session.  Their
            # geometry is unknown until sessions open, so the dispatch
            # pool assumes a fan-out of 1 unless the caller pinned
            # n_shards; pass pool_workers to tune.
            fanout = max(1, n_shards or 1)

        # --- persistent dispatch pool ----------------------------------
        if pool_workers is None:
            pool_workers = plan_service_pool(n_shards=fanout).n_workers
        if max_backlog is None:
            # Scale with the *resolved* worker count (an explicit
            # pool_workers override included), not the plan's.
            max_backlog = max(MIN_SERVICE_BACKLOG, 2 * int(pool_workers))
        self._pool_workers = int(pool_workers)
        self._max_backlog = int(max_backlog)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._backlog_free = threading.Condition(self._lock)
        self._backlog_count = 0
        self._sessions: "list[MappingSession]" = []
        self._rr_next = 0
        self._running = True
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"asmcap-frontend-worker-{i}",
                             daemon=True)
            for i in range(self._pool_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- configuration ------------------------------------------------------

    @property
    def engine(self) -> str:
        """``"batched"`` or ``"sharded"``."""
        return self._engine_kind

    @property
    def cols(self) -> "int | None":
        """Reference segment width (every read must match it) —
        ``None`` on a catalog frontend, where each session's width
        follows its named reference."""
        return None if self._own is None else self._own.cols

    @property
    def n_shards(self) -> int:
        """Shards the reference is partitioned across (1 = batched;
        0 on a catalog frontend, whose shard counts are per
        reference)."""
        return 0 if self._own is None else len(self._own.shards)

    @property
    def catalog(self) -> "object | None":
        """The :class:`~repro.refstore.ReferenceCatalog` sessions
        borrow from (``None`` on a segments frontend)."""
        return self._catalog

    @property
    def shard_engine(self) -> "str | None":
        """Resolved shard fan-out engine (``"thread"`` or
        ``"process"``); ``None`` on the batched engine (and on a
        catalog frontend, which resolves it per reference)."""
        return None if self._own is None else self._own.shard_engine_kind

    def process_engine(self) -> "ProcessShardEngine | None":
        """The shared process engine (``None`` unless the sharded
        engine resolved to ``"process"``) — every session's pipeline
        fans out on this one pool of spawned workers."""
        return None if self._own is None else self._own.process_engine

    @property
    def pool_workers(self) -> int:
        """Persistent dispatch-worker threads."""
        return self._pool_workers

    @property
    def max_backlog(self) -> int:
        """Queued micro-batches before backpressure engages."""
        return self._max_backlog

    @property
    def backpressure(self) -> str:
        """``"block"`` or ``"error"``."""
        return self._backpressure

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ledger(self) -> CostLedger:
        """Frontend-level traffic ledger (the per-shard
        :class:`~repro.cost.events.ReferenceLoad` events live here —
        recorded once, when a reference is opened, not per session)."""
        return self._ledger

    @property
    def stored_references(self) -> "tuple[StoredReference, ...]":
        """The shared, sealed reference(s) — one entry per shard; on a
        catalog frontend, every shard of every reference opened so far
        (reference open order)."""
        if self._own is not None:
            return self._own.shards
        with self._ref_lock:
            return tuple(shard for state in self._ref_states.values()
                         for shard in state.shards)

    def encode_count(self) -> int:
        """Total one-hot encode passes across the shared reference —
        stays equal to :attr:`n_shards` no matter how many sessions
        open (the benchmark's encode-once evidence), and stays **0**
        on a catalog frontend: mmap-opened references are adopted, not
        encoded."""
        return sum(ref.n_encodes for ref in self.stored_references)

    @property
    def sessions(self) -> "tuple[MappingSession, ...]":
        """Every session ever opened (open order)."""
        with self._lock:
            return tuple(self._sessions)

    # -- session factory ----------------------------------------------------

    def _open_reference(self, reference: "np.ndarray | StoredReference",
                        lease: "object | None" = None) -> _RefState:
        """Seal *reference* into shards once and build its shared
        fan-out.

        Segments are encoded (one pass per shard); a catalog
        reference is sliced zero-copy at exactly the bank ranges
        :func:`~repro.core.pipeline.encode_shard_references` would
        use.  For the sharded engine the fan-out engine is resolved
        for this geometry — ``"process"`` builds the one engine every
        session over this reference shares; ``"thread"`` sessions
        share the frontend's one fan-out pool, sized for the first
        reference that needs it.
        """
        shards, chunk_size = seal_reference(
            self._engine_kind, reference, self._req_n_shards,
            self._req_chunk_size)
        state = _RefState(shards, chunk_size, None, None, lease)
        if self._engine_kind == "sharded":
            state.shard_engine_kind = resolve_engine(
                self._req_shard_engine, state.n_rows, state.cols,
                n_shards=len(shards),
            )
            workers = max(1, plan_service_pool(
                n_shards=len(shards)).shard_workers)
            if state.shard_engine_kind == "process":
                state.process_engine = ProcessShardEngine(
                    shards, domain=self._domain, noisy=self._noisy,
                    n_workers=workers,
                )
            elif self._shard_executor is None:
                self._shard_executor = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="asmcap-frontend-shard",
                )
        record_reference_loads(self._ledger, shards)
        return state

    def _reference_state(self, name: str) -> _RefState:
        """The shared state for catalog reference *name*, opened on
        first use under a lease pinned until :meth:`close`."""
        with self._ref_lock:
            state = self._ref_states.get(name)
            if state is None:
                lease = self._catalog.borrow(name)
                try:
                    state = self._open_reference(lease.reference, lease)
                except BaseException:
                    lease.close()
                    raise
                self._ref_states[name] = state
            return state

    def session(self, threshold: int,
                seed: int = 0,
                micro_batch: "int | None" = None,
                compaction: "int | None" = DEFAULT_SERVICE_COMPACTION,
                retain_mappings: bool = True,
                config: "MatcherConfig | None" = None,
                backend: "str | None" = None,
                reference: "str | None" = None) -> MappingSession:
        """Open an independent mapping session over the shared
        reference.

        Parameters mirror :class:`~repro.service.stream.
        StreamingMappingService`: per-session ``seed`` (determinism
        key base), ``threshold``, ``micro_batch`` (``None`` autotunes
        — same plan as the standalone service), ledger ``compaction``,
        ``retain_mappings`` and kernel ``backend`` (``None`` = the
        frontend's default).  The expensive reference state is *not*
        rebuilt: only per-session arrays/matchers/ledgers are.

        On a catalog frontend ``reference`` names the catalog entry
        this session maps against (required; sessions over different
        names coexist, each reference opened and sliced once).  On a
        segments frontend ``reference`` must stay ``None``.
        """
        validate_service_knobs(micro_batch, compaction, backend=backend)
        if self._catalog is None:
            if reference is not None:
                raise ServiceError(
                    f"reference={reference!r} needs a catalog frontend "
                    f"(MappingFrontend(None, ..., catalog=...))"
                )
            state = self._own
        elif reference is None:
            raise ServiceError(
                "this frontend serves a reference catalog; name the "
                "session's reference: session(..., reference=<name>)"
            )
        else:
            state = self._reference_state(reference)
        if micro_batch is None:
            micro_batch = plan_microbatch(state.n_rows, state.cols,
                                          n_shards=len(state.shards))
        pipeline = build_pipeline(
            self._engine_kind, state.shards, self._model,
            config or self._config, domain=self._domain,
            noisy=self._noisy, seed=seed, compaction=compaction,
            backend=self._backend if backend is None else backend,
            chunk_size=state.chunk_size,
            shard_engine=state.shard_engine_kind,
            executor=self._shard_executor,
            process_engine=state.process_engine,
        )
        with self._lock:
            if not self._running:
                raise ServiceError("the mapping frontend has been closed")
            session = MappingSession(
                self, index=len(self._sessions), pipeline=pipeline,
                threshold=threshold, micro_batch=micro_batch,
                retain_mappings=retain_mappings, cols=state.cols,
            )
            self._sessions.append(session)
            return session

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain every open session, stop the workers, release pools.

        Idempotent.  Sessions that already failed are skipped (their
        owners saw — or will see — the ``ServiceError``); everything
        else is drained through the still-running workers first, so no
        accepted read is silently dropped.
        """
        if self._closed:
            return
        for session in self.sessions:
            if not session.closed:
                try:
                    session.close()
                except ServiceError:
                    pass  # failed session: its owner handles the error
        with self._lock:
            self._running = False
            self._work.notify_all()
            self._backlog_free.notify_all()
            # Wake any drainer of a session that raced past the drain
            # sweep above (opened concurrently with this close) so it
            # raises instead of waiting on workers that are gone.
            for session in self._sessions:
                session._idle.notify_all()
        for thread in self._threads:
            thread.join()
        if self._shard_executor is not None:
            self._shard_executor.shutdown(wait=True)
        with self._ref_lock:
            # Stop the shared process engines (joining their workers
            # and unlinking every shared segment — sessions only borrow
            # them), then unpin the catalog leases so the catalog may
            # evict.  The catalog itself belongs to the caller.
            for state in (self._own, *self._ref_states.values()):
                if state is None:
                    continue
                if state.process_engine is not None:
                    state.process_engine.close()
                if state.lease is not None:
                    state.lease.close()
            self._ref_states.clear()
        self._closed = True

    def __enter__(self) -> "MappingFrontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- scheduling internals -----------------------------------------------

    def _next_task_locked(self):
        """Pick the next ``(session, (first_read_index, codes))`` fairly
        — round-robin over sessions with pending work whose serial
        slot is free."""
        n = len(self._sessions)
        for offset in range(n):
            position = (self._rr_next + offset) % n
            session = self._sessions[position]
            if session._pending and not session._executing:
                self._rr_next = (position + 1) % n
                return session, session._pending.popleft()
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                task = self._next_task_locked()
                while task is None:
                    if not self._running:
                        return
                    self._work.wait()
                    task = self._next_task_locked()
                session, batch = task
                session._executing = True
                self._backlog_count -= 1
                self._backlog_free.notify_all()
            session._execute(*batch)
