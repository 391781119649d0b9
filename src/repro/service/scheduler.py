"""Asyncio alignment service: job queue, worker pool, micro-batching.

:class:`AlignmentService` is the serving substrate the ROADMAP's
"heavy traffic" north star needs.  One event loop owns:

* a FIFO **job queue** with a configurable depth limit
  (:class:`~repro.errors.QueueFullError` on overflow);
* a shared :class:`~concurrent.futures.ThreadPoolExecutor` — the same
  pool-injection idiom :func:`repro.parallel.executor.run_wavefront`
  exposes, so tile-parallel alignments can reuse the service pool;
* a **micro-batcher** that coalesces queued requests sharing a query,
  scheme, mode and plan into a single
  :func:`repro.core.batch.batch_align` call (one-vs-many amortisation);
* a :class:`~repro.service.governor.MemoryGovernor` splitting a global
  DP-cell budget across in-flight jobs (admission control + backpressure);
* an LRU :class:`~repro.service.cache.ResultCache` so repeated requests
  skip recomputation entirely.

Everything observable is counted and exported as
:class:`~repro.analysis.recorder.ExperimentRecorder`-compatible rows.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence as Seq, Set, Tuple

from ..core import cancel
from ..core.batch import _full_alignment, _quick_score, batch_align
from ..kernels import registry
from ..core.config import AlignConfig, FastLSAConfig, check_backend
from ..core.planner import (
    Plan,
    degrade_plan,
    plan_alignment,
    resolve_backend,
)
from ..tune.decision import autotune_config, beats_serial
from ..tune.profile import CalibrationProfile, load_profile
from ..faults import runtime as faults
from ..faults.plan import SITE_CACHE_PUT
from ..obs import runtime as obs
from ..errors import (
    CircuitOpenError,
    ConfigError,
    JobTimeoutError,
    MemoryBudgetError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
)
from ..scoring.scheme import ScoringScheme
from .cache import ResultCache
from .governor import MemoryGovernor
from .jobs import AlignRequest, Job, JobResult, JobState, result_fingerprint
from .resilience import CircuitBreaker, RetryPolicy, is_transient
from .stats import ServiceStats

__all__ = ["AlignmentService"]


class _AdmitWillReject:
    """Sentinel: the job cannot be planned under the per-job budget at
    all — return an unpinned config and let ``admit()`` raise the typed
    :class:`MemoryBudgetError` instead of guessing here."""


def _corrupt_result(result: JobResult) -> JobResult:
    """Chaos mutator for the cache-put site: a bit-rotted *copy*.

    Never mutates the caller's object — the genuine result has already
    been handed to the submitting future.
    """
    rotten = JobResult(**{**result.__dict__})
    rotten.downgrades = list(result.downgrades)
    rotten.score = result.score + 1
    return rotten


class AlignmentService:
    """An in-process asynchronous alignment server.

    Parameters
    ----------
    memory_cells:
        Process-wide DP-cell budget the governor splits across workers.
    max_workers:
        Concurrent job groups; also sizes the shared thread pool.
    cache_size:
        LRU result-cache capacity (0 disables caching).
    max_queue_depth:
        Pending jobs beyond which submissions are rejected.
    max_batch:
        Largest number of compatible jobs coalesced into one
        ``batch_align`` call (1 disables micro-batching).
    batch_window:
        Seconds the dispatcher lingers after picking a batchable job to
        let more compatible requests arrive (0 = coalesce only what is
        already queued).
    default_timeout:
        Deadline applied to jobs submitted without an explicit timeout.
        Deadlines are enforced end to end: while queued, while waiting
        for a reservation, and *mid-run* at tile boundaries (cooperative
        cancellation via :mod:`repro.core.cancel`).
    executor:
        Inject a shared :class:`ThreadPoolExecutor` (the service will not
        shut it down); by default the service owns one.
    max_retries / retry_policy:
        Transient failures (injected faults, dropped connections, flaky
        cache backends) are retried with exponential backoff and full
        jitter; ``retry_policy`` overrides the whole
        :class:`~repro.service.resilience.RetryPolicy`, ``max_retries``
        just the attempt count.  ``retry_seed`` pins the jitter RNG.
    degrade:
        On :class:`~repro.errors.MemoryBudgetError`, exhausted retries or
        an open circuit breaker, re-plan the job one rung down the
        :func:`~repro.core.planner.degrade_plan` ladder instead of
        failing; every downgrade is recorded on the job result.
    breaker_threshold / breaker_reset_after:
        Per-backend-kernel circuit breakers (``"full-matrix"`` /
        ``"fastlsa"``): ``breaker_threshold`` consecutive failures open a
        breaker; after ``breaker_reset_after`` seconds one trial request
        is let through.
    default_backend / backend_workers:
        Wavefront backend (``"serial"`` / ``"threads"``) pinned onto jobs
        that do not carry one, with ``backend_workers`` wavefront workers
        each.  The thread pool is shared process-wide via
        :mod:`repro.parallel.lifecycle`, so consecutive jobs reuse warm
        workers.
    tune:
        Hardware-adaptive auto-selection (service default ``"auto"``).
        ``"auto"`` loads the host's cached calibration profile
        (``fastlsa calibrate``) — inert, with a one-line warning, when
        none exists; ``"off"`` / ``None`` disables tuning; a path string
        or :class:`~repro.tune.profile.CalibrationProfile` pins an
        explicit profile.  With a profile loaded, jobs that do not choose
        a backend get the measured-fastest backend/worker/kernel/band
        combination pinned at admission — never one whose measured curve
        loses to serial — and degraded plans re-consult the curves.  An
        explicit ``default_backend`` always wins over the tuned choice.

    Use as an async context manager::

        async with AlignmentService(memory_cells=500_000) as svc:
            result = await svc.align("ACGT", "ACGA", scheme)
    """

    def __init__(
        self,
        memory_cells: int = 4_000_000,
        max_workers: int = 4,
        cache_size: int = 1024,
        max_queue_depth: int = 256,
        max_batch: int = 16,
        batch_window: float = 0.0,
        default_timeout: Optional[float] = None,
        executor: Optional[ThreadPoolExecutor] = None,
        max_retries: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        degrade: bool = True,
        breaker_threshold: int = 5,
        breaker_reset_after: float = 30.0,
        retry_seed: int = 0,
        default_backend: Optional[str] = None,
        backend_workers: int = 2,
        tune: object = "auto",
    ) -> None:
        if max_queue_depth < 1:
            raise ConfigError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if default_backend is not None:
            check_backend(default_backend, "default_backend")
        if backend_workers < 1:
            raise ConfigError(f"backend_workers must be >= 1, got {backend_workers}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ConfigError(f"batch_window must be >= 0, got {batch_window}")
        self.tune = tune if isinstance(tune, (str, type(None))) else "profile"
        self.tune_profile: Optional[CalibrationProfile] = load_profile(tune)
        self.governor = MemoryGovernor(
            memory_cells, max_workers, profile=self.tune_profile
        )
        self.cache = ResultCache(cache_size, fingerprint=result_fingerprint)
        self.stats_ = ServiceStats()
        self.retry_policy = retry_policy or RetryPolicy(max_retries=max_retries)
        self.degrade = degrade
        self._retry_rng = random.Random(retry_seed)
        self.breakers: Dict[str, CircuitBreaker] = {
            "full-matrix": CircuitBreaker(breaker_threshold, breaker_reset_after),
            "fastlsa": CircuitBreaker(breaker_threshold, breaker_reset_after),
        }
        self.max_workers = max_workers
        self.default_backend = default_backend
        self.backend_workers = backend_workers
        self.max_queue_depth = max_queue_depth
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.default_timeout = default_timeout
        self._own_executor = executor is None
        self._executor = executor or ThreadPoolExecutor(max_workers=max_workers)
        self._pending: Deque[Job] = deque()
        self._by_key: Dict = {}  # cache key -> primary in-flight Job (singleflight)
        self._inflight: Set[asyncio.Task] = set()
        self._work = asyncio.Event()
        self._sem = asyncio.Semaphore(max_workers)
        self._dispatcher: Optional[asyncio.Task] = None
        self._closing = False
        self._started = False

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "AlignmentService":
        """Start the dispatcher; idempotent."""
        if self._dispatcher is None:
            self._closing = False
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
            self._started = True
        return self

    async def __aenter__(self) -> "AlignmentService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Shut down.

        With ``drain=True`` (default) every queued and in-flight job is
        completed first; otherwise queued jobs fail with
        :class:`ServiceClosedError` (in-flight thread work always runs to
        completion — threads cannot be preempted).
        """
        if self._dispatcher is None:
            return
        self._closing = True
        if not drain:
            while self._pending:
                job = self._pending.popleft()
                self._fail(job, ServiceClosedError("service shut down"))
        self._work.set()
        await self._dispatcher
        self._dispatcher = None
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # -- submission ----------------------------------------------------
    async def submit(
        self,
        a,
        b,
        scheme: ScoringScheme,
        mode: str = "global",
        score_only: bool = False,
        timeout: Optional[float] = None,
        config: Optional[FastLSAConfig] = None,
    ) -> Job:
        """Admit one alignment job; returns it with a pending future.

        ``config`` pins the FastLSA parameters (an
        :class:`~repro.core.config.AlignConfig`); by default the governor
        plans them from the per-job memory allocation.

        Raises
        ------
        MemoryBudgetError
            The problem cannot be planned inside the governor's per-job
            allocation (typed backpressure — shed load or shrink jobs).
        QueueFullError
            The pending queue is at ``max_queue_depth``.
        ServiceClosedError
            The service is shutting down.
        """
        if self._closing or not self._started:
            raise ServiceClosedError(
                "service is not running (use 'async with service:' or start())"
            )
        request = AlignRequest(a=a, b=b, scheme=scheme, mode=mode, score_only=score_only)
        self.stats_.submitted += 1
        obs.counter_add("service.submitted")
        config = self._apply_default_backend(
            config, len(request.a), len(request.b), affine=not scheme.is_linear
        )
        # Stage 1 admission: plan inside the per-job allocation.  Transient
        # governor faults are retried with backoff; an over-budget problem
        # stays a typed MemoryBudgetError (backpressure, never a silent
        # replan — degradation applies to *runtime* failures only).
        admit_retries = 0
        while True:
            try:
                plan = self.governor.admit(
                    len(request.a), len(request.b), affine=not scheme.is_linear,
                    config=config,
                )
                break
            except MemoryBudgetError:
                raise
            except Exception as exc:
                if not self.retry_policy.should_retry(exc, admit_retries):
                    raise
                self.stats_.retries += 1
                obs.counter_add("service.retries")
                await asyncio.sleep(self.retry_policy.delay(admit_retries, self._retry_rng))
                admit_retries += 1

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[JobResult]" = loop.create_future()
        job = Job(request=request, plan=plan, future=future)
        job.retries = admit_retries
        if plan.downgrades:
            # Planner-recorded adjustments (e.g. a worker-count clamp)
            # surface on the JobResult alongside runtime degradations.
            job.downgrades.extend(plan.downgrades)
        job.submitted_at = loop.time()
        inst = obs.current()
        if inst is not None:
            # Detached spans: service stages interleave across asyncio
            # tasks, so nothing rides the per-thread span stack.
            job.span = inst.tracer.start_span(
                "service.job", category="service", attach=False,
                job_id=job.job_id, mode=mode, score_only=score_only,
            )

        effective = timeout if timeout is not None else self.default_timeout
        if effective is not None:
            job.deadline = job.submitted_at + effective

        key = job.cache_key()
        try:
            cached = self.cache.get(key)
        except Exception:
            # A flaky cache backend must never fail a submission: degrade
            # the lookup to a miss and count the incident.
            self.stats_.cache_errors += 1
            obs.counter_add("service.cache_errors")
            cached = None
        if cached is not None:
            result = self._clone_result(job, cached)
            result.cached = True
            job.state = JobState.DONE
            future.set_result(result)
            self.stats_.completed += 1
            self.stats_.cache_short_circuits += 1
            self.stats_.record(result)
            self._end_job_span(job, cached=True)
            return job

        # Singleflight: identical work already in flight — piggyback on it
        # instead of queueing a duplicate computation.  The follower keeps
        # its *own* deadline: a loop timer fails it with JobTimeoutError if
        # the primary has not resolved in time.
        primary = self._by_key.get(key)
        if primary is not None:
            self.stats_.dedup_hits += 1
            if job.deadline is not None:
                job.timeout_handle = loop.call_later(
                    max(0.0, job.deadline - loop.time()),
                    self._follower_timeout, job,
                )
            primary.future.add_done_callback(
                lambda fut, job=job: self._mirror(job, fut)
            )
            return job

        # Stage 2 admission: bounded queue depth.
        if len(self._pending) >= self.max_queue_depth:
            self.stats_.rejected_queue += 1
            raise QueueFullError(
                f"queue depth limit {self.max_queue_depth} reached "
                f"({len(self._pending)} pending)"
            )
        job.pending_key = key
        self._by_key[key] = job
        self._pending.append(job)
        if inst is not None:
            job.queue_span = inst.tracer.start_span(
                "service.queue", category="service", attach=False,
                parent=job.span, job_id=job.job_id,
            )
            inst.metrics.gauge("service.queue_depth").set(len(self._pending))
        self._work.set()
        return job

    def _apply_default_backend(
        self,
        config: Optional[FastLSAConfig],
        m: int,
        n: int,
        affine: bool,
    ) -> Optional[FastLSAConfig]:
        """Pin the service's backend policy onto a job's config.

        Precedence: an explicit per-job backend always wins; then an
        operator-pinned ``default_backend``; then the calibrated tuned
        choice (``tune="auto"`` is the service default).  When no config
        was given, the planner first picks ``k`` / ``base_cells`` for the
        per-job allocation, then the backend is pinned on top — so the
        governor's admission sees the backend (and clamps its workers).
        """
        if config is not None and getattr(config, "backend", None) is not None:
            return config
        if self.default_backend not in (None, "serial"):
            if config is None:
                base = self._pinnable_base(m, n, affine, profile=None)
                if base is None or isinstance(base, _AdmitWillReject):
                    return None  # let admit() raise the typed budget error
            else:
                base = config
            return AlignConfig(
                base.k,
                base.base_cells,
                max_workers=getattr(base, "max_workers", None) or self.backend_workers,
                backend=self.default_backend,
                band=getattr(base, "band", None),
                kernel=getattr(base, "kernel", None),
                tune=getattr(base, "tune", None),
            )
        profile = self._job_profile(config)
        if profile is None:
            return config
        if config is None:
            base = self._pinnable_base(m, n, affine, profile=profile)
            if isinstance(base, _AdmitWillReject):
                return None  # let admit() raise the typed budget error
            if base is None:
                return config  # micro-job: dense is strictly best, skip
            base_cfg = AlignConfig(base.k, base.base_cells)
        elif isinstance(config, AlignConfig):
            base_cfg = config
        else:
            base_cfg = AlignConfig(config.k, config.base_cells)
        tuned, _notes = autotune_config(
            base_cfg, m, n, affine=affine, profile=profile
        )
        return tuned

    def _pinnable_base(self, m, n, affine, profile):
        """A FastLSA ``(k, base_cells)`` safe to *pin* for this job.

        A dense plan's config (base = whole budget) cannot be pinned —
        admission bills grid lines on top of the base buffer and would
        reject it — so dense-planable jobs pin the linear-space
        configuration under the same budget instead.  Returns ``None``
        for micro-jobs where no linear-space rung beats dense, and
        :class:`_AdmitWillReject` when the job cannot be planned at all.
        """
        try:
            planned = plan_alignment(
                m, n, self.governor.per_job_cells, affine=affine,
                profile=profile,
            )
        except ConfigError:
            return _AdmitWillReject()
        if planned.method == "full-matrix":
            planned = degrade_plan(planned, m, n, affine=affine)
            if planned is None:
                return None
        return planned.config

    def _job_profile(self, config) -> Optional[CalibrationProfile]:
        """The calibration profile governing one job's tuning decisions.

        A per-job ``config.tune`` overrides the service's: ``"off"``
        disables tuning for that job, a path loads an explicit profile;
        unset / ``"auto"`` uses the service profile.
        """
        job_tune = getattr(config, "tune", None) if config is not None else None
        if job_tune is None or job_tune == "auto":
            return self.tune_profile
        if job_tune == "off":
            return None
        return load_profile(job_tune)

    def _end_job_span(self, job: Job, **attrs) -> None:
        """Close a job's detached trace spans, if instrumentation is on."""
        inst = obs.current()
        if inst is None:
            return
        if job.queue_span is not None:
            inst.tracer.end_span(job.queue_span)
            job.queue_span = None
        if job.span is not None:
            if attrs:
                job.span.set(**attrs)
            inst.tracer.end_span(job.span)
            job.span = None

    def _follower_timeout(self, job: Job) -> None:
        """A singleflight follower's own deadline fired before the primary
        resolved: fail *this* job; the primary (and other followers with
        later deadlines) keep running."""
        job.timeout_handle = None
        if job.future.done():
            return
        self.stats_.timeouts += 1
        self._fail(
            job,
            JobTimeoutError(
                f"job {job.job_id} timed out waiting on an identical "
                f"in-flight request"
            ),
        )

    def _mirror(self, job: Job, fut: "asyncio.Future[JobResult]") -> None:
        """Resolve a deduplicated job from its primary's outcome."""
        if job.timeout_handle is not None:
            job.timeout_handle.cancel()
            job.timeout_handle = None
        if job.future.done():
            return  # the follower's own deadline already failed it
        if fut.cancelled():
            job.future.cancel()
            return
        exc = fut.exception()
        if exc is not None:
            self._fail(job, exc)
            return
        result = self._clone_result(job, fut.result())
        result.deduped = True
        job.state = JobState.DONE
        self.stats_.completed += 1
        self.stats_.record(result)
        if not job.future.done():
            job.future.set_result(result)

    def _forget_key(self, job: Job) -> None:
        """Drop the singleflight registration if ``job`` still owns it."""
        key = job.pending_key if job.pending_key is not None else job.cache_key()
        if self._by_key.get(key) is job:
            del self._by_key[key]

    async def align(
        self,
        a,
        b,
        scheme: ScoringScheme,
        mode: str = "global",
        score_only: bool = False,
        timeout: Optional[float] = None,
        config: Optional[FastLSAConfig] = None,
    ) -> JobResult:
        """Submit and wait: the one-call convenience path."""
        job = await self.submit(a, b, scheme, mode=mode, score_only=score_only,
                                timeout=timeout, config=config)
        return await job.future

    async def align_many(
        self,
        pairs: Seq,
        scheme: ScoringScheme,
        mode: str = "global",
        score_only: bool = False,
        timeout: Optional[float] = None,
        config: Optional[FastLSAConfig] = None,
    ) -> List[JobResult]:
        """Submit many ``(a, b)`` pairs and gather their results."""
        jobs = [
            await self.submit(a, b, scheme, mode=mode, score_only=score_only,
                              timeout=timeout, config=config)
            for a, b in pairs
        ]
        return list(await asyncio.gather(*(j.future for j in jobs)))

    async def search(
        self,
        query,
        index,
        scheme: ScoringScheme,
        top_k: int = 10,
        *,
        min_score: int = 1,
        timeout: Optional[float] = None,
        allow_partial: bool = False,
        config: Optional[FastLSAConfig] = None,
        on_update=None,
    ):
        """Top-K corpus search on the service's worker pool.

        Runs :func:`repro.search.search` in a worker thread under a
        cancel token at ``timeout`` (falling back to the service default)
        with the service's per-candidate retry budget, and pins the
        service's ``default_backend`` when the request does not choose
        one.  ``index`` is a :class:`~repro.search.CorpusIndex`;
        ``on_update`` streams top-K snapshots (fired from the worker
        thread).  Returns a :class:`~repro.search.SearchResult`.
        """
        from ..search import search as engine_search

        if self._closing:
            raise ServiceClosedError("service is shutting down")
        effective = timeout if timeout is not None else self.default_timeout
        token = cancel.CancelToken.after(effective)
        cfg = config
        if (
            self.default_backend not in (None, "serial")
            and getattr(cfg, "backend", None) is None
        ):
            base = cfg if cfg is not None else AlignConfig()
            cfg = AlignConfig(
                base.k,
                base.base_cells,
                max_workers=getattr(base, "max_workers", None) or self.backend_workers,
                backend=self.default_backend,
            )
        elif (
            self.default_backend is None
            and getattr(cfg, "backend", None) is None
        ):
            profile = self._job_profile(cfg)
            if profile is not None:
                # No operator pin: consult the calibration curves, sizing
                # the decision by the query (candidate lengths vary).
                base = cfg if cfg is not None else AlignConfig()
                qn = max(1, len(query))
                cfg, _ = autotune_config(
                    base if isinstance(base, AlignConfig)
                    else AlignConfig(base.k, base.base_cells),
                    qn, qn, affine=not scheme.is_linear, profile=profile,
                )

        def run():
            return engine_search(
                query, index, scheme, top_k, cfg,
                min_score=min_score,
                retries=self.retry_policy.max_retries,
                allow_partial=allow_partial,
                token=token,
                on_update=on_update,
            )

        result = await asyncio.get_running_loop().run_in_executor(
            self._executor, run
        )
        self.stats_.searches += 1
        self.stats_.search_candidates += result.stats.candidates
        self.stats_.search_pruned += result.stats.pruned
        return result

    # -- dispatcher ----------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._work.clear()
                await self._work.wait()
                continue
            job = self._pending.popleft()
            obs.gauge_set("service.queue_depth", len(self._pending))
            if self._expired(job):
                continue
            group = [job]
            if self.max_batch > 1:
                if self.batch_window > 0 and len(self._pending) < self.max_batch - 1:
                    await asyncio.sleep(self.batch_window)
                group += self._coalesce(job)
            await self._sem.acquire()
            # The slot wait may have outlived some deadlines.
            group = [j for j in group if not self._expired(j)]
            reservation = 0
            while group:
                reservation = max(j.plan.predicted_peak_cells for j in group)
                try:
                    # Wait bounded by the *group's* earliest remaining
                    # deadline — not the lead job's, which may have none.
                    await self.governor.reserve(
                        reservation, timeout=self._group_remaining(group)
                    )
                    break
                except JobTimeoutError:
                    # The earliest deadline lapsed while waiting for
                    # cells: fail only the members whose own deadline
                    # passed; survivors keep waiting.
                    group = [j for j in group if not self._expired(j)]
                except ServiceError as exc:
                    for j in group:
                        self._fail(j, exc)
                    group = []
            if not group:
                self._sem.release()
                continue
            for j in group:
                j.reserved_cells = reservation
            task = asyncio.get_running_loop().create_task(
                self._run_group(group, reservation)
            )
            self._inflight.add(task)
            task.add_done_callback(self._group_done)

    def _group_done(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._sem.release()
        if not task.cancelled() and task.exception() is not None:  # pragma: no cover
            self.stats_.internal_errors += 1

    def _coalesce(self, job: Job) -> List[Job]:
        """Pull queued jobs batchable with ``job`` (same one-vs-many key)."""
        key = job.batch_key()
        mates = [j for j in self._pending if j.batch_key() == key]
        mates = mates[: self.max_batch - 1]
        for mate in mates:
            self._pending.remove(mate)
        live = [m for m in mates if not self._expired(m)]
        return live

    def _expired(self, job: Job) -> bool:
        """Fail and drop a queued job whose deadline has passed."""
        loop = asyncio.get_running_loop()
        if job.deadline is not None and loop.time() > job.deadline:
            self.stats_.timeouts += 1
            self._fail(
                job,
                JobTimeoutError(
                    f"job {job.job_id} expired after "
                    f"{loop.time() - job.submitted_at:.3f}s in queue"
                ),
            )
            return True
        return False

    @staticmethod
    def _deadline_passed(job: Job, loop: asyncio.AbstractEventLoop) -> bool:
        return job.deadline is not None and loop.time() >= job.deadline

    def _timeout_job(self, job: Job, phase: str) -> None:
        """Fail one job with a deadline error, counting the timeout."""
        self.stats_.timeouts += 1
        self._fail(
            job, JobTimeoutError(f"job {job.job_id} deadline passed {phase}")
        )

    def _group_remaining(self, group: List[Job]) -> Optional[float]:
        """Seconds until the group's *earliest* deadline (``None`` if no
        member carries one)."""
        deadlines = [j.deadline for j in group if j.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - asyncio.get_running_loop().time())

    # -- execution -----------------------------------------------------
    async def _run_group(self, group: List[Job], reservation: int) -> None:
        loop = asyncio.get_running_loop()
        inst = obs.current()
        batch_span = None
        for job in group:
            job.state = JobState.RUNNING
            job.started_at = loop.time()
            if inst is not None and job.queue_span is not None:
                inst.tracer.end_span(job.queue_span)
                job.queue_span = None
        if inst is not None and len(group) > 1:
            batch_span = inst.tracer.start_span(
                "service.batch", category="service", attach=False,
                parent=group[0].span, n_jobs=len(group),
                reserved_cells=reservation,
            )
        try:
            results = await self._execute_with_resilience(group)
        except Exception as exc:
            if isinstance(exc, JobTimeoutError):
                self.stats_.timeouts += len(group)
            for job in group:
                self._fail(job, exc)
            return
        finally:
            await self.governor.release(reservation)
            if batch_span is not None:
                inst.tracer.end_span(batch_span)
        if len(group) > 1:
            self.stats_.batches += 1
            self.stats_.batched_jobs += len(group)
            obs.counter_add("service.batches")
        for job, result in zip(group, results):
            job.state = JobState.DONE
            job.finished_at = loop.time()
            result.queue_wait = job.started_at - job.submitted_at
            result.run_time = job.finished_at - job.started_at
            result.batch_size = len(group)
            result.retries = job.retries
            result.downgrades = list(job.downgrades)
            if result.downgrades:
                self.stats_.degraded_jobs += 1
            self._cache_put(job, result)
            self._forget_key(job)
            self.stats_.completed += 1
            self.stats_.record(result)
            obs.counter_add("service.completed")
            obs.observe("service.queue_wait", result.queue_wait)
            obs.observe("service.job_wall_time", job.finished_at - job.submitted_at)
            self._end_job_span(job, score=result.score, batch_size=len(group))
            if not job.future.done():
                job.future.set_result(result)

    async def _execute_with_resilience(self, group: List[Job]) -> List[JobResult]:
        """Run a group with deadline, retry, breaker and degradation logic.

        The group's governor reservation stays fixed across attempts:
        every :func:`~repro.core.planner.degrade_plan` rung strictly
        shrinks the predicted peak, so the original reservation always
        covers a re-planned run.

        A coalesced group runs under its *earliest* member deadline (the
        cancel token must fire for the most urgent job), but deadline
        expiry never condemns the whole group: only members whose own
        deadline passed are failed, and the survivors are re-run.  The
        group list is mutated in place so ``_run_group``'s zip stays
        aligned with the returned results.
        """
        loop = asyncio.get_running_loop()
        policy = self.retry_policy
        attempt = 0
        while True:
            # Backoff sleeps, breaker waits and earlier attempts consume
            # wall clock — fail members whose own deadline has passed and
            # keep going with the rest.
            survivors = [j for j in group if not self._deadline_passed(j, loop)]
            if len(survivors) < len(group):
                for j in group:
                    if not any(j is s for s in survivors):
                        self._timeout_job(j, "before reaching a worker")
                group[:] = survivors
            if not group:
                return []
            lead = max(group, key=lambda j: j.plan.predicted_peak_cells)
            method = lead.plan.method
            breaker = self.breakers.get(method)
            if breaker is not None and not breaker.allow():
                self.stats_.breaker_fast_fails += 1
                obs.counter_add("service.breaker_fast_fails")
                if not self._degrade_group(group, f"breaker_open:{method}"):
                    raise CircuitOpenError(
                        f"circuit breaker for backend {method!r} is open"
                    )
                continue
            try:
                token = self._group_token(group, loop)
                results = await loop.run_in_executor(
                    self._executor, self._run_in_scope, token, group
                )
            except JobTimeoutError:
                # The group's earliest deadline fired (mid-run via the
                # cancel token, or while racing the loop clock).  Deadline
                # expiry says nothing about backend health: release any
                # half-open trial slot, fail only the members whose own
                # deadline passed, and re-run the survivors.
                if breaker is not None:
                    breaker.abandon_trial()
                survivors = [
                    j for j in group if not self._deadline_passed(j, loop)
                ]
                if not survivors:
                    raise  # every member expired: _run_group fails them all
                for j in group:
                    if not any(j is s for s in survivors):
                        self._timeout_job(
                            j, "mid-run at the group's earliest deadline"
                        )
                group[:] = survivors
                continue
            except Exception as exc:
                if breaker is not None:
                    breaker.record_failure()
                if isinstance(exc, MemoryBudgetError):
                    if self._degrade_group(group, "memory_budget"):
                        attempt = 0
                        continue
                    raise
                if policy.should_retry(exc, attempt):
                    for j in group:
                        j.retries += 1
                    self.stats_.retries += 1
                    obs.counter_add("service.retries")
                    await asyncio.sleep(policy.delay(attempt, self._retry_rng))
                    attempt += 1
                    continue
                # Retries exhausted on a transient fault — repeated tile
                # failure per the robustness contract: step down the ladder
                # (a smaller footprint often clears pressure-shaped faults).
                if is_transient(exc) and self._degrade_group(group, "retries_exhausted"):
                    attempt = 0
                    continue
                raise
            if breaker is not None:
                breaker.record_success()
            return results

    def _degrade_group(self, group: List[Job], reason: str) -> bool:
        """Step every job one rung down the ladder; ``False`` at the floor.

        Batched groups share one plan config (it is part of the batch
        key), so the rung is derived from the largest member and applied
        to all of them.
        """
        if not self.degrade:
            return False
        lead = max(group, key=lambda j: j.plan.predicted_peak_cells)
        next_plan = degrade_plan(
            lead.plan,
            len(lead.request.a),
            len(lead.request.b),
            affine=not lead.request.scheme.is_linear,
        )
        if next_plan is None:
            return False
        label = (
            f"{reason}:{lead.plan.method}[k={lead.config.k},"
            f"base={lead.config.base_cells}]->{next_plan.method}"
            f"[k={next_plan.config.k},base={next_plan.config.base_cells}]"
        )
        next_plan, dropped = self._carry_config(lead, next_plan)
        if dropped:
            label += f";backend:{dropped}->serial"
        for j in group:
            j.downgrades.append(label)
            j.plan = next_plan
        self.stats_.downgrades += 1
        obs.counter_add("service.downgrades")
        return True

    def _carry_config(self, lead: Job, next_plan) -> "Tuple[object, Optional[str]]":
        """Carry the lead job's AlignConfig knobs onto a degraded plan.

        :func:`degrade_plan` re-plans only ``k`` / ``base_cells``; the
        job's band / kernel / tune knobs survive the downgrade.  A
        parallel backend is kept only when (a) the calibration curves
        still predict it beats serial at the degraded geometry and
        (b) the degraded peak stays within the cells already reserved for
        the job, so a downgrade never *grows* residency past its
        reservation.  Returns the (possibly rebuilt)
        plan and the name of a dropped backend, or ``None``.
        """
        cfg0 = lead.config
        backend0 = getattr(cfg0, "backend", None)
        knobs = {
            "max_workers": getattr(cfg0, "max_workers", None),
            "band": getattr(cfg0, "band", None),
            "kernel": getattr(cfg0, "kernel", None),
            "tune": getattr(cfg0, "tune", None),
        }
        if backend0 is None and not any(v is not None for v in knobs.values()):
            return next_plan, None
        m, n = len(lead.request.a), len(lead.request.b)
        affine = not lead.request.scheme.is_linear
        dropped: Optional[str] = None
        backend = backend0
        peak = next_plan.predicted_peak_cells
        if backend0 not in (None, "serial"):
            resolved, workers = resolve_backend(cfg0)
            cap = lead.reserved_cells or lead.plan.predicted_peak_cells
            profile = self._job_profile(cfg0)
            keep = peak <= cap and (
                profile is not None
                and beats_serial(
                    profile, resolved, workers, m, n,
                    next_plan.config.k, affine=affine,
                )
            )
            if not keep:
                dropped, backend = resolved, None
        new_cfg = AlignConfig(
            next_plan.config.k,
            next_plan.config.base_cells,
            max_workers=knobs["max_workers"] if backend is not None else None,
            backend=backend,
            band=knobs["band"],
            kernel=knobs["kernel"],
            tune=knobs["tune"],
        )
        rebuilt = Plan(
            method=next_plan.method,
            config=new_cfg,
            memory_cells=next_plan.memory_cells,
            predicted_peak_cells=peak,
            predicted_ops_ratio=next_plan.predicted_ops_ratio,
            downgrades=next_plan.downgrades,
        )
        return rebuilt, dropped

    def _group_token(
        self, group: List[Job], loop: asyncio.AbstractEventLoop
    ) -> Optional[cancel.CancelToken]:
        """A cancel token at the group's earliest deadline (or ``None``).

        Raises :class:`~repro.errors.JobTimeoutError` when that deadline
        has already passed (e.g. consumed by retry backoff).
        """
        deadlines = [j.deadline for j in group if j.deadline is not None]
        if not deadlines:
            return None
        remaining = min(deadlines) - loop.time()
        if remaining <= 0:
            raise JobTimeoutError("deadline passed before the group reached a worker")
        return cancel.CancelToken.after(remaining)

    def _cache_put(self, job: Job, result: JobResult) -> None:
        """Store an authoritative result, fingerprinted against future rot."""
        key = job.pending_key if job.pending_key is not None else job.cache_key()
        try:
            self.cache.put(
                key,
                faults.corrupt(SITE_CACHE_PUT, result, _corrupt_result),
                fingerprint=result_fingerprint(result),
            )
        except Exception:
            # A flaky cache backend must never fail a finished job.
            self.stats_.cache_errors += 1
            obs.counter_add("service.cache_errors")

    def _run_in_scope(
        self, token: Optional[cancel.CancelToken], group: List[Job]
    ) -> List[JobResult]:
        """Thread-pool entry: scope the group's deadline over the compute.

        ``token`` is installed for the worker thread so the FastLSA
        recursion's checkpoints (every sub-problem, FillCache band and
        wavefront tile) can cancel the run cooperatively.
        """
        with cancel.cancel_scope(token):
            return self._compute_group(group)

    def _compute_group(self, group: List[Job]) -> List[JobResult]:
        """Thread-pool side: run one job, or one coalesced batch."""
        if len(group) == 1:
            return [self._compute_single(group[0])]
        return self._compute_batch(group)

    def _compute_batch(self, group: List[Job]) -> List[JobResult]:
        lead = group[0]
        req = lead.request
        targets = [j.request.b for j in group]
        keep = 0 if req.score_only else len(targets)
        hits = batch_align(
            req.a, targets, req.scheme, mode=req.mode,
            keep=keep, config=lead.config,
        )
        by_target: Dict[int, List[Job]] = {}
        for j in group:
            by_target.setdefault(id(j.request.b), []).append(j)
        results = {}
        for hit in hits:
            job = by_target[id(hit.target)].pop(0)
            results[job.job_id] = JobResult(
                job_id=job.job_id,
                score=hit.score,
                mode=req.mode,
                a_name=req.a.name,
                b_name=hit.target.name,
                score_only=req.score_only,
                gapped_a=hit.alignment.gapped_a if hit.alignment is not None else None,
                gapped_b=hit.alignment.gapped_b if hit.alignment is not None else None,
                a_range=hit.a_range,
                b_range=hit.b_range,
                plan_method=job.plan.method,
                plan_k=job.config.k,
                plan_base_cells=job.config.base_cells,
                reserved_cells=job.reserved_cells,
            )
        return [results[j.job_id] for j in group]

    def _compute_single(self, job: Job) -> JobResult:
        req = job.request
        if req.score_only:
            score = _quick_score(req.a, req.b, req.scheme, req.mode, job.config)
            return self._result(job, score=int(score))
        alignment, a_range, b_range, score = _full_alignment(
            req.a, req.b, req.scheme, req.mode, job.config
        )
        return self._result(
            job,
            score=int(score),
            gapped_a=alignment.gapped_a,
            gapped_b=alignment.gapped_b,
            a_range=a_range,
            b_range=b_range,
            kernel=alignment.stats.kernel
            or registry.resolve_tier(getattr(job.config, "kernel", None)),
            band_width=alignment.stats.band_width,
        )

    def _result(self, job: Job, **fields) -> JobResult:
        fields.setdefault(
            "kernel", registry.resolve_tier(getattr(job.config, "kernel", None))
        )
        return JobResult(
            job_id=job.job_id,
            mode=job.request.mode,
            a_name=job.request.a.name,
            b_name=job.request.b.name,
            score_only=job.request.score_only,
            plan_method=job.plan.method,
            plan_k=job.config.k,
            plan_base_cells=job.config.base_cells,
            reserved_cells=job.reserved_cells,
            **fields,
        )

    def _clone_result(self, job: Job, source: object) -> JobResult:
        """Clone a shared result under the new job's id.

        Used for both cache hits (``cached=True``) and singleflight
        followers (``deduped=True``) — the caller sets the flag that says
        *why* no computation ran for this job.
        """
        assert isinstance(source, JobResult)
        result = JobResult(**{**source.__dict__})
        result.downgrades = list(source.downgrades)
        result.job_id = job.job_id
        result.cached = False
        result.deduped = False
        result.queue_wait = 0.0
        result.run_time = 0.0
        return result

    def _fail(self, job: Job, exc: BaseException) -> None:
        job.state = JobState.FAILED
        self._forget_key(job)
        self.stats_.failed += 1
        obs.counter_add("service.failed")
        self._end_job_span(job, error=type(exc).__name__)
        if not job.future.done():
            job.future.set_exception(exc)

    # -- introspection -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet dispatched."""
        return len(self._pending)

    def stats(self) -> Dict:
        """One merged snapshot of every counter the service keeps."""
        snap = {
            "queue_depth": self.queue_depth,
            "inflight_groups": len(self._inflight),
            "max_workers": self.max_workers,
            "max_queue_depth": self.max_queue_depth,
            "max_batch": self.max_batch,
            "default_backend": self.default_backend or "serial",
            "tune": self.tune or "off",
            "tune_profile_loaded": self.tune_profile is not None,
        }
        snap.update(self.stats_.counters())
        snap.update(self.cache.stats())
        snap.update(self.governor.stats())
        for name, breaker in self.breakers.items():
            prefix = f"breaker_{name.replace('-', '_')}"
            for key, value in breaker.stats().items():
                snap[f"{prefix}_{key}"] = value
        return snap

    def stats_rows(self) -> List[Dict]:
        """Per-job rows for :class:`~repro.analysis.recorder.ExperimentRecorder`."""
        return self.stats_.rows()

    def stats_row(self) -> Dict:
        """The summary snapshot as a single recorder-compatible row."""
        return dict(self.stats())
