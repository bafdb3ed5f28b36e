"""Parallel design-sweep engine over the security/availability pipeline.

This module is the one entry point for evaluating many designs (the
paper's Figs. 6-7 generalised from five designs to thousands).  It
wraps the single-design :func:`repro.evaluation.combined.evaluate_design`
and :func:`repro.evaluation.timeline.evaluate_timeline` behind
:meth:`SweepEngine.evaluate` and :meth:`SweepEngine.timeline`, with
pluggable executors and deterministic output.

The engine is design-kind agnostic: anything implementing the
:class:`~repro.enterprise.design.DesignSpec` protocol — homogeneous
:class:`~repro.enterprise.design.RedundancyDesign`, diverse-stack
:class:`~repro.enterprise.heterogeneous.HeterogeneousDesign`, or a mix —
is cached, chunked and dispatched identically.

Caching / batching contract
---------------------------
* **Engine-level result cache.**  ``SweepEngine.evaluate`` memoises one
  :class:`DesignEvaluation` per design spec (specs are hashable value
  objects).  Re-sweeping an overlapping space only pays for the designs
  not seen before; ``clear_cache()`` resets it.
* **Chunked dispatch.**  Uncached designs are split into contiguous
  chunks and each chunk is evaluated by one executor call.
* **One chunk path.**  Every chunk — snapshots or timelines, on any
  executor — runs one task, :func:`_chunk_task`, over one long-lived
  ``SecurityEvaluator``/``AvailabilityEvaluator`` pair: one
  lower-layer SRN solve per role, one canonical exploration per
  transition pattern.  Serial and thread executors bind the engine's
  own pair; the process executor precomputes it in the parent and
  publishes the numeric arrays to pool workers through
  ``multiprocessing.shared_memory`` with a pool initializer — the case
  study is pickled once per worker and chunks carry only designs.
  Solving each design with a fresh evaluator pair gives byte-identical
  results; the tests keep that as the oracle.
* **Deterministic ordering.**  Results are always returned in input
  order, regardless of executor: chunks are indexed at submission and
  reassembled positionally.  Every executor produces byte-identical
  results.
* **Failure reporting.**  A design that fails inside any executor
  raises :class:`~repro.errors.EvaluationError` carrying the design
  label and the original traceback (always picklable); a worker that
  dies outright surfaces the failing batch's design labels instead of
  a bare ``BrokenProcessPool``.

Executors
---------
``"serial"``
    In-process loop; zero overhead, the default.
``"thread"``
    ``concurrent.futures.ThreadPoolExecutor``; the cheap parallelism —
    no fork, no pickling — that pays off because the solve phase spends
    its time in scipy's ``spsolve``, which releases the GIL.
``"process"``
    ``concurrent.futures.ProcessPoolExecutor``; one chunk per task.
Custom executors implement :class:`Executor` (a ``run(fn, batches)``
method returning results in batch order; ``iter_run`` defaults to it)
and can be passed directly.

Warm pools
----------
The pool executors accept ``persistent=True``: instead of spawning a
fresh pool per dispatch, one pool is created lazily and reused
until :meth:`Executor.close` — the substrate of the resident evaluation
service (``repro serve``), where pool spawn and worker re-priming would
otherwise dominate every request.  A persistent
:class:`ProcessExecutor` keeps its workers primed: the engine retains
the shared-memory segment for the pool's lifetime (so late-spawned
workers can still attach) and re-primes through the same initializer
when the pool is recycled.  A worker death (``BrokenExecutor``) in
either pool mode recycles the pool — shutdown (or discard), respawn,
re-run the initializer — and resubmits the batches not yet consumed
under the executor's :class:`~repro.resilience.RetryPolicy` (one retry
by default); chunk evaluation is pure and deterministic, so the retry
is byte-identical to an undisturbed run.  A dispatch abandoned early
(a failure, or a preempted stream) cancels its queued batches.
Results with a warm pool are byte-identical to per-call pools.

Sweeps can carry a :class:`~repro.resilience.Deadline`: the engine
checks the budget between chunk dispatches and raises the typed
:class:`~repro.errors.DeadlineExceeded` instead of finishing work
nobody is waiting for.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import closing
from functools import partial
from typing import Any

from repro import observability
from repro._validation import check_positive_int
from repro.enterprise.casestudy import EnterpriseCaseStudy, paper_case_study
from repro.enterprise.design import DesignSpec
from repro.errors import EvaluationError, ReproError
from repro.evaluation.combined import DesignEvaluation, evaluate_design
from repro.observability import tracing
from repro.resilience.deadline import Deadline
from repro.resilience.faults import active_plan, fault_point
from repro.resilience.retry import RetryPolicy
from repro.patching.policy import CriticalVulnerabilityPolicy, PatchPolicy
from repro.vulnerability.database import VulnerabilityDatabase

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SweepEngine",
]

_logger = logging.getLogger(__name__)

_CACHE_LOOKUPS = observability.counter(
    "repro_engine_cache_requests_total",
    "Engine result-cache lookups by tier and outcome.",
)
_MEMO_HITS = _CACHE_LOOKUPS.labels(tier="memo", outcome="hit")
_DISK_TIER_HITS = _CACHE_LOOKUPS.labels(tier="disk", outcome="hit")
_MEMO_MISSES = _CACHE_LOOKUPS.labels(tier="memo", outcome="miss")
_POOL_RECYCLES = observability.counter(
    "repro_pool_recycles_total",
    "Persistent pools recycled after a worker death.",
)


class Executor:
    """Strategy interface: run ``fn`` over argument batches, in order."""

    name = "abstract"

    #: Parallelism hint used by the engine to size chunks: ``None`` means
    #: "no concurrency, hand me one batch"; pool-backed executors set it
    #: to their worker count.  Custom executors with real parallelism
    #: must set this, or they receive a single batch holding everything.
    max_workers: int | None = None

    def run(self, fn: Callable[..., Any], batches: Sequence[tuple]) -> list:
        """Apply *fn* to each argument tuple; results align with *batches*."""
        raise NotImplementedError

    def iter_run(self, fn: Callable[..., Any], batches: Sequence[tuple]):
        """Yield results in batch order as they complete.

        The engine dispatches every chunk through this, so finished
        chunks are memoised (and streamed, or preempted after) before
        later ones compute.  The default realises :meth:`run` eagerly,
        so custom executors stay correct without implementing it; the
        built-in executors override it with truly lazy variants.
        """
        yield from self.run(fn, batches)


class SerialExecutor(Executor):
    """In-process executor (the reference semantics)."""

    name = "serial"

    def run(self, fn: Callable[..., Any], batches: Sequence[tuple]) -> list:
        return [fn(*batch) for batch in batches]

    def iter_run(self, fn: Callable[..., Any], batches: Sequence[tuple]):
        for batch in batches:
            yield fn(*batch)


class _PoolExecutor(Executor):
    """Shared pool plumbing: ordered submit/collect over a futures pool.

    With ``persistent=False`` (the default) every :meth:`run` spawns a
    fresh pool and tears it down afterwards.  With ``persistent=True``
    one pool is created lazily, kept warm across calls, recycled when a
    worker dies, and torn down by :meth:`close` — see the module
    docstring.  Either mode retries a dispatch interrupted by a worker
    death under *retry_policy* (default: one immediate retry — the pool
    respawn is itself the backoff).
    """

    _pool_factory: Callable[..., Any]

    #: Recycle-and-retry after worker death: one retry, no sleep.
    DEFAULT_RETRY = RetryPolicy(attempts=2, base_delay=0.0)

    def __init__(
        self,
        max_workers: int | None = None,
        persistent: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_workers is not None:
            check_positive_int(max_workers, "max_workers")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.persistent = bool(persistent)
        self.retry_policy = retry_policy or self.DEFAULT_RETRY
        self._pool = None
        #: Identity of the priming the current pool was built with; a
        #: differing key on the next primed dispatch recycles the pool.
        self._pool_key: object = None
        self._initializer: Callable[..., None] | None = None
        self._initargs: tuple = ()
        #: Pools recycled after a worker death (observability counter).
        self.recycle_count = 0

    def run(
        self, fn: Callable[..., Any], batches: Sequence[tuple], **priming
    ) -> list:
        """Eager :meth:`iter_run`; *priming* as there."""
        return list(self.iter_run(fn, batches, **priming))

    def iter_run(
        self,
        fn: Callable[..., Any],
        batches: Sequence[tuple],
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        key: object = None,
    ):
        """Yield results in batch order; optionally prime every worker.

        With an *initializer* (the shared-memory attach of the process
        pipeline) every pool worker runs it first, so the pool is
        spawned even for a single batch.  In persistent mode *key*
        identifies the priming: the warm pool is reused while the key
        matches and recycled (respawn + re-initialize) when it changes.
        A ``None`` key never matches, so keyless primed dispatches
        conservatively recycle; an unprimed dispatch reuses the warm
        pool whatever it is primed with (the initializer only populates
        worker globals).
        """
        if not batches:
            return
        if self.persistent:
            if initializer is not None:
                self._prime(initializer, initargs, key)
        elif len(batches) == 1 and initializer is None:
            # A single batch gains nothing from a pool; skip the spawn.
            yield fn(*batches[0])
            return
        pool_kwargs: dict[str, Any] = {"max_workers": self.max_workers}
        if initializer is not None:
            pool_kwargs.update(initializer=initializer, initargs=initargs)
        yield from self._iter_pooled(fn, batches, pool_kwargs)

    def _iter_pooled(self, fn, batches: Sequence[tuple], pool_kwargs: dict):
        """Submit all batches, yield results in order, recycle on death.

        A worker death recycles the pool — a persistent pool is
        respawned (fresh workers re-run the stored initializer,
        re-priming from the still-alive shared segment), a per-call
        pool is replaced — and resubmits only the batches not yet
        *yielded* under the retry policy: already-consumed results are
        never produced twice, so consumers see exactly one result per
        batch, byte-identical to an undisturbed run (chunk evaluation
        is pure).  Leaving the loop early — a failure, or a consumer
        closing the stream — cancels every batch still queued, so an
        abandoned dispatch never keeps a warm pool busy.
        """
        position = 0
        attempt = 1
        while True:
            pool = (
                self._ensure_pool()
                if self.persistent
                else self._pool_factory(**pool_kwargs)
            )
            futures = []
            try:
                try:
                    futures = [
                        pool.submit(fn, *batch) for batch in batches[position:]
                    ]
                except BrokenExecutor as exc:
                    # The pool can already be broken at submit time (a
                    # worker died while a persistent pool sat idle).
                    raise EvaluationError(
                        f"{self.name} pool broke before dispatching "
                        f"{len(batches) - position} batch(es); a worker died "
                        f"while the pool was idle: {exc!r}"
                    ) from exc
                for future in futures:
                    try:
                        result = future.result()
                    except BrokenExecutor as exc:
                        # Every unfinished future raises once the pool
                        # breaks; this batch (the next one unconsumed) is
                        # only the first to surface it.
                        raise EvaluationError(
                            f"{self.name} pool broke while batch "
                            f"{position + 1}/{len(batches)}"
                            f"{_batch_labels(batches[position])} was pending; a "
                            "worker died before reporting a result (crash, "
                            "out-of-memory or failed initializer) and may "
                            f"have been running any unfinished batch: {exc!r}"
                        ) from exc
                    yield result
                    position += 1
                return
            except EvaluationError as exc:
                died = self._worker_died(exc)
                if died and self.persistent:
                    # Drop the broken warm pool: a retry respawns it, and
                    # a systematic failure (a failing initializer, OOM)
                    # leaves no zombie pool behind.
                    self._shutdown_pool()
                if not died or attempt >= self.retry_policy.attempts:
                    raise
                self._note_recycle(exc, len(batches) - position)
                pause = self.retry_policy.delay(attempt)
                if pause > 0.0:
                    time.sleep(pause)
                attempt += 1
            finally:
                for future in futures:
                    future.cancel()
                if not self.persistent:
                    pool.shutdown(wait=True, cancel_futures=True)

    # -- persistent-pool lifecycle -------------------------------------------

    def _prime(
        self, initializer: Callable[..., None], initargs: tuple, key: object
    ) -> None:
        """Adopt a worker priming; a changed key recycles the pool."""
        if self._pool is not None and (key is None or key != self._pool_key):
            self._shutdown_pool()
        self._initializer = initializer
        self._initargs = initargs
        self._pool_key = key

    def _ensure_pool(self):
        if self._pool is None:
            kwargs: dict[str, Any] = {"max_workers": self.max_workers}
            if self._initializer is not None:
                kwargs["initializer"] = self._initializer
                kwargs["initargs"] = self._initargs
            self._pool = self._pool_factory(**kwargs)
        return self._pool

    @staticmethod
    def _worker_died(exc: BaseException) -> bool:
        return isinstance(exc.__cause__, BrokenExecutor)

    def _note_recycle(self, exc: BaseException, batch_count: int) -> None:
        self.recycle_count += 1
        _POOL_RECYCLES.inc(executor=self.name)
        _logger.debug(
            "%s pool broke (%r); recycling (recycle #%d) and "
            "retrying %d batch(es)",
            self.name,
            exc.__cause__,
            self.recycle_count,
            batch_count,
        )

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Tear down the persistent pool (idempotent, safe either mode)."""
        self._shutdown_pool()
        self._initializer = None
        self._initargs = ()
        self._pool_key = None

    def __enter__(self) -> "_PoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadExecutor(_PoolExecutor):
    """``ThreadPoolExecutor``-backed executor with ordered results.

    The cheap alternative to a process pool: no fork, no pickling, and
    real parallelism during the solve phase because scipy's ``spsolve``
    releases the GIL.  Chunk workers share nothing mutable (each builds
    its own evaluator pair), so results are identical to serial.
    """

    name = "thread"
    _pool_factory = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """``ProcessPoolExecutor``-backed executor with ordered results."""

    name = "process"
    _pool_factory = ProcessPoolExecutor


def _serial_factory(max_workers: int | None) -> Executor:
    if max_workers is not None:
        raise EvaluationError(
            "max_workers requires a pool executor ('thread' or 'process'); "
            "the serial executor runs everything in-process"
        )
    return SerialExecutor()


_EXECUTORS: dict[str, Callable[[int | None], Executor]] = {
    "serial": _serial_factory,
    "thread": lambda max_workers: ThreadExecutor(max_workers),
    "process": lambda max_workers: ProcessExecutor(max_workers),
}


def _resolve_executor(
    executor: str | Executor, max_workers: int | None
) -> Executor:
    if isinstance(executor, Executor):
        if max_workers is not None:
            raise EvaluationError(
                "max_workers only applies to named executors; configure "
                f"the {type(executor).__name__} instance directly"
            )
        return executor
    factory = _EXECUTORS.get(executor)
    if factory is None:
        raise EvaluationError(
            f"unknown executor {executor!r}; choose from {sorted(_EXECUTORS)} "
            "or pass an Executor instance"
        )
    return factory(max_workers)


#: Design labels quoted in failure messages before eliding the rest; a
#: large chunk would otherwise inflate the exception with every label.
_MAX_BATCH_LABELS = 8


def _batch_labels(batch: tuple) -> str:
    """Human-readable design labels hidden inside an argument batch.

    Bounded: at most :data:`_MAX_BATCH_LABELS` labels are spelled out,
    the rest collapse into an "… and N more" suffix.
    """
    for element in reversed(batch):
        if isinstance(element, (list, tuple)) and element:
            items = list(element)
            labels = [
                getattr(item, "label", None)
                for item in items[:_MAX_BATCH_LABELS]
            ]
            if all(label is not None for label in labels):
                more = (
                    ""
                    if len(items) <= _MAX_BATCH_LABELS
                    else f", … and {len(items) - _MAX_BATCH_LABELS} more"
                )
                return f" (designs: {', '.join(labels)}{more})"
    return ""


def _checked_chunk(
    deadline: Deadline | None,
    checkpoint: Callable[[], None] | None,
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """In-process chunk wrapper: deadline and preemption per chunk.

    *checkpoint* is the service's priority seam — it raises (a
    preemption signal the caller catches) when a higher-priority
    request is waiting, so batch sweeps stop at the next chunk boundary
    exactly like an exhausted deadline does.
    """
    if deadline is not None:
        deadline.check("chunk evaluation")
    if checkpoint is not None:
        checkpoint()
    return fn(*args)


def _chunk_task(
    kind: str,
    designs: Sequence[DesignSpec],
    options: dict,
    evaluators: tuple | None = None,
) -> list:
    """The one chunk task: snapshots (``"evaluate"``) or patch timelines
    (``"timeline"``) of *designs* over one shared evaluator pair.

    In-process executors bind the engine's long-lived *evaluators*; in a
    pool worker they come from the shared-memory-primed worker state
    (:func:`repro.evaluation.shared_memory.worker_evaluators`).
    *options* carries the worker telemetry options and, for timelines,
    the time grid, tolerance, campaign and transient method.
    """
    fault_point("worker.chunk", worker_only=True)
    return observability.capture(
        options["telemetry"],
        lambda: _solve_chunk(kind, designs, options, evaluators),
    )


def _solve_chunk(kind, designs, options, evaluators) -> list:
    if evaluators is None:
        from repro.evaluation.shared_memory import worker_evaluators

        evaluators = worker_evaluators()
    security, availability = evaluators
    shared = {
        "case_study": availability.case_study,
        "policy": availability.policy,
        "security_evaluator": security,
        "availability_evaluator": availability,
    }
    if kind == "evaluate":
        with tracing.span("chunk:evaluate", designs=len(designs)):
            return [
                _labelled("evaluating design", design, evaluate_design, **shared)
                for design in designs
            ]
    from repro.evaluation.timeline import evaluate_timeline

    times = options["times"]
    with tracing.span(
        "chunk:timeline", designs=len(designs), points=len(times)
    ):
        return [
            _labelled(
                "timeline of design",
                design,
                evaluate_timeline,
                times,
                tolerance=options["tolerance"],
                campaign=options["campaign"],
                method=options["method"],
                **shared,
            )
            for design in designs
        ]


def _labelled(what: str, design: DesignSpec, solve, *args, **kwargs):
    """``solve(design, *args, **kwargs)``, labelling any failure.

    Domain errors (:class:`~repro.errors.ReproError`) re-raise as
    :class:`~repro.errors.EvaluationError` with the design label
    prefixed — their messages are already self-explanatory.  Unexpected
    exceptions additionally embed the formatted traceback in the message
    (and drop the exception chain), so they survive the process-pool
    pickle boundary no matter what the original exception type carried.
    """
    try:
        return solve(design, *args, **kwargs)
    except ReproError as exc:
        raise EvaluationError(
            f"{what} {design.label!r} failed: {type(exc).__name__}: {exc}"
        ) from None
    except Exception as exc:
        raise EvaluationError(
            f"{what} {design.label!r} failed: {type(exc).__name__}: {exc}"
            f"\n{traceback.format_exc()}"
        ) from None


def _map_chunk(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    telemetry: dict | None = None,
) -> list:
    """Worker entry point for :meth:`SweepEngine.map`."""
    fault_point("worker.chunk", worker_only=True)
    return observability.capture(
        telemetry, lambda: [fn(item) for item in items]
    )


class SweepEngine:
    """Evaluate design spaces with caching and pluggable parallelism.

    Parameters
    ----------
    case_study:
        Enterprise description (default: the paper's).
    policy:
        Patch policy (default: critical-only, base score > 8.0).
    executor:
        ``"serial"``, ``"thread"``, ``"process"`` or an :class:`Executor`
        instance.
    max_workers:
        Worker cap for the named pool executors; rejected alongside an
        :class:`Executor` instance (configure the instance directly).
    chunk_size:
        Designs per executor task; defaults to an even split over
        ``4 * workers`` tasks (at least one design per task).
    database:
        Vulnerability database for variant lookups of heterogeneous
        designs (default: the case study's own database).
    cache_path:
        Optional sqlite file for a
        :class:`~repro.evaluation.cache.PersistentEvaluationCache`
        behind the in-memory memo: evaluations (and timelines) found on
        disk skip computation entirely, and fresh results are written
        back, so repeated CLI sweeps across sessions only pay for new
        designs.  Entries are keyed by ``DesignSpec.cache_key()`` plus a
        fingerprint of the case study / policy / database, so a cache
        file can never serve results from a different context.

    Examples
    --------
    >>> from repro.evaluation.sweep import enumerate_designs
    >>> engine = SweepEngine()
    >>> evaluations = engine.evaluate(enumerate_designs(["dns", "web"], 2))
    >>> [e.design.total_servers for e in evaluations]
    [2, 3, 3, 4]
    """

    def __init__(
        self,
        case_study: EnterpriseCaseStudy | None = None,
        policy: PatchPolicy | None = None,
        executor: str | Executor = "serial",
        max_workers: int | None = None,
        chunk_size: int | None = None,
        database: VulnerabilityDatabase | None = None,
        cache_path=None,
    ) -> None:
        self.case_study = case_study if case_study is not None else paper_case_study()
        self.policy = policy if policy is not None else CriticalVulnerabilityPolicy()
        self.executor = _resolve_executor(executor, max_workers)
        if chunk_size is not None:
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.database = database
        self._security_evaluator = None
        self._availability_evaluator = None
        if cache_path is not None:
            from repro.evaluation.cache import PersistentEvaluationCache

            self.persistent_cache = PersistentEvaluationCache(cache_path)
        else:
            self.persistent_cache = None
        self._fingerprint: str | None = None
        self._cache: dict[DesignSpec, DesignEvaluation] = {}
        self._timelines: dict[tuple, Any] = {}
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        #: Deadline of the in-flight evaluate/timeline call, if any.
        self._deadline: Deadline | None = None
        #: Preemption checkpoint of the in-flight call (raises to stop
        #: at the next chunk boundary), and the per-chunk progress
        #: consumer — both set only for the duration of one call.
        self._checkpoint: Callable[[], None] | None = None
        self._progress: Callable[[list], None] | None = None
        # Arm any REPRO_FAULTS plan now, in the coordinating process:
        # this materialises the shared one-shot token directory before
        # pool workers fork, so they inherit it through the environment.
        active_plan()
        # Warm-pool (persistent executor) state: the retained
        # shared-memory context and the deduped designs folded into it.
        # The segment must outlive each dispatch so late-spawned or
        # recycled workers can still attach and re-prime.
        self._warm_context = None
        self._warm_designs: list[DesignSpec] = []
        self._warm_design_set: set[DesignSpec] = set()

    # -- sweeping -----------------------------------------------------------

    def evaluate(
        self,
        designs: Iterable[DesignSpec],
        deadline: Deadline | None = None,
        checkpoint: Callable[[], None] | None = None,
        progress: Callable[[list], None] | None = None,
    ) -> list[DesignEvaluation]:
        """Evaluate *designs* (any mix of spec kinds), in input order.

        *deadline* bounds the call: the budget is checked between chunk
        dispatches (and between chunks on in-process executors), raising
        :class:`~repro.errors.DeadlineExceeded` once spent.  Results
        memoised by earlier calls are free, so a retried call only pays
        for designs the deadline cut off.

        *checkpoint* is called at the same chunk boundaries as the
        deadline check; raising from it aborts the sweep there — the
        service's batch-priority preemption seam.  Chunks finished
        before the abort stay memoised, so a resumed call pays only for
        the rest.  *progress* receives each chunk's evaluations as they
        complete (after memoisation; cached designs never reach it) —
        the streaming-response seam.  Either one forces chunked
        dispatch on the serial executor, like a deadline does.
        """
        designs = list(designs)
        self._deadline = deadline
        self._checkpoint = checkpoint
        self._progress = progress
        try:
            return self._evaluate(designs)
        finally:
            self._deadline = None
            self._checkpoint = None
            self._progress = None

    def _evaluate(self, designs: list[DesignSpec]) -> list[DesignEvaluation]:
        with tracing.span("engine:evaluate", designs=len(designs)) as sp:
            pending: list[DesignSpec] = []
            seen_pending: set[DesignSpec] = set()
            for design in designs:
                if design in self._cache:
                    self._hits += 1
                    _MEMO_HITS.inc()
                    continue
                if self.persistent_cache is not None:
                    stored = self.persistent_cache.get(
                        "evaluation", self._disk_key(design)
                    )
                    if stored is not None:
                        self._cache[design] = stored
                        self._disk_hits += 1
                        _DISK_TIER_HITS.inc()
                        continue
                if design not in seen_pending:
                    self._misses += 1
                    _MEMO_MISSES.inc()
                    seen_pending.add(design)
                    pending.append(design)
            sp.add(pending=len(pending))
            if pending:
                for chunk_result in self._run_chunks(
                    "evaluate", self._chunks(pending)
                ):
                    for evaluation in chunk_result:
                        self._cache[evaluation.design] = evaluation
                        if self.persistent_cache is not None:
                            self.persistent_cache.put(
                                "evaluation",
                                self._disk_key(evaluation.design),
                                evaluation,
                            )
                    if self._progress is not None:
                        self._progress(list(chunk_result))
            return [self._cache[design] for design in designs]

    def timeline(
        self,
        designs: Iterable[DesignSpec],
        times: Sequence[float],
        tolerance: float = 1e-10,
        campaign=None,
        method: str = "uniformisation",
        deadline: Deadline | None = None,
        checkpoint: Callable[[], None] | None = None,
        progress: Callable[[list], None] | None = None,
    ) -> list:
        """Patch timelines of *designs* over *times*, in input order.

        The transient companion of :meth:`evaluate`: same chunked
        dispatch (over the same long-lived evaluator pair), same
        deterministic ordering across executors, same two-level
        memoisation — in-memory per ``(design, time grid, tolerance,
        campaign)`` and, when a ``cache_path`` is configured, persisted
        on disk.  *campaign* optionally stages the rollout
        (:class:`~repro.patching.campaign.PatchCampaign`); *method*
        selects the transient backend (part of both cache keys); see
        :func:`repro.evaluation.timeline.evaluate_timeline`.  *deadline*
        bounds the call exactly as in :meth:`evaluate`, and
        *checkpoint*/*progress* are the same preemption and streaming
        seams.
        """
        designs = list(designs)
        self._deadline = deadline
        self._checkpoint = checkpoint
        self._progress = progress
        try:
            return self._timeline(designs, times, tolerance, campaign, method)
        finally:
            self._deadline = None
            self._checkpoint = None
            self._progress = None

    def _timeline(
        self,
        designs: list[DesignSpec],
        times: Sequence[float],
        tolerance: float,
        campaign,
        method: str,
    ) -> list:
        times_key = tuple(float(t) for t in times)
        with tracing.span(
            "engine:timeline", designs=len(designs), points=len(times_key)
        ) as sp:
            pending: list[DesignSpec] = []
            seen_pending: set[DesignSpec] = set()
            for design in designs:
                key = (design, times_key, tolerance, campaign, method)
                if key in self._timelines:
                    self._hits += 1
                    _MEMO_HITS.inc()
                    continue
                if self.persistent_cache is not None:
                    stored = self.persistent_cache.get(
                        "timeline",
                        self._timeline_disk_key(
                            design, times_key, tolerance, campaign, method
                        ),
                    )
                    if stored is not None:
                        self._timelines[key] = stored
                        self._disk_hits += 1
                        _DISK_TIER_HITS.inc()
                        continue
                if design not in seen_pending:
                    self._misses += 1
                    _MEMO_MISSES.inc()
                    seen_pending.add(design)
                    pending.append(design)
            sp.add(pending=len(pending))
            if pending:
                for chunk_result in self._run_chunks(
                    "timeline",
                    self._chunks(pending),
                    times=times_key,
                    tolerance=tolerance,
                    campaign=campaign,
                    method=method,
                ):
                    for result in chunk_result:
                        key = (
                            result.design, times_key, tolerance, campaign,
                            method,
                        )
                        self._timelines[key] = result
                        if self.persistent_cache is not None:
                            self.persistent_cache.put(
                                "timeline",
                                self._timeline_disk_key(
                                    result.design, times_key, tolerance,
                                    campaign, method,
                                ),
                                result,
                            )
                    if self._progress is not None:
                        self._progress(list(chunk_result))
            return [
                self._timelines[
                    (design, times_key, tolerance, campaign, method)
                ]
                for design in designs
            ]

    def _timeline_disk_key(
        self,
        design: DesignSpec,
        times_key: tuple[float, ...],
        tolerance: float,
        campaign,
        method: str = "uniformisation",
    ) -> str:
        """Timeline cache key; default-shaped keys keep their old form.

        Campaign-less, default-method keys keep the original tuple shape
        so the fingerprint bump (not the key shape) is what retires
        pre-dispatch cache entries.
        """
        parts: tuple = (design, times_key, tolerance)
        if campaign is not None:
            parts = parts + (campaign.cache_key(),)
        if method != "uniformisation":
            parts = parts + (("method", method),)
        return self._disk_key(*parts)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Ordered map of a picklable *fn* over *items* via the executor.

        The escape hatch for per-design measures beyond the standard
        snapshot (MTTC, survivability, cost): benchmarks and extensions
        fan out through the same executor without reimplementing
        chunking or ordering.
        """
        items = list(items)
        options = observability.telemetry_options()
        batches = [(fn, chunk, options) for chunk in self._chunks(items)]
        results: list[Any] = []
        for chunk_result in self._dispatch(_map_chunk, batches):
            results.extend(chunk_result)
        return results

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release warm-pool resources (idempotent).

        Unlinks the retained shared-memory segment, shuts down the
        executor's persistent pool (per-call pools have nothing to shut
        down) and closes the persistent disk cache.  Treat the engine as
        spent afterwards: with a ``cache_path``, an ``evaluate`` or
        ``timeline`` call reaching any design not already memoised
        raises :class:`~repro.errors.EvaluationError` (the cache is
        closed).  Use the context-manager form::

            with SweepEngine(executor=ProcessExecutor(persistent=True)) as engine:
                engine.evaluate(designs)
        """
        if self._warm_context is not None:
            self._warm_context.unlink()
            self._warm_context = None
        closer = getattr(self.executor, "close", None)
        if callable(closer):
            closer()
        if self.persistent_cache is not None:
            self.persistent_cache.close()

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache bookkeeping ----------------------------------------------------

    def clear_cache(self) -> None:
        """Drop memoised results and counters (the disk cache survives)."""
        self._cache.clear()
        self._timelines.clear()
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    @property
    def cache_info(self) -> dict[str, int]:
        """``{"hits", "misses", "size"}`` of the in-memory result cache
        (plus ``"disk_hits"`` when a persistent cache is configured)."""
        info = {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache) + len(self._timelines),
        }
        if self.persistent_cache is not None:
            info["disk_hits"] = self._disk_hits
            info["disk_degraded"] = int(self.persistent_cache.degraded)
        return info

    @property
    def shared_context_info(self) -> dict | None:
        """Telemetry of the retained shared-memory context (or None)."""
        if self._warm_context is None:
            return None
        return self._warm_context.describe()

    # -- internal -------------------------------------------------------------

    def _shared_evaluators(self):
        """The engine's long-lived evaluator pair (lazily created).

        Shared across every serial/thread sweep this engine runs, and
        used as the precompute cache feeding the shared-memory context
        of process sweeps — repeated sweeps only solve structures and
        aggregates they have not seen before.
        """
        if self._availability_evaluator is None:
            from repro.evaluation.availability import AvailabilityEvaluator
            from repro.evaluation.security import SecurityEvaluator

            _logger.debug(
                "creating the engine's shared evaluator pair (executor=%s)",
                self.executor.name,
            )
            self._security_evaluator = SecurityEvaluator(
                self.case_study, database=self.database
            )
            self._availability_evaluator = AvailabilityEvaluator(
                self.case_study, self.policy, database=self.database
            )
        return self._security_evaluator, self._availability_evaluator

    @property
    def _persistent_pool(self) -> bool:
        """Whether the executor keeps a warm pool across dispatches."""
        return bool(getattr(self.executor, "persistent", False))

    def _use_shared_memory(self, chunks: Sequence[Sequence[Any]]) -> bool:
        """Whether this dispatch goes through the shared-memory pool.

        A per-call process pool handed a single chunk runs it in the
        parent instead (no pool spawn), over the engine's evaluators.
        """
        return isinstance(self.executor, ProcessExecutor) and (
            len(chunks) > 1 or self._persistent_pool
        )

    def _shared_context(self, designs: Sequence[Any]):
        from repro.evaluation.shared_memory import SharedSweepContext

        _, availability = self._shared_evaluators()
        return SharedSweepContext.build(
            self.case_study,
            self.policy,
            self.database,
            designs,
            evaluator=availability,
        )

    def _warm_shared_context(self, designs: Sequence[Any]):
        """The retained context for warm-pool dispatches.

        Reused as long as it covers every design of this dispatch (the
        common case: repeated sweeps over one space).  A design bringing
        a new role, variant or transition pattern rebuilds the context
        over everything seen so far — the parent-side evaluator caches
        make that incremental — and the changed segment name recycles
        the pool, so fresh workers re-prime with the superset.
        """
        if self._warm_context is not None and self._warm_context.covers(
            designs
        ):
            _logger.debug(
                "reusing warm shared context %s for %d design(s)",
                self._warm_context.segment_name,
                len(designs),
            )
            return self._warm_context
        for design in designs:
            if design not in self._warm_design_set:
                self._warm_design_set.add(design)
                self._warm_designs.append(design)
        previous = self._warm_context
        _logger.debug(
            "rebuilding warm shared context over %d design(s) "
            "(previous %s)",
            len(self._warm_designs),
            "covered too little" if previous is not None else "absent",
        )
        self._warm_context = self._shared_context(self._warm_designs)
        if previous is not None:
            # Old workers copied the arrays out at initialization; only
            # *new* workers attach, and they will use the new segment.
            previous.unlink()
        return self._warm_context

    def _dispatch(
        self, fn: Callable[..., Any], batches: Sequence[tuple], **priming
    ):
        """Run *batches* through the executor; yield absorbed results.

        Worker-process chunks come back wrapped in
        :class:`~repro.observability.ChunkTelemetry`; absorbing merges
        their metric deltas and spans into this process and unwraps the
        untouched results, so callers see the same shapes either way.
        Results stream in batch order as they complete, so finished
        chunks are memoised — and surfaced to a progress consumer —
        before later ones compute; eager callers simply drain the
        generator.  *priming* is forwarded to :meth:`Executor.iter_run`.

        An active sweep deadline (and the preemption checkpoint) is
        checked before any work is submitted.  On in-process executors
        (serial/thread) each chunk re-checks both at entry; pool-backed
        executors cannot close over them (they are not picklable), so
        for them the checkpoint runs between consumed results instead —
        a preemption there forfeits at most the one chunk computed since
        the last boundary, which simply recomputes on resume (chunk
        evaluation is pure).
        """
        deadline, checkpoint = self._deadline, self._checkpoint
        if deadline is not None:
            deadline.check("chunk dispatch")
        if checkpoint is not None:
            checkpoint()
        between = checkpoint
        if (deadline is not None or checkpoint is not None) and isinstance(
            self.executor, (SerialExecutor, ThreadExecutor)
        ):
            fn = partial(_checked_chunk, deadline, checkpoint, fn)
            between = None
        dispatched = time.time()
        # Closed explicitly so a preemption raised here cancels the
        # executor's queued batches at once, not when the stream is
        # garbage-collected.
        stream = self.executor.iter_run(fn, batches, **priming)
        with closing(stream), tracing.span(
            "engine:dispatch",
            executor=self.executor.name,
            chunks=len(batches),
        ):
            for position, result in enumerate(stream):
                if position and between is not None:
                    between()
                yield observability.absorb(result, dispatched)

    def _run_chunks(self, kind: str, chunks: Sequence[Sequence[Any]], **params):
        """Yield each chunk's results of one *kind* as it completes.

        Process pools run :func:`_chunk_task` in workers primed from
        shared memory; every other dispatch binds the engine's
        long-lived evaluator pair.
        """
        options = {"telemetry": observability.telemetry_options(), **params}
        batches = [(kind, chunk, options) for chunk in chunks]
        if self._use_shared_memory(chunks):
            return self._run_shared_memory(batches, chunks)
        task = partial(_chunk_task, evaluators=self._shared_evaluators())
        return self._dispatch(task, batches)

    def _run_shared_memory(
        self, batches: Sequence[tuple], chunks: Sequence[Sequence[Any]]
    ):
        """Dispatch *batches* through the shared-memory process pool.

        Per-call pools build a context for exactly this dispatch and
        unlink it once the dispatch is exhausted or abandoned.  A
        persistent (warm) pool instead reuses the engine-retained
        context, keyed by its segment name: an unchanged key keeps the
        primed workers, a changed one recycles the pool so fresh
        workers re-prime from the new segment; the retained segment is
        released by :meth:`close`.
        """
        from repro.evaluation.shared_memory import initialize_worker

        designs = [design for chunk in chunks for design in chunk]
        persistent = self._persistent_pool
        if persistent:
            context = self._warm_shared_context(designs)
        else:
            context = self._shared_context(designs)
        priming = {
            "initializer": initialize_worker,
            "initargs": (context.worker_payload(),),
        }
        if persistent:
            priming["key"] = context.segment_name
        try:
            yield from self._dispatch(_chunk_task, batches, **priming)
        finally:
            if not persistent:
                context.unlink()

    def _disk_key(self, design: DesignSpec, *parts) -> str:
        """Persistent-cache key: context fingerprint + design identity."""
        from repro.evaluation.cache import PersistentEvaluationCache, context_fingerprint

        if self._fingerprint is None:
            self._fingerprint = context_fingerprint(
                self.case_study, self.policy, self.database
            )
        return PersistentEvaluationCache.entry_key(
            self._fingerprint, design.cache_key(), *parts
        )

    def _chunks(self, items: Sequence[Any]) -> list[Sequence[Any]]:
        if not items:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            workers = self.executor.max_workers
            if workers is None:
                # Serial executors gain nothing from splitting; one chunk
                # keeps a single shared evaluator pair across all designs.
                # Under a deadline (or a preemption checkpoint, or a
                # streaming consumer) the chunk boundary is the abort /
                # hand-off point, so split enough for it to actually run.
                split = (
                    self._deadline is not None
                    or self._checkpoint is not None
                    or self._progress is not None
                )
                size = 4 if split else len(items)
            else:
                size = max(1, -(-len(items) // max(1, 4 * workers)))
        return [items[i : i + size] for i in range(0, len(items), size)]
