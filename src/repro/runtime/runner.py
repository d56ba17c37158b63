"""The sweep executor for optimizer x instance grids.

The gap-family experiments (Theorems 9/15/16/17) are verified by
sweeping many reduction instances through many optimizers.  This module
turns such a grid into a list of :class:`SweepTask` and runs it through
one executor, :func:`run_sweep`:

* over ``workers`` forked worker processes when ``workers > 1``
  (:mod:`repro.utils.process`, which also makes the service daemon's
  compute processes).  Dispatch is *chunked* (deterministic
  :func:`auto_chunksize` heuristic), one chunk in flight per worker,
  and instances travel through the content-addressed
  :class:`~repro.runtime.registry.InstanceRegistry`: each *distinct*
  instance payload reaches each worker exactly once, through the
  fork, tasks carry lightweight
  :class:`~repro.runtime.registry.InstanceRef` markers, and each
  worker decodes an instance once and keeps it, with its compiled
  kernels (:mod:`repro.perf.kernels`), for its life.  Chunks complete
  in arbitrary order; :func:`_reassemble` restores exact task order
  from the per-outcome task index;
* serially — with identical outcome semantics — when ``workers <= 1``
  or no worker can be forked.  The tasks' own instance objects are
  shared, and their compiled kernels live until the sweep ends.

Either way each task runs under a per-task wall-clock timeout
(SIGALRM-based, so a stuck optimizer returns a *marked* partial
outcome instead of hanging the sweep) and a
:class:`~repro.runtime.costcache.CostCache`.  Failures are survivable:
a :class:`RetryPolicy` re-runs failed tasks with deterministic backoff,
a dead worker is replaced and costs only the chunk it was running
(each of its tasks is charged a ``worker-died`` attempt), and an
optional journal (:mod:`repro.runtime.journal`) durably records each
finished task so ``run_sweep(..., resume=True)`` can skip it after a
crash.

**Cache scope** is derived, not configured.  An attempt gets a *fresh*
cache whenever its outcome may be journaled, replayed or retried —
a journal (or resume), ``retry.attempts > 1``, ``retry.backoff > 0``
or a fault plan — because only then is every outcome a pure function
of its task, which is what makes a resumed sweep bit-identical to an
uninterrupted one.  Otherwise the serial loop shares one cache across
the sweep and each worker process keeps one cache for its lifetime, so
cross-task reuse (e.g. three exact optimizers walking the same subset
lattice) is captured.

Worker-persistent state never changes results: every decode of one
payload is structurally equal, optimizers are pure functions of
instance content, and the cost cache keys on the content fingerprint —
so chunked and serial runs produce bit-identical outcomes (value,
type, ``repr``), which ``tests/test_runtime_registry.py`` enforces
across schedules.

Every outcome carries wall time, plans explored, and the cache-counter
movement attributable to that task.  :meth:`TaskOutcome.to_record` is
the one plain-data form of an outcome: ``repro.sweep/1``
(:mod:`repro.runtime.metrics`) writes it per task, and journal records
and sweep replies extend it.  What the executor itself did to move the
work is counted in :class:`~repro.observability.metrics.MetricsRegistry`
scopes: each sweep keeps one tally that the executor runs under, and
each dispatched chunk counts into a registry of its own whose counters
the parent adds to it.  The tally is the one source of the sweep-level
:class:`ExecutorStats` (``ship_bytes``, ``registry_hits``,
``kernels_compiled``, ``chunks``) and of every counter the sweep
publishes to the caller's registry.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.hashjoin.annealing import qoh_simulated_annealing
from repro.hashjoin.optimizer import qoh_greedy, qoh_optimal
from repro.hashjoin.search import qoh_beam_search
from repro.joinopt.optimizers import (
    branch_and_bound,
    dp_optimal,
    exhaustive_optimal,
    genetic_algorithm,
    greedy_min_cost,
    greedy_min_size,
    ikkbz,
    iterative_improvement,
    random_sampling,
    simulated_annealing,
)
from repro.observability.metrics import (
    MetricsRegistry,
    active_metrics,
    use_metrics,
)
from repro.observability.tracer import Tracer, use_tracer
from repro.runtime.costcache import CacheStats, CostCache, use_cache
from repro.runtime.registry import InstanceRef, InstanceRegistry
from repro.starqo.dp import sqocp_dp
from repro.starqo.optimizer import sqocp_optimal
from repro.utils.process import Worker, serve_jobs, spawn_worker, stop_workers
from repro.utils.validation import (
    FieldType,
    ValidationError,
    require,
    require_fields,
)

if TYPE_CHECKING:  # runtime imports would be circular: both import this
    from repro.runtime.journal import JournalWriter
    from repro.runtime.resilience import FaultPlan

PathLike = Union[str, Path]

#: Name -> callable registry shared with the CLI.  Values must be
#: module-level functions so task specs pickle across processes.
OPTIMIZERS: Dict[str, Callable] = {
    "exhaustive": exhaustive_optimal,
    "bnb": branch_and_bound,
    "dp": dp_optimal,
    "ikkbz": ikkbz,
    "greedy-cost": greedy_min_cost,
    "greedy-size": greedy_min_size,
    "iterative": iterative_improvement,
    "annealing": simulated_annealing,
    "sampling": random_sampling,
    "genetic": genetic_algorithm,
    "qoh-exhaustive": qoh_optimal,
    "qoh-greedy": qoh_greedy,
    "qoh-beam": qoh_beam_search,
    "qoh-annealing": qoh_simulated_annealing,
    "sqocp-exhaustive": sqocp_optimal,
    "sqocp-dp": sqocp_dp,
}


@dataclass(frozen=True)
class SweepTask:
    """One cell of the grid: run ``optimizer`` on ``instance``.

    ``optimizer`` is a registry name or any picklable callable taking
    the instance as its first argument plus ``kwargs``.
    """

    optimizer: Union[str, Callable]
    instance: object
    label: str = ""
    kwargs: Tuple[Tuple[str, object], ...] = ()
    timeout: Optional[float] = None

    def with_kwargs(self, **kwargs: object) -> "SweepTask":
        return replace(self, kwargs=tuple(sorted(kwargs.items())))

    @property
    def optimizer_name(self) -> str:
        if isinstance(self.optimizer, str):
            return self.optimizer
        return getattr(self.optimizer, "__name__", repr(self.optimizer))


#: The failure taxonomy: a failed task is exactly one of these.
FAILURE_KINDS = ("timeout", "error", "worker-died", "cancelled")


@dataclass(frozen=True)
class TaskOutcome:
    """What happened when one task ran."""

    index: int
    optimizer: str
    label: str
    result: object = None
    wall_time: float = 0.0
    timed_out: bool = False
    error: Optional[str] = None
    #: Failure taxonomy: ``None`` on success, else one of
    #: :data:`FAILURE_KINDS` — ``"timeout"``, ``"error"``,
    #: ``"worker-died"`` or ``"cancelled"``.
    failure: Optional[str] = None
    #: Attempts consumed to produce this outcome (``> 1`` after
    #: retries; ``0`` for tasks cancelled before ever running).
    attempts: int = 1
    cache: CacheStats = field(default_factory=CacheStats)
    #: Per-task span records (plain dicts, ids local to this task),
    #: present when the sweep ran with tracing enabled.
    trace: Optional[Tuple[dict, ...]] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out

    @property
    def explored(self) -> int:
        return getattr(self.result, "explored", 0) if self.result else 0

    def to_record(self) -> Dict[str, Any]:
        """The task-outcome record: this outcome as plain JSON data.

        ``repro.sweep/1`` writes it as it is; journal records add
        ``record``, ``fingerprint``, ``result`` and ``trace``, and sweep
        replies add ``result``.  :func:`validate_task_record` checks it
        and :meth:`from_record` inverts it.
        """
        return {
            "index": self.index,
            "optimizer": self.optimizer,
            "label": self.label,
            "ok": self.ok,
            "timed_out": self.timed_out,
            "error": self.error,
            "failure": self.failure,
            "attempts": self.attempts,
            "wall_time_s": self.wall_time,
            "explored": self.explored,
            "cache": self.cache.to_dict(),
        }

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, Any],
        result: object = None,
        trace: Optional[Tuple[Dict[str, Any], ...]] = None,
    ) -> "TaskOutcome":
        """Rebuild the outcome a validated record was made from.

        The record does not hold the result or the span records;
        whoever extended it decodes those and passes them in.
        ``explored`` and ``ok`` are derived, so they are not read back.
        """
        cache = record["cache"]
        return cls(
            index=record["index"],
            optimizer=record["optimizer"],
            label=record["label"],
            result=result,
            wall_time=record["wall_time_s"],
            timed_out=record["timed_out"],
            error=record["error"],
            failure=record["failure"],
            attempts=record["attempts"],
            cache=CacheStats(
                hits=cache["hits"],
                misses=cache["misses"],
                evictions=cache["evictions"],
                size=cache["size"],
                peak_size=cache["peak_size"],
            ),
            trace=trace,
        )


_NULLABLE_STR = (str, type(None))

_RECORD_FIELDS: Dict[str, FieldType] = {
    "index": int,
    "optimizer": str,
    "label": str,
    "ok": bool,
    "timed_out": bool,
    "error": _NULLABLE_STR,
    "failure": _NULLABLE_STR,
    "attempts": int,
    "wall_time_s": (int, float),
    "explored": int,
    "cache": dict,
}

_CACHE_FIELDS: Dict[str, FieldType] = {
    "hits": int,
    "misses": int,
    "evictions": int,
    "size": int,
    "peak_size": int,
    "hit_rate": (int, float),
}


def validate_task_record(record: object, where: str) -> None:
    """Raise :class:`ValidationError` unless ``record`` holds a valid
    task-outcome record (:meth:`TaskOutcome.to_record`); extra fields
    are the extending schema's business.  ``where`` names the record in
    messages (``"journal record"``, ``"metrics.tasks[3]"``, ...).
    """
    if not isinstance(record, dict):
        raise ValidationError(f"{where} must be a dict")
    require_fields(record, _RECORD_FIELDS, where)
    if not (record["failure"] is None or record["failure"] in FAILURE_KINDS):
        raise ValidationError(
            f"{where}.failure must be null or one of {list(FAILURE_KINDS)}, "
            f"got {record['failure']!r}"
        )
    if not record["attempts"] >= 0:
        raise ValidationError(f"{where}.attempts must be >= 0")
    require_fields(record["cache"], _CACHE_FIELDS, f"{where}.cache")


@dataclass(frozen=True)
class ExecutorStats:
    """What the executor did to move the work (not what tasks computed),
    read from the sweep's counter tally (see the module docstring).

    ``ship_bytes`` (``runtime.ship_bytes``) — pickled instance bytes
    shipped to workers: each distinct payload travels once per forked
    worker (a successor ships again).  ``registry_hits``
    (``runtime.registry_hits``) — worker-side registry hits (a decoded
    instance was reused across tasks).  ``kernels_compiled``
    (``perf.kernel_compiles``) — actual :mod:`repro.perf.kernels`
    constructions, summed over workers (or over the serial loop).
    ``chunks`` (``runtime.sweep_chunks``) — chunk payloads dispatched;
    ``0`` in serial mode.

    All fields are additive and deliberately *excluded* from journal
    records and bit-identity contracts: they describe scheduling, not
    results.
    """

    ship_bytes: int = 0
    registry_hits: int = 0
    kernels_compiled: int = 0
    chunks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "ship_bytes": self.ship_bytes,
            "registry_hits": self.registry_hits,
            "kernels_compiled": self.kernels_compiled,
            "chunks": self.chunks,
        }


@dataclass(frozen=True)
class SweepResult:
    """All outcomes of one sweep, in task order."""

    outcomes: Tuple[TaskOutcome, ...]
    mode: str  # "parallel" or "serial"
    workers: int
    cache_enabled: bool
    wall_time: float
    #: Resilience counters — all zero for a clean, unjournaled sweep.
    #: ``retries`` = extra attempts consumed beyond each task's first,
    #: ``recovered_workers`` = worker processes replaced, one per death,
    #: ``resumed`` = outcomes restored from a journal by a resumed
    #: :func:`run_sweep`.
    retries: int = 0
    recovered_workers: int = 0
    resumed: int = 0
    #: Executor-level movement counters (see :class:`ExecutorStats`).
    executor: ExecutorStats = field(default_factory=ExecutorStats)

    def __iter__(self) -> Iterator[TaskOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def cache_totals(self) -> CacheStats:
        """Cache-counter movement summed over every task."""
        total = CacheStats()
        for outcome in self.outcomes:
            total = total.merged(outcome.cache)
        return total

    def failure_counts(self) -> Dict[str, int]:
        """Failed tasks bucketed by taxonomy label."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.failure is not None:
                counts[outcome.failure] = counts.get(outcome.failure, 0) + 1
        return counts

    def trace_records(self) -> List[dict]:
        """Per-task traces merged into one ``repro.trace/1`` span tree.

        A synthetic ``sweep`` root (id 0, duration = the sweep's wall
        time) adopts each task's subtree through :meth:`Tracer.graft`,
        in task-index order — so the merge is deterministic regardless
        of which worker finished first.  Each subtree's root is tagged
        ``origin: task-<index>``: it keeps its task-local (possibly
        worker-local) ``start_s`` clock; ``duration_s``, which is what
        the reports aggregate, is always comparable.
        """
        tracer = Tracer("sweep")
        for outcome in self.outcomes:
            if outcome.trace:
                tracer.graft(outcome.trace, origin=f"task-{outcome.index}")
        records = tracer.finish()
        root = records[0]
        root["start_s"] = 0.0
        root["duration_s"] = self.wall_time
        for name, value in (
            ("retries", self.retries),
            ("recovered_workers", self.recovered_workers),
            ("resumed_tasks", self.resumed),
            ("ship_bytes", self.executor.ship_bytes),
            ("registry_hits", self.executor.registry_hits),
            ("kernels_compiled", self.executor.kernels_compiled),
            ("chunks", self.executor.chunks),
        ):
            if value:
                root["counters"][name] = value
        root["attrs"] = {
            "mode": self.mode,
            "workers": self.workers,
            "cache_enabled": self.cache_enabled,
            "tasks": len(self.outcomes),
        }
        return records

    @property
    def evaluations(self) -> int:
        """Cost evaluations actually performed (cache misses)."""
        return self.cache_totals().misses

    @property
    def explored_total(self) -> int:
        return sum(outcome.explored for outcome in self.outcomes)


#: Each retry waits this many times as long as the one before ...
BACKOFF_FACTOR = 2.0
#: ... up to this many seconds.
MAX_BACKOFF_S = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry a failed task and how long to wait.

    ``attempts`` is the *total* number of tries per task.  The wait
    before retry ``k`` (1-based) is
    ``backoff * BACKOFF_FACTOR ** (k - 1)``, capped at
    ``MAX_BACKOFF_S`` — deliberately jitter-free so the schedule is
    deterministic and testable.
    """

    attempts: int = 1
    backoff: float = 0.0

    def __post_init__(self) -> None:
        require(self.attempts >= 1, "RetryPolicy.attempts must be >= 1")
        require(self.backoff >= 0.0, "RetryPolicy.backoff must be >= 0")

    def delay(self, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        require(retry >= 1, "retry numbers are 1-based")
        if self.backoff <= 0.0:
            return 0.0
        return min(
            self.backoff * BACKOFF_FACTOR ** (retry - 1), MAX_BACKOFF_S
        )

    def delays(self) -> Tuple[float, ...]:
        """The full backoff schedule for a task that fails every try."""
        return tuple(self.delay(k) for k in range(1, self.attempts))


class SweepTimeout(Exception):
    """Raised inside a task when its wall-clock budget expires."""


class WorkerDied(Exception):
    """A worker process died (or, in serial mode, pretended to).

    The chaos layer raises this in serial mode so the worker-death
    recovery path is exercisable without killing the test process; in
    a worker process an injected kill exits the process for real and
    the parent sees end of file on its pipe instead.
    """


def _raise_timeout(
    signum: int, frame: object
) -> None:  # pragma: no cover - signal plumbing
    raise SweepTimeout()


def _call_with_timeout(
    run: Callable[[], object], timeout: Optional[float]
) -> object:
    """Run ``run()`` under a real-time alarm when the platform has one.

    Nesting-safe: the previous handler *and* any previously armed
    itimer are restored in a ``finally`` — even when ``run()`` raises —
    so an inner timed call re-arms the enclosing call's remaining
    budget (minus the time the inner call consumed) instead of silently
    cancelling the outer alarm.
    """
    if not timeout or timeout <= 0 or not hasattr(signal, "setitimer"):
        return run()
    try:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
    except ValueError:  # not in the main thread: no alarm available
        return run()
    start = time.monotonic()
    prior_remaining, _ = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prior_remaining > 0.0:
            elapsed = time.monotonic() - start
            # An outer budget that expired while we ran fires (almost)
            # immediately under the restored handler.
            signal.setitimer(
                signal.ITIMER_REAL, max(prior_remaining - elapsed, 1e-6)
            )


def _resolve(task: SweepTask) -> Callable:
    if isinstance(task.optimizer, str):
        require(
            task.optimizer in OPTIMIZERS,
            f"unknown optimizer {task.optimizer!r}; "
            f"known: {sorted(OPTIMIZERS)}",
        )
        return OPTIMIZERS[task.optimizer]
    return task.optimizer


def _execute(index: int, task: SweepTask, cache: Optional[CostCache],
             default_timeout: Optional[float],
             trace: bool = False,
             attempt: int = 0,
             fault_plan: Optional["FaultPlan"] = None) -> TaskOutcome:
    """Run one task against ``cache`` (may be None) and time it.

    With ``trace`` a per-task :class:`Tracer` is installed for the
    task's dynamic extent — in serial and parallel mode alike, so the
    merged sweep trace is identical in shape either way.  The tracer
    survives timeouts and optimizer errors: ``finish()`` force-closes
    whatever spans the exception left open.

    When a :class:`~repro.runtime.resilience.FaultPlan` schedules a
    fault at ``(index, attempt)``, it fires inside the same try block
    the real failures use, so injected and organic failures are
    classified by one code path.
    """
    run = _resolve(task)
    kwargs = dict(task.kwargs)
    timeout = task.timeout if task.timeout is not None else default_timeout
    tracer = Tracer("task") if trace else None
    if tracer is not None:
        tracer.root["attrs"] = {
            "index": index,
            "optimizer": task.optimizer_name,
            "label": task.label,
        }
        if attempt:
            tracer.root["attrs"]["attempt"] = attempt
    fault: Optional[str] = None
    if fault_plan is not None:
        fault = fault_plan.fault_for(index, attempt)
    before = cache.stats() if cache is not None else CacheStats()
    start = time.perf_counter()
    result = None
    timed_out = False
    error: Optional[str] = None
    failure: Optional[str] = None
    try:
        if fault is not None:
            from repro.runtime.resilience import apply_fault

            apply_fault(
                fault, index=index, attempt=attempt,
                in_worker=_IN_POOL_WORKER,
            )
        with use_cache(cache):
            if tracer is not None:
                with use_tracer(tracer):
                    result = _call_with_timeout(
                        lambda: run(task.instance, **kwargs), timeout
                    )
            else:
                result = _call_with_timeout(
                    lambda: run(task.instance, **kwargs), timeout
                )
    except SweepTimeout:
        timed_out = True
        failure = "timeout"
        error = (
            f"timeout injected at task {index}, attempt {attempt}"
            if fault == "timeout" else f"timeout after {timeout}s"
        )
    except WorkerDied as exc:
        failure = "worker-died"
        error = f"WorkerDied: {exc}"
    except Exception as exc:  # noqa: BLE001 - outcomes report, not raise
        failure = "error"
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = cache.stats() if cache is not None else CacheStats()
    delta = after.delta(before)
    trace_records: Optional[Tuple[dict, ...]] = None
    if tracer is not None:
        records = tracer.finish()
        if delta.peak_size > 0:
            # Peak size of the subproblem store as of this task's end —
            # how deep the shared lattice had grown.
            tracer.root["counters"]["subproblem_peak"] = delta.peak_size
        trace_records = tuple(records)
    return TaskOutcome(
        index=index,
        optimizer=task.optimizer_name,
        label=task.label,
        result=result,
        wall_time=wall,
        timed_out=timed_out,
        error=error,
        failure=failure,
        attempts=attempt + 1,
        cache=delta,
        trace=trace_records,
    )


def _failed_outcome(
    index: int, task: SweepTask, attempts: int, failure: str, error: str
) -> TaskOutcome:
    """An outcome for a task the executor itself gave up on."""
    return TaskOutcome(
        index=index,
        optimizer=task.optimizer_name,
        label=task.label,
        timed_out=failure == "timeout",
        error=error,
        failure=failure,
        attempts=attempts,
    )


class _CacheScope:
    """Which cost cache each attempt runs against (see module doc).

    ``per_attempt`` hands every attempt a fresh cache; otherwise one
    cache lives as long as the scope — the whole serial sweep, or one
    worker process's lifetime (each fork copies the parent's unused
    scope).
    """

    def __init__(
        self, enabled: bool, maxsize: Optional[int], per_attempt: bool
    ) -> None:
        self._maxsize = maxsize if enabled else 0
        self._shared = None if per_attempt else CostCache(self._maxsize)

    def for_attempt(self) -> CostCache:
        if self._shared is not None:
            return self._shared
        return CostCache(self._maxsize)


# -- worker side --------------------------------------------------------
#: True inside a worker process: an injected worker-kill then exits the
#: process for real instead of raising :class:`WorkerDied`.
_IN_POOL_WORKER = False

#: One dispatched chunk: ``(index, task, attempt)`` triples — each
#: task's ``instance`` slot holding an :class:`InstanceRef` — plus the
#: sweep-wide timeout/trace/chaos settings.
_ChunkPayload = Tuple[
    Tuple[Tuple[int, SweepTask, int], ...],
    Optional[float], bool, Optional["FaultPlan"],
]
#: What a chunk sends back: its outcomes plus the counters it moved.
_ChunkResult = Tuple[Tuple[TaskOutcome, ...], Dict[str, int]]


def _serve_chunks(
    conn: Connection, scope: _CacheScope, payloads: Dict[str, bytes]
) -> None:
    """A worker process's life: run each chunk the sweep sends on
    ``conn`` until the sweep closes the pipe.

    The worker decodes each shipped instance once and keeps it, and
    its compiled kernels, for its life; ``scope`` is its own copy of
    the parent's cache scope.
    """
    from repro.perf.kernels import retain_kernels

    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    registry = InstanceRegistry.from_payloads(payloads)
    with retain_kernels():
        serve_jobs(conn, lambda chunk: _run_chunk(chunk, registry, scope))


def _run_chunk(
    payload: _ChunkPayload, registry: InstanceRegistry, scope: _CacheScope
) -> _ChunkResult:
    """Run one chunk of tasks inside a worker process.

    The registry hands every task of a repeated instance the *same*
    decoded object, so the per-instance kernel memo in
    :mod:`repro.perf.kernels` survives across tasks.  The chunk counts
    into a registry of its own — registry hits and misses, kernel
    compiles — and returns its counters with the outcomes, so the
    parent sees how much reuse actually happened in this chunk.
    """
    entries, default_timeout, trace, fault_plan = payload
    counters = MetricsRegistry()
    with use_metrics(counters):
        outcomes = tuple(
            _execute(
                index,
                replace(
                    task,
                    instance=registry.get(
                        cast(InstanceRef, task.instance).key
                    ),
                ),
                scope.for_attempt(), default_timeout,
                trace=trace, attempt=attempt, fault_plan=fault_plan,
            )
            for index, task, attempt in entries
        )
    return outcomes, counters.snapshot()["counters"]


def default_workers() -> int:
    count = os.cpu_count() or 1
    return max(1, min(count - 1, 8))


def auto_chunksize(num_tasks: int, workers: int) -> int:
    """Deterministic chunk-size heuristic: tasks per dispatched chunk.

    Aims for about four chunks per worker — enough slack for the pool
    to balance stragglers — while capping chunks at 32 tasks so one
    slow chunk cannot serialize a large sweep.  A pure function of its
    arguments: the same grid always dispatches the same chunks.
    """
    require(num_tasks >= 0, "num_tasks must be >= 0")
    require(workers >= 1, "workers must be >= 1")
    if num_tasks == 0:
        return 1
    return max(1, min(32, -(-num_tasks // (workers * 4))))


def _reassemble(
    outcomes: Iterable[TaskOutcome], expected: int
) -> List[TaskOutcome]:
    """Restore task order after unordered completion.

    Chunks finish in *completion* order, retries and resumed
    journal records land whenever they land; every outcome carries the
    task index it was dispatched with, so sorting on that index
    restores the exact task order.  Anything but exactly one outcome
    per index ``0..expected-1`` is rejected rather than returned.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.index)
    require(
        len(ordered) == expected
        and all(o.index == i for i, o in enumerate(ordered)),
        "executor returned an inconsistent outcome set",
    )
    return ordered


class _Ledger:
    """Bookkeeping shared by the serial and parallel loops: final outcomes,
    per-task attempt numbers, retry accounting and the journal."""

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        pending: Sequence[int],
        retry: RetryPolicy,
        sleep: Callable[[float], None],
        writer: Optional["JournalWriter"],
    ) -> None:
        self.tasks = tasks
        self.retry = retry
        self.sleep = sleep
        self.writer = writer
        self.attempt: Dict[int, int] = dict.fromkeys(pending, 0)
        self.outcomes: Dict[int, TaskOutcome] = {}
        self.retries = 0
        self.recovered = 0

    def finalize(self, index: int, outcome: TaskOutcome) -> None:
        self.outcomes[index] = outcome
        if self.writer is not None:
            # Fingerprints are only ever computed for a journal: hashing
            # every task would tax journal-free sweeps for nothing.
            from repro.runtime import journal

            self.writer.append(
                journal.task_fingerprint(index, self.tasks[index]), outcome
            )

    def settle(self, index: int, outcome: TaskOutcome) -> bool:
        """Finalize ``outcome`` — unless it failed with retry budget
        left: then charge a retry, back off, and return True (run the
        task again)."""
        attempt = self.attempt[index]
        if outcome.ok or attempt + 1 >= self.retry.attempts:
            self.finalize(index, outcome)
            return False
        self.retries += 1
        delay = self.retry.delay(attempt + 1)
        if delay > 0.0:
            self.sleep(delay)
        self.attempt[index] = attempt + 1
        return True

    def failed(self, index: int, failure: str, error: str) -> TaskOutcome:
        """The outcome of the current attempt when it never reported."""
        return _failed_outcome(
            index, self.tasks[index], self.attempt[index] + 1, failure, error
        )

    def cancel(self, indices: Iterable[int], error: str) -> None:
        """Mark ``indices`` cancelled.  Cancelled outcomes are *not*
        journaled, so a resume re-runs exactly these tasks."""
        for index in indices:
            self.outcomes[index] = _failed_outcome(
                index, self.tasks[index], self.attempt[index],
                "cancelled", error,
            )


def _run_serial(
    tasks: Sequence[SweepTask],
    pending: Sequence[int],
    ledger: _Ledger,
    scope: _CacheScope,
    timeout: Optional[float],
    trace: bool,
    fault_plan: Optional["FaultPlan"],
) -> None:
    from repro.perf.kernels import retain_kernels

    # In-process tasks already share live instances; keep their kernels
    # until the sweep ends so compilation is per instance, matching
    # what a worker process sees.
    position = 0
    with retain_kernels():
        try:
            for position, index in enumerate(pending):
                while ledger.settle(index, _execute(
                    index, tasks[index], scope.for_attempt(), timeout,
                    trace=trace, attempt=ledger.attempt[index],
                    fault_plan=fault_plan,
                )):
                    pass  # settle() charged a retry: run the next attempt
        except KeyboardInterrupt:
            running = pending[position]
            ledger.outcomes[running] = ledger.failed(
                running, "cancelled", "cancelled by interrupt"
            )
            ledger.cancel(
                pending[position + 1:], "cancelled before execution"
            )


def _run_parallel(
    tasks: Sequence[SweepTask],
    pending: Sequence[int],
    ledger: _Ledger,
    tally: MetricsRegistry,
    workers: int,
    scope: _CacheScope,
    timeout: Optional[float],
    trace: bool,
    fault_plan: Optional["FaultPlan"],
) -> bool:
    """Run ``pending`` on forked workers; returns False when not one
    can be forked.

    Each chunk's counters, the bytes shipped to each forked worker and
    the chunks dispatched are added to ``tally``.  Dispatch is chunked
    (:func:`auto_chunksize`), one chunk in flight per worker, but
    recovery stays at *task* granularity: retry accounting, journal
    records and resume fingerprints are all per task.  A worker that
    dies costs only its own chunk, each of whose tasks is charged one
    ``worker-died`` attempt and re-queued on its own, and a successor
    takes its place.  The sweep goes on with the workers it has; once
    none is left, the unfinished tasks fail ``worker-died``.
    """
    registry = InstanceRegistry()
    # Content-hash each instance *object* once, not once per task: a
    # grid repeats a few instances across many tasks, and the hash is
    # paid serially before any worker starts.  ``tasks`` keeps every
    # instance alive, so an id cannot be recycled meanwhile.
    keys: Dict[int, str] = {}
    shipped: Dict[int, SweepTask] = {}
    for index in pending:
        instance = tasks[index].instance
        if id(instance) not in keys:
            keys[id(instance)] = registry.register(instance)
        shipped[index] = replace(
            tasks[index], instance=InstanceRef(keys[id(instance)])
        )
    payloads = registry.payloads()
    per_chunk = auto_chunksize(len(pending), workers)

    def spawn() -> Optional[Worker]:
        worker = spawn_worker(_serve_chunks, (scope, payloads))
        if worker is not None:
            tally.inc("runtime.ship_bytes", registry.payload_bytes())
        return worker

    idle = [w for w in (spawn() for _ in range(workers)) if w is not None]
    if not idle:
        return False
    queue: Deque[int] = deque(pending)
    #: Each busy worker and the chunk it runs, by its pipe end.
    busy: Dict[Connection, Tuple[Worker, Tuple[int, ...]]] = {}

    def requeue_unless_final(index: int, outcome: TaskOutcome) -> None:
        if ledger.settle(index, outcome):
            queue.append(index)

    def fail(chunk: Tuple[int, ...], failure: str, error: str) -> None:
        for index in chunk:
            requeue_unless_final(index, ledger.failed(index, failure, error))

    def replace_dead(worker: Worker) -> None:
        ledger.recovered += 1
        stop_workers([worker], drained=False)
        successor = spawn()
        if successor is not None:
            idle.append(successor)

    finished = False
    try:
        while True:
            while queue and idle:
                worker = idle.pop()
                chunk = tuple(
                    queue.popleft() for _ in range(min(per_chunk, len(queue)))
                )
                try:
                    worker.conn.send((
                        tuple(
                            (index, shipped[index], ledger.attempt[index])
                            for index in chunk
                        ),
                        timeout, trace, fault_plan,
                    ))
                except OSError:  # the worker died between chunks
                    queue.extendleft(reversed(chunk))
                    replace_dead(worker)
                    continue
                except Exception as exc:  # noqa: BLE001 - cannot pickle
                    idle.append(worker)
                    fail(chunk, "error", f"{type(exc).__name__}: {exc}")
                    continue
                busy[worker.conn] = (worker, chunk)
                tally.inc("runtime.sweep_chunks")
            if not busy:
                break
            for conn in wait(list(busy)):
                worker, chunk = busy.pop(cast(Connection, conn))
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    replace_dead(worker)
                    fail(chunk, "worker-died", "worker process died mid-task")
                    continue
                idle.append(worker)
                if isinstance(reply, Exception):
                    fail(chunk, "error", f"{type(reply).__name__}: {reply}")
                    continue
                outcomes, counters = reply
                _add_counters(tally, counters)
                for outcome in outcomes:
                    requeue_unless_final(outcome.index, outcome)
        # Anything still queued has no worker left to run it.
        for index in queue:
            ledger.finalize(index, ledger.failed(
                index, "worker-died",
                "worker process died; no successor could be forked",
            ))
        finished = True
    except KeyboardInterrupt:
        # Wherever it landed: a chunk's reply may be half settled.
        ledger.cancel(
            [index for index in pending if index not in ledger.outcomes],
            "cancelled by interrupt",
        )
    finally:
        # Leaving by an interrupt or an error (a journal refusing a
        # result, say) must not leave workers and their chunks running.
        stop_workers(
            [*idle, *(worker for worker, _ in busy.values())],
            drained=finished,
        )
    return True


def _add_counters(
    registry: MetricsRegistry, counters: Mapping[str, int]
) -> None:
    for name, value in counters.items():
        registry.inc(name, value)


def publish_sweep_telemetry(
    result: SweepResult, counters: Mapping[str, int]
) -> SweepResult:
    """Publish a finished sweep into the live telemetry.

    One call per sweep, parent-side: the sweep's whole counter tally
    (``counters``) goes to the caller's active registry, together with
    the task, retry and recovery counts.  The executor ran under the
    tally, so nothing inside the sweep reached that registry directly
    and nothing is counted twice, whichever mode ran.  With no registry
    installed this is one global read.  Returns ``result`` unchanged,
    for call-site chaining.
    """
    registry = active_metrics()
    if registry is not None:
        ok = sum(1 for outcome in result.outcomes if outcome.ok)
        registry.inc("runtime.tasks_completed", ok)
        registry.inc("runtime.tasks_failed", len(result.outcomes) - ok)
        registry.inc("runtime.task_retries", result.retries)
        registry.inc("runtime.worker_recoveries", result.recovered_workers)
        _add_counters(registry, counters)
    return result


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: Optional[int] = None,
    cache: bool = True,
    cache_maxsize: Optional[int] = None,
    timeout: Optional[float] = None,
    trace: bool = False,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional["FaultPlan"] = None,
    journal: Optional[PathLike] = None,
    sleep: Callable[[float], None] = time.sleep,
    resume: bool = False,
) -> SweepResult:
    """Run every task and return outcomes in task order.

    Args:
        tasks: the grid, already flattened (order defines output order).
        workers: worker processes; ``None`` picks a machine default,
            ``<= 1`` runs serially, and so does a sweep that cannot fork
            a single worker.
        cache: memoize cost evaluations.  When False a pass-through
            cache still *counts* evaluations, so cached and uncached
            sweeps are comparable on the same instrumentation.
        cache_maxsize: bound the cache (LRU) at this many entries;
            ``None`` is unbounded.
        timeout: default per-task wall-clock budget in seconds
            (``SweepTask.timeout`` overrides per task).
        trace: record a per-task span tree on every outcome; merge the
            lot with :meth:`SweepResult.trace_records`.
        retry: attempts/backoff schedule; default is one attempt, no
            backoff.
        fault_plan: deterministic chaos schedule (tests only).
        journal: path to append fsynced per-task records to.
        sleep: backoff clock, injectable so tests assert the schedule
            without waiting it out.
        resume: restore every task whose fingerprint has a completed
            record in ``journal`` (bit-identical result, ``explored``,
            cache counters) and run only the rest, appending their
            records to the same journal.  Needs ``journal``; a missing
            or empty journal file restores nothing.

    A journal, a retry policy with more than one attempt or any
    backoff, or a fault plan gives every attempt a fresh cost cache
    (see the module docstring); otherwise the cache is shared.
    """
    tasks = list(tasks)
    completed: Dict[int, TaskOutcome] = {}
    if resume:
        require(journal is not None, "resume requires a journal path")
        from repro.runtime.journal import restore_outcomes

        completed = restore_outcomes(journal, tasks)
    retry = retry or RetryPolicy()
    if workers is None:
        workers = default_workers()
    start = time.perf_counter()
    per_attempt = (
        journal is not None or retry.attempts > 1 or retry.backoff > 0.0
        or fault_plan is not None
    )
    pending = [index for index in range(len(tasks)) if index not in completed]
    writer: Optional["JournalWriter"] = None
    if journal is not None:
        from repro.runtime.journal import JournalWriter

        writer = JournalWriter(
            journal, meta={"tasks": len(tasks), "resumed": len(completed)}
        )
    ledger = _Ledger(tasks, pending, retry, sleep, writer)
    tally = MetricsRegistry()
    scope = _CacheScope(cache, cache_maxsize, per_attempt)
    mode = "serial"
    try:
        with use_metrics(tally):
            if workers > 1 and len(pending) > 1 and _run_parallel(
                tasks, pending, ledger, tally, workers, scope,
                timeout, trace, fault_plan,
            ):
                mode = "parallel"
            else:
                _run_serial(
                    tasks, pending, ledger, scope, timeout, trace, fault_plan,
                )
    finally:
        if writer is not None:
            writer.close()
    # Cost-cache movement is counted from the outcomes this run
    # produced: restored ones were counted by the run that journaled them.
    ran = ledger.outcomes.values()
    tally.inc("runtime.cost_evaluations", sum(o.cache.misses for o in ran))
    tally.inc("runtime.cache_hits", sum(o.cache.hits for o in ran))
    counters = tally.snapshot()["counters"]

    outcomes = _reassemble(
        [*completed.values(), *ledger.outcomes.values()], len(tasks)
    )
    return publish_sweep_telemetry(SweepResult(
        outcomes=tuple(outcomes),
        mode=mode,
        workers=workers if mode == "parallel" else 1,
        cache_enabled=cache,
        wall_time=time.perf_counter() - start,
        retries=ledger.retries,
        recovered_workers=ledger.recovered,
        resumed=len(completed),
        executor=ExecutorStats(
            ship_bytes=counters.get("runtime.ship_bytes", 0),
            registry_hits=counters.get("runtime.registry_hits", 0),
            kernels_compiled=counters.get("perf.kernel_compiles", 0),
            chunks=counters.get("runtime.sweep_chunks", 0),
        ),
    ), counters)


def grid_tasks(
    optimizers: Sequence[Union[str, Callable]],
    instances: Sequence[Tuple[str, object]],
    kwargs_for: Optional[Callable[[str, str], Dict]] = None,
    timeout: Optional[float] = None,
) -> List[SweepTask]:
    """Flatten an optimizer x instance grid into tasks.

    ``instances`` is a sequence of ``(label, instance)`` pairs;
    ``kwargs_for(optimizer_name, label)`` supplies per-cell kwargs.
    Task order is instance-major, so serial caching sees all optimizers
    of one instance back to back.
    """
    tasks: List[SweepTask] = []
    for label, instance in instances:
        for optimizer in optimizers:
            name = (
                optimizer if isinstance(optimizer, str)
                else getattr(optimizer, "__name__", repr(optimizer))
            )
            kwargs = kwargs_for(name, label) if kwargs_for else {}
            tasks.append(
                SweepTask(
                    optimizer=optimizer,
                    instance=instance,
                    label=label,
                    kwargs=tuple(sorted(kwargs.items())),
                    timeout=timeout,
                )
            )
    return tasks
