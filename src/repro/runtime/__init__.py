"""Runtime orchestration: parallel sweeps, cost caching, metrics.

The layers:

* :mod:`repro.runtime.costcache` — the memoization layer the
  optimizers consult (``use_cache`` / ``CostCache``);
* :mod:`repro.runtime.runner` — the one sweep executor: chunked
  process pool or serial loop, retries, worker-death recovery,
  journaling and resume, with the cost-cache scope derived from those
  settings (``run_sweep`` / ``RetryPolicy`` / ``SweepTask`` /
  ``grid_tasks``), and the task-outcome record every outcome payload
  builds on (``TaskOutcome.to_record`` / ``validate_task_record``);
* :mod:`repro.runtime.metrics` — the JSON instrumentation schema
  (``sweep_metrics`` / ``validate_metrics`` / ``write_metrics``);
* :mod:`repro.runtime.resilience` — deterministic fault injection for
  the chaos tests (``FaultPlan``);
* :mod:`repro.runtime.journal` — the crash-safe JSONL task journal
  behind resumability (``repro.journal/2``);
* :mod:`repro.runtime.registry` — the content-addressed instance
  store behind chunked dispatch and the service daemon's keep-alive
  LRU (``InstanceRegistry`` / ``instance_key``).

The cache symbols are imported eagerly; the other layers load lazily
on first attribute access because the cost model itself imports
:mod:`repro.runtime.costcache` (PEP 562 keeps that import acyclic).
"""

from repro.runtime.costcache import (
    CacheStats,
    CostCache,
    active_cache,
    fingerprint,
    use_cache,
)

__all__ = [
    "CacheStats",
    "CostCache",
    "active_cache",
    "fingerprint",
    "use_cache",
    # lazily resolved:
    "OPTIMIZERS",
    "SweepTask",
    "TaskOutcome",
    "SweepResult",
    "run_sweep",
    "grid_tasks",
    "default_workers",
    "sweep_metrics",
    "validate_metrics",
    "write_metrics",
    "load_metrics",
    "RetryPolicy",
    "read_journal",
    "task_fingerprint",
    "InstanceRegistry",
    "instance_key",
]

_RUNNER_NAMES = {
    "OPTIMIZERS", "SweepTask", "TaskOutcome", "SweepResult",
    "run_sweep", "grid_tasks", "default_workers", "SweepTimeout",
    "WorkerDied", "ExecutorStats", "auto_chunksize", "RetryPolicy",
    "FAILURE_KINDS",
}
_METRICS_NAMES = {
    "sweep_metrics", "validate_metrics", "write_metrics", "load_metrics",
    "SCHEMA",
}
_RESILIENCE_NAMES = {"FaultInjection", "FaultPlan", "FaultInjected"}
_JOURNAL_NAMES = {
    "JournalWriter", "read_journal", "task_fingerprint",
    "completed_by_fingerprint",
}
_REGISTRY_NAMES = {
    "InstanceRegistry", "InstanceRef", "instance_key",
}


def __getattr__(name: str) -> object:
    if name in _RUNNER_NAMES:
        from repro.runtime import runner

        return getattr(runner, name)
    if name in _METRICS_NAMES:
        from repro.runtime import metrics

        return getattr(metrics, name)
    if name in _RESILIENCE_NAMES:
        from repro.runtime import resilience

        return getattr(resilience, name)
    if name in _JOURNAL_NAMES:
        from repro.runtime import journal

        return getattr(journal, name)
    if name in _REGISTRY_NAMES:
        from repro.runtime import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
