"""Instrumentation schema for sweep runs.

Turns a :class:`~repro.runtime.runner.SweepResult` into a plain-dict
payload (schema ``repro.sweep/1``), validates it, and writes it as JSON
— by convention next to the text tables under ``benchmarks/results/``.

Payload layout::

    {
      "schema": "repro.sweep/1",
      "grid": {...},                  # caller-supplied description
      "mode": "serial" | "parallel",
      "workers": int,
      "cache_enabled": bool,
      "wall_time_s": float,           # whole-sweep wall clock
      "tasks": [{...}, ...],          # one task-outcome record per task
      "totals": {
        "tasks": int, "ok": int, "timed_out": int, "errors": int,
        "wall_time_s": float,         # summed task wall clock
        "plans_explored": int,
        "cost_evaluations": int,      # cache misses = work performed
        "cache_hits": int, "cache_hit_rate": float,
        "cache_evictions": int,
        "peak_subproblems": int,      # peak memoized-entry count
        "retries": int,               # attempts beyond each task's first
        "recovered_workers": int,     # worker processes replaced, one per death
        "resumed_tasks": int,         # outcomes restored from a journal
        "ship_bytes": int,            # pickled instance bytes shipped
        "registry_hits": int,         # worker-side live-instance reuses
        "kernels_compiled": int,      # actual kernel constructions
        "chunks": int                 # chunk payloads dispatched
      }
    }

Each task entry is the task-outcome record of
:meth:`~repro.runtime.runner.TaskOutcome.to_record`, checked by
:func:`~repro.runtime.runner.validate_task_record` — the same record
and check the journal and the sweep replies build on.  The resilience
counters in ``totals`` and the executor fields (the last four totals,
from :class:`~repro.runtime.runner.ExecutorStats`) are validated when
present but not required.  Executor fields describe scheduling, not
results: they are excluded from every bit-identity contract.

``validate_metrics`` is the schema check the tests run against every
emitted payload; it raises :class:`ValidationError` with the offending
path on any violation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.runtime.runner import SweepResult, validate_task_record
from repro.utils.validation import (
    FieldType,
    ValidationError,
    require,
    require_fields,
)

SCHEMA = "repro.sweep/1"

PathLike = Union[str, Path]


def sweep_metrics(
    result: SweepResult, grid: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Build the schema payload for one sweep result."""
    tasks = [outcome.to_record() for outcome in result.outcomes]
    totals_cache = result.cache_totals()
    payload = {
        "schema": SCHEMA,
        "grid": dict(grid or {}),
        "mode": result.mode,
        "workers": result.workers,
        "cache_enabled": result.cache_enabled,
        "wall_time_s": result.wall_time,
        "tasks": tasks,
        "totals": {
            "tasks": len(result.outcomes),
            "ok": sum(1 for o in result.outcomes if o.ok),
            "timed_out": sum(1 for o in result.outcomes if o.timed_out),
            "errors": sum(
                1 for o in result.outcomes if o.error and not o.timed_out
            ),
            "wall_time_s": sum(o.wall_time for o in result.outcomes),
            "plans_explored": result.explored_total,
            "cost_evaluations": totals_cache.misses,
            "cache_hits": totals_cache.hits,
            "cache_hit_rate": totals_cache.hit_rate,
            "cache_evictions": totals_cache.evictions,
            "peak_subproblems": totals_cache.peak_size,
            "retries": result.retries,
            "recovered_workers": result.recovered_workers,
            "resumed_tasks": result.resumed,
            "ship_bytes": result.executor.ship_bytes,
            "registry_hits": result.executor.registry_hits,
            "kernels_compiled": result.executor.kernels_compiled,
            "chunks": result.executor.chunks,
        },
    }
    validate_metrics(payload)
    return payload


_TOTALS_FIELDS: Dict[str, FieldType] = {
    "tasks": int,
    "ok": int,
    "timed_out": int,
    "errors": int,
    "wall_time_s": (int, float),
    "plans_explored": int,
    "cost_evaluations": int,
    "cache_hits": int,
    "cache_hit_rate": (int, float),
    "cache_evictions": int,
    "peak_subproblems": int,
}


def validate_metrics(payload: Dict[str, Any]) -> None:
    """Raise :class:`ValidationError` unless ``payload`` fits the schema."""
    require(isinstance(payload, dict), "metrics payload must be a dict")
    require(
        payload.get("schema") == SCHEMA,
        f"metrics schema must be {SCHEMA!r}, got {payload.get('schema')!r}",
    )
    for name in ("grid", "mode", "workers", "cache_enabled",
                 "wall_time_s", "tasks", "totals"):
        require(name in payload, f"metrics: missing field {name!r}")
    require(isinstance(payload["grid"], dict), "metrics.grid must be a dict")
    require(
        payload["mode"] in ("serial", "parallel"),
        f"metrics.mode must be serial|parallel, got {payload['mode']!r}",
    )
    require(isinstance(payload["tasks"], list), "metrics.tasks must be a list")
    for position, task in enumerate(payload["tasks"]):
        validate_task_record(task, f"metrics.tasks[{position}]")
    totals = payload["totals"]
    require(isinstance(totals, dict), "metrics.totals must be a dict")
    require_fields(totals, _TOTALS_FIELDS, "metrics.totals")
    require(
        totals["tasks"] == len(payload["tasks"]),
        "metrics.totals.tasks must equal len(metrics.tasks)",
    )
    hit_rate = totals["cache_hit_rate"]
    require(
        0.0 <= hit_rate <= 1.0,
        f"metrics.totals.cache_hit_rate must lie in [0, 1], got {hit_rate}",
    )
    for name in ("retries", "recovered_workers", "resumed_tasks",
                 "ship_bytes", "registry_hits", "kernels_compiled",
                 "chunks"):
        if name in totals:
            value = totals[name]
            require(
                isinstance(value, int)
                and not isinstance(value, bool)
                and value >= 0,
                f"metrics.totals.{name} must be a non-negative int",
            )


def write_metrics(payload: Dict[str, Any], path: PathLike) -> Path:
    """Validate and write the payload as pretty JSON; returns the path."""
    validate_metrics(payload)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_metrics(path: PathLike) -> Dict[str, Any]:
    """Read and validate a previously written payload."""
    payload = json.loads(Path(path).read_text())
    validate_metrics(payload)
    return payload
