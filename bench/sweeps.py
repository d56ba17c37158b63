"""The sweep workloads: repeated ``api.sweep`` calls on fresh instances."""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import workloads
from measure import Outcome, percentile
from tracing import span
from workloads import WORKERS, Refs

from repro import api
from repro.observability import Tracer

#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 5


@dataclass
class Rep:
    """One repetition: every spec of the workload, back to back."""

    wall: float
    tasks: int
    busy: float
    ship_bytes: int
    registry_hits: int
    kernels_compiled: int
    chunks: int
    evaluations: int
    cache_hits: int
    failed_tasks: int


def run_rep(
    specs: List[Any],
    refs: Refs,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
) -> Rep:
    """Run the specs, time them, and check every output against
    ``refs``; with a tracer, graft each sweep's task trees."""
    results = []
    started = time.perf_counter()
    for spec in specs:
        with span(tracer, "runtime.sweep"):
            result = api.sweep(spec)
            if tracer is not None:
                records = result.trace_records()
                if result.mode == "parallel":
                    records[0]["attrs"]["parallel"] = result.workers
                tracer.graft(records, origin="sweep")
        results.append(result)
    wall = time.perf_counter() - started
    failed_tasks = 0
    for result in results:
        for task in result:
            outcome.attempted += 1
            if not task.ok:
                failed_tasks += 1
                outcome.fail(f"{task.optimizer} on {task.label}: {task.error}")
            elif not workloads.same_result(
                refs[(task.optimizer, task.label)][0], task.result
            ):
                outcome.fail(f"{task.optimizer} on {task.label}: result "
                             "differs from the direct reference")
    totals = [result.cache_totals() for result in results]
    return Rep(
        wall=wall,
        tasks=sum(len(result) for result in results),
        busy=sum(task.wall_time for result in results for task in result),
        ship_bytes=sum(r.executor.ship_bytes for r in results),
        registry_hits=sum(r.executor.registry_hits for r in results),
        kernels_compiled=sum(r.executor.kernels_compiled for r in results),
        chunks=sum(r.executor.chunks for r in results),
        evaluations=sum(total.misses for total in totals),
        cache_hits=sum(total.hits for total in totals),
        failed_tasks=failed_tasks,
    )


def repeat(
    name: str,
    seed: int,
    seconds: float,
    refs: Refs,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
) -> List[Rep]:
    """Repetitions until ``seconds`` have passed (at least one)."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        specs = workloads.sweep_specs(name, seed, trace=tracer is not None)
        reps.append(run_rep(specs, refs, outcome, tracer))
    return reps


def runtime_metrics(reps: List[Rep], outcome: Outcome) -> None:
    """The ``runtime.*`` per-layer metrics, medians over repetitions."""
    median = statistics.median
    walls = sum(rep.wall for rep in reps)
    hits = sum(rep.cache_hits for rep in reps)
    lookups = hits + sum(rep.evaluations for rep in reps)
    outcome.add("runtime.tasks_per_s",
                sum(rep.tasks for rep in reps) / walls, "1/s")
    outcome.add("runtime.busy_s", median([rep.busy for rep in reps]), "s")
    outcome.add("runtime.wait_frac", median(
        [1.0 - rep.busy / (WORKERS * rep.wall) for rep in reps]), "ratio")
    for field, unit in (("ship_bytes", "bytes"), ("registry_hits", "count"),
                        ("kernels_compiled", "count"), ("chunks", "count")):
        outcome.add(f"runtime.{field}",
                    median([getattr(rep, field) for rep in reps]), unit)
    outcome.add("runtime.cost_evaluations",
                median([rep.evaluations for rep in reps]), "count")
    outcome.add("runtime.cache_hit_ratio", hits / lookups, "ratio")
    outcome.add("runtime.failed_tasks",
                sum(rep.failed_tasks for rep in reps), "count")
    for rep in reps:
        outcome.check(
            rep.busy <= WORKERS * rep.wall,
            f"runtime.busy_s {rep.busy:.3f} exceeds {WORKERS} workers x "
            f"sweep wall {rep.wall:.3f} s",
        )


def probe(
    cells: List[Tuple[Any, Any]],
    refs: Refs,
    outcome: Outcome,
) -> None:
    """``runtime.*`` for a served workload: its distinct requests run
    once through ``api.sweep``, one spec per optimizer."""
    groups: Dict[str, List[Tuple[Any, Any]]] = {}
    for key, request in cells:
        groups.setdefault(request.algorithm, []).append((key, request))
    specs = []
    cell_refs = {}
    for algorithm, members in groups.items():
        instances = [(f"r{key}", request.instance) for key, request in members]
        params = {(algorithm, f"r{key}"): request.kwargs()
                  for key, request in members}
        specs.append(api.SweepSpec.build((algorithm,), instances, params,
                                         workers=WORKERS))
        cell_refs.update({(algorithm, f"r{key}"): refs[key]
                          for key, _ in members})
    runtime_metrics([run_rep(specs, cell_refs, outcome)], outcome)


def setup_seconds(name: str, seed: int) -> float:
    """Median time for a fresh process to import the program and build
    one repetition's inputs (spawn to its ``ready`` line)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, workloads.__file__, name, str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        # select, not a timed wait: Popen.wait(timeout) polls in 50 ms
        # steps, which would quantize a quarter-second measurement.
        ready, _, _ = select.select([process.stdout], [], [], 120)
        if not ready:
            process.kill()
        line = process.stdout.readline()
        samples.append(time.perf_counter() - started)
        process.stdout.close()
        if process.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed: {line!r}")
    return statistics.median(samples)


def end_to_end(reps: List[Rep], outcome: Outcome) -> None:
    """Latency is one repetition's wall time; throughput is tasks/s."""
    walls_ms = [rep.wall * 1000.0 for rep in reps]
    outcome.add("latency_p50_ms", statistics.median(walls_ms), "ms")
    outcome.add("latency_p90_ms", percentile(walls_ms, 90), "ms")
    outcome.add("throughput_per_s",
                sum(rep.tasks for rep in reps) / sum(rep.wall for rep in reps),
                "1/s")
    outcome.add("latency_samples", len(reps), "count")
