"""Tests for the span tracer, trace schema, reports and sweep tracing.

The load-bearing invariant (the PR's acceptance criterion): the
``cost_evaluations`` counters summed over a sweep trace equal the
runner's own evaluation total — exactly, in serial and parallel mode,
with and without the cache.
"""

import json
import time

import pytest

from repro.observability import (
    SCHEMA,
    Tracer,
    active_tracer,
    aggregate,
    count,
    counter_totals,
    flame_report,
    hot_span,
    load_trace,
    span,
    summary_table,
    traced,
    use_tracer,
    validate_trace,
    write_trace,
)
from repro.observability.tracer import _NULL_SPAN
from repro.runtime.runner import grid_tasks, run_sweep
from repro.utils.validation import ValidationError
from repro.workloads.queries import random_query


def _grid():
    instances = [
        (f"g-s{seed}", random_query(5, rng=seed)) for seed in range(2)
    ]
    return grid_tasks(
        ["dp", "greedy-cost", "sampling"],
        instances,
        kwargs_for=lambda name, label: (
            {"rng": 0, "samples": 20} if name == "sampling" else {}
        ),
    )


class TestTracerUnit:
    def test_nesting_parent_child(self):
        tracer = Tracer("root")
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.count("work", 3)
            tracer.count("work", 1)
        records = tracer.finish()
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent"] == by_name["root"]["id"]
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["counters"] == {"work": 3}
        assert by_name["outer"]["counters"] == {"work": 1}

    def test_records_are_topologically_sorted(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        records = tracer.finish()
        seen = set()
        for record in records:
            assert record["parent"] is None or record["parent"] in seen
            seen.add(record["id"])

    def test_finish_is_idempotent_and_closes_root(self):
        tracer = Tracer()
        first = tracer.finish()
        second = tracer.finish()
        assert first is second
        assert first[0]["duration_s"] >= 0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        records = tracer.finish()
        doomed = next(r for r in records if r["name"] == "doomed")
        assert doomed["duration_s"] >= 0
        # The stack unwound: a later span is a child of the root again.
        with use_tracer(Tracer()) as fresh:
            with fresh.span("next"):
                pass
        assert fresh.finish()[1]["parent"] == fresh.root["id"]

    def test_count_outside_any_span_lands_on_root(self):
        tracer = Tracer()
        tracer.count("orphan", 2)
        assert tracer.root["counters"] == {"orphan": 2}


class TestModuleHelpers:
    def test_noop_when_no_tracer_installed(self):
        assert active_tracer() is None
        assert span("anything") is _NULL_SPAN
        count("anything", 5)  # must not raise

    def test_use_tracer_restores_previous(self):
        outer = Tracer()
        with use_tracer(outer):
            assert active_tracer() is outer
            inner = Tracer()
            with use_tracer(inner):
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is None

    def test_traced_decorator_records_span_and_explored(self):
        class Result:
            explored = 7

        @traced("optimize.fake")
        def fake_optimizer(instance):
            return Result()

        assert fake_optimizer(None).explored == 7  # no tracer: passthrough
        tracer = Tracer()
        with use_tracer(tracer):
            fake_optimizer(None)
        records = tracer.finish()
        fake = next(r for r in records if r["name"] == "optimize.fake")
        assert fake["counters"] == {"plans_explored": 7}
        assert fake_optimizer.__name__ == "fake_optimizer"


class TestTraceIO:
    def _records(self):
        tracer = Tracer("run")
        with tracer.span("phase"):
            tracer.count("cost_evaluations", 4)
        return tracer.finish()

    def test_round_trip_preserves_records_and_meta(self, tmp_path):
        records = self._records()
        path = tmp_path / "trace.jsonl"
        write_trace(records, path, meta={"mode": "serial", "n": 8})
        trace = load_trace(path)
        assert trace.meta == {"mode": "serial", "n": 8}
        assert trace.records == records
        assert len(trace) == len(records)
        assert [r["name"] for r in trace.roots()] == ["run"]
        assert trace.children_of(trace.roots()[0]["id"])[0]["name"] == "phase"
        # Line 1 is a plain JSON header other tools can sniff.
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA

    def test_validate_rejects_duplicate_ids(self):
        records = self._records()
        records.append(dict(records[0]))
        with pytest.raises(ValidationError):
            validate_trace(records)

    def test_validate_rejects_forward_parent(self):
        records = self._records()
        records[0], records[1] = records[1], records[0]
        with pytest.raises(ValidationError):
            validate_trace(records)

    def test_validate_rejects_non_int_counters(self):
        records = self._records()
        records[1]["counters"] = {"cost_evaluations": True}
        with pytest.raises(ValidationError):
            validate_trace(records)
        records[1]["counters"] = {"cost_evaluations": 1.5}
        with pytest.raises(ValidationError):
            validate_trace(records)

    def test_validate_rejects_negative_times(self):
        records = self._records()
        records[1]["duration_s"] = -0.1
        with pytest.raises(ValidationError):
            validate_trace(records)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"schema": "repro.trace/99", "meta": {}}\n')
        with pytest.raises(ValidationError):
            load_trace(path)
        path.write_text("")
        with pytest.raises(ValidationError):
            load_trace(path)


class TestReports:
    def _records(self):
        # Hand-built so self-time arithmetic is exact.
        return [
            {"id": 0, "parent": None, "name": "sweep", "start_s": 0.0,
             "duration_s": 10.0, "counters": {}},
            {"id": 1, "parent": 0, "name": "task", "start_s": 0.0,
             "duration_s": 6.0, "counters": {}},
            {"id": 2, "parent": 1, "name": "optimize.dp", "start_s": 1.0,
             "duration_s": 4.0, "counters": {"cost_evaluations": 30}},
            {"id": 3, "parent": 0, "name": "task", "start_s": 6.0,
             "duration_s": 4.0, "counters": {}},
            {"id": 4, "parent": 3, "name": "optimize.dp", "start_s": 6.5,
             "duration_s": 2.0, "counters": {"cost_evaluations": 12}},
        ]

    def test_aggregate_sums_calls_times_counters(self):
        rows = {row["name"]: row for row in aggregate(self._records())}
        dp = rows["optimize.dp"]
        assert dp["calls"] == 2
        assert dp["total_s"] == pytest.approx(6.0)
        assert dp["self_s"] == pytest.approx(6.0)  # leaves: self == total
        assert dp["counters"] == {"cost_evaluations": 42}
        task = rows["task"]
        assert task["self_s"] == pytest.approx(10.0 - 6.0)

    def test_hot_span_skips_structural_wrappers(self):
        name, share = hot_span(self._records())
        assert name == "optimize.dp"
        assert share == pytest.approx(0.6)
        assert hot_span([]) is None

    def test_summary_table_and_flame_render(self):
        records = self._records()
        table = summary_table(records)
        assert "optimize.dp" in table
        assert "cost_evaluations=42" in table
        assert "optimize.dp" not in summary_table(records, top=2)
        flame = flame_report(records)
        assert "task x2" in flame  # same-named siblings merged
        assert "(100.0%)" in flame
        shallow = flame_report(records, max_depth=0)
        assert "optimize.dp" not in shallow


class TestSweepTracing:
    def test_serial_trace_counters_match_runner_totals(self):
        result = run_sweep(_grid(), workers=1, trace=True)
        records = result.trace_records()
        validate_trace(records)
        totals = counter_totals(records)
        assert totals["cost_evaluations"] == result.evaluations
        assert totals.get("cache_hits", 0) == result.cache_totals().hits
        # Every optimizer's explored work is attributed to some span.
        assert totals["plans_explored"] >= result.explored_total

    def test_parallel_trace_matches_serial_shape_and_counters(self):
        tasks = _grid()
        serial = run_sweep(tasks, workers=1, trace=True)
        parallel = run_sweep(tasks, workers=2, trace=True)
        if parallel.mode != "parallel":
            pytest.skip("no multiprocessing pool available here")
        s_records = serial.trace_records()
        p_records = parallel.trace_records()
        validate_trace(p_records)
        assert sorted(r["name"] for r in s_records) == sorted(
            r["name"] for r in p_records
        )
        # Counter aggregation is mode-independent.
        p_totals = counter_totals(p_records)
        assert p_totals["cost_evaluations"] == parallel.evaluations
        s_totals = counter_totals(s_records)
        assert (
            s_totals["plans_explored"] == p_totals["plans_explored"]
        )

    def test_uncached_sweep_still_counts_evaluations(self):
        result = run_sweep(_grid(), workers=1, cache=False, trace=True)
        totals = counter_totals(result.trace_records())
        assert totals["cost_evaluations"] == result.evaluations
        assert totals.get("cache_hits", 0) == 0

    def test_task_spans_carry_labels_and_peak(self):
        result = run_sweep(_grid(), workers=1, trace=True)
        records = result.trace_records()
        roots = [r for r in records if r["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "sweep"
        task_spans = [
            r for r in records if r["parent"] == roots[0]["id"]
        ]
        assert len(task_spans) == len(result)
        labels = [t["attrs"]["label"] for t in task_spans]
        assert labels == [o.label for o in result]
        assert any(
            t["counters"].get("subproblem_peak", 0) > 0 for t in task_spans
        )

    @pytest.mark.parametrize("run", ["serial", "parallel", "resumed"])
    def test_merged_tree_is_pinned(self, run, tmp_path):
        """Ids, parents, names and ``origin`` tags of the merged tree,
        and the fields of its ``sweep`` root, for each way a sweep can
        produce its outcomes."""
        tasks = grid_tasks(
            ["dp", "iterative", "bnb"],
            [(f"q{seed}", random_query(6, rng=seed)) for seed in range(2)],
        )
        journal = tmp_path / "j.jsonl"
        if run == "serial":
            result = run_sweep(tasks, workers=1, trace=True)
        elif run == "parallel":
            result = run_sweep(tasks, workers=2, trace=True)
            if result.mode != "parallel":
                pytest.skip("no multiprocessing pool available here")
        else:
            run_sweep(tasks, workers=1, trace=True, journal=journal)
            result = run_sweep(
                tasks, workers=1, trace=True, journal=journal, resume=True
            )
            assert result.resumed == len(tasks)
        records = result.trace_records()
        validate_trace(records)
        assert [
            (r["id"], r["parent"], r["name"],
             r.get("attrs", {}).get("origin"))
            for r in records
        ] == [
            (0, None, "sweep", None),
            (1, 0, "task", "task-0"),
            (2, 1, "optimize.dp", None),
            (3, 0, "task", "task-1"),
            (4, 3, "optimize.iterative", None),
            (5, 0, "task", "task-2"),
            (6, 5, "optimize.bnb", None),
            (7, 6, "optimize.greedy_min_cost", None),
            (8, 0, "task", "task-3"),
            (9, 8, "optimize.dp", None),
            (10, 0, "task", "task-4"),
            (11, 10, "optimize.iterative", None),
            (12, 0, "task", "task-5"),
            (13, 12, "optimize.bnb", None),
            (14, 13, "optimize.greedy_min_cost", None),
        ]
        root = records[0]
        assert root["start_s"] == 0.0
        assert root["duration_s"] == result.wall_time
        assert root["attrs"] == {
            "mode": result.mode, "workers": result.workers,
            "cache_enabled": True, "tasks": 6,
        }
        if run == "serial":
            assert root["counters"] == {"kernels_compiled": 2}
        elif run == "resumed":
            assert root["counters"] == {"resumed_tasks": 6}
        else:
            # Which worker runs which chunk moves the registry and
            # kernel counts, so compare with the executor's own.
            assert root["counters"] == {
                name: value
                for name, value in result.executor.to_dict().items() if value
            }
            assert result.executor.chunks == 6
        # Every other field of a grafted record is the task's own.
        own = [record for outcome in result for record in outcome.trace]
        assert len(own) == len(records) - 1
        for merged, record in zip(records[1:], own):
            for key in ("name", "start_s", "duration_s", "counters"):
                assert merged[key] == record[key]
            attrs = dict(merged.get("attrs", {}))
            attrs.pop("origin", None)
            assert attrs == record.get("attrs", {})

    def test_untraced_sweep_carries_no_trace(self):
        result = run_sweep(_grid()[:2], workers=1)
        assert all(o.trace is None for o in result)
        # Only the synthetic sweep root remains — no task subtrees.
        assert [r["name"] for r in result.trace_records()] == ["sweep"]


class TestCLIAcceptance:
    """`repro sweep --family qon --n 8 --trace-out` end to end."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_counters_equal_metrics_totals(self, tmp_path, workers):
        from repro.cli import main
        from repro.runtime.metrics import load_metrics

        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        rc = main([
            "sweep", "--family", "qon", "--n", "8", "--quick",
            "--workers", str(workers),
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        trace = load_trace(trace_path)
        validate_trace(trace.records, meta=trace.meta)
        assert trace.meta["grid"]["family"] == "qon"
        totals = counter_totals(trace.records)
        metrics = load_metrics(metrics_path)
        assert totals["cost_evaluations"] == (
            metrics["totals"]["cost_evaluations"]
        )


class TestOverheadGuard:
    def test_disabled_tracing_costs_under_five_percent(self):
        """The no-op path must stay negligible on a Theorem-9 sweep.

        Measured structurally rather than as an A/B wall-clock diff
        (which is noise-bound in CI): the per-call cost of the disabled
        ``span``/``count`` helpers, times the number of instrumented
        calls the sweep actually makes, must be under 5% of the sweep's
        wall time.
        """
        assert active_tracer() is None
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            count("cost_evaluations")
        count_cost = (time.perf_counter() - start) / calls
        start = time.perf_counter()
        for _ in range(calls):
            with span("optimize.dp"):
                pass
        span_cost = (time.perf_counter() - start) / calls

        result = run_sweep(_grid(), workers=1, trace=True)
        records = result.trace_records()
        totals = counter_totals(records)
        instrumented = (
            sum(totals.values()) * count_cost
            + len(records) * span_cost
        )
        assert instrumented < 0.05 * result.wall_time, (
            f"no-op instrumentation estimated at {instrumented:.6f}s "
            f"vs sweep wall {result.wall_time:.6f}s"
        )
