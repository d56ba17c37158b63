"""Tests for the parallel sweep runner, cost cache and metrics layer.

The differential identity test is the load-bearing one: a parallel
sweep must return exactly what the serial sweep returns, in the same
order, regardless of worker completion order.
"""

import json
import time
from fractions import Fraction

import pytest

from repro.graphs.graph import Graph
from repro.hashjoin.instance import QOHInstance
from repro.joinopt.instance import QONInstance
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracer import Tracer, counter_totals, use_tracer
from repro.runtime import metrics as metrics_mod
from repro.runtime.costcache import CostCache, fingerprint, use_cache
from repro.runtime.metrics import (
    SCHEMA,
    ValidationError,
    load_metrics,
    sweep_metrics,
    validate_metrics,
    write_metrics,
)
from repro.runtime.resilience import FaultPlan
from repro.runtime.runner import (
    OPTIMIZERS,
    RetryPolicy,
    SweepTask,
    SweepTimeout,
    _call_with_timeout,
    default_workers,
    grid_tasks,
    run_sweep,
)
from repro.starqo.instance import SQOCPInstance
from repro.workloads.queries import chain_query, random_query

RANDOMIZED = {"iterative", "annealing", "sampling", "genetic"}


def _qoh_instance():
    """Path query 0-1-2-3, small enough for every QO_H searcher."""
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    return QOHInstance(
        graph,
        [64, 32, 128, 16],
        {(0, 1): Fraction(1, 8), (1, 2): Fraction(1, 16), (2, 3): Fraction(1, 4)},
        memory=64,
    )


def _sqocp_instance():
    """Three-satellite star, small enough for both SQO-CP solvers."""
    return SQOCPInstance(
        num_satellites=3,
        sort_passes=2,
        page_size=8,
        tuples=[120, 40, 80, 24],
        pages=[15, 5, 10, 3],
        sort_costs=[60, 20, 40, 12],
        selectivities=[Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)],
        satellite_access=[4, 6, 2],
        center_access=[12, 20, 8],
    )


def instance_for(name):
    """A small instance of the kind optimizer ``name`` takes."""
    if name.startswith("qoh-"):
        return _qoh_instance()
    if name.startswith("sqocp-"):
        return _sqocp_instance()
    if name == "ikkbz":  # tree queries only
        return chain_query(5, rng=1)
    return random_query(5, rng=1)


def _grid():
    instances = [
        (f"g-s{seed}", random_query(5, rng=seed)) for seed in range(3)
    ]
    return grid_tasks(
        ["dp", "bnb", "greedy-cost", "sampling"],
        instances,
        kwargs_for=lambda name, label: (
            {"rng": 0, "samples": 30} if name == "sampling" else {}
        ),
    )


def _slow_optimizer(instance, **_kwargs):
    time.sleep(5.0)
    return OPTIMIZERS["greedy-cost"](instance)


def _broken_optimizer(instance, **_kwargs):
    raise RuntimeError("boom")


class TestEveryOptimizerReportsWork:
    """Every optimizer reports its work in ``PlanResult.explored``."""

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_explored_positive(self, name):
        kwargs = {"rng": 0} if name in RANDOMIZED else {}
        result = OPTIMIZERS[name](instance_for(name), **kwargs)
        assert result is not None
        assert result.explored > 0, (
            f"{name} returned explored={result.explored}; every "
            "optimizer must report the plans it examined"
        )


class TestSerialSweep:
    def test_outcomes_in_task_order(self):
        tasks = _grid()
        result = run_sweep(tasks, workers=1)
        assert result.mode == "serial"
        assert len(result) == len(tasks)
        for index, (outcome, task) in enumerate(zip(result, tasks)):
            assert outcome.index == index
            assert outcome.label == task.label
            assert outcome.optimizer == task.optimizer_name
            assert outcome.ok
            assert outcome.explored > 0
            assert outcome.wall_time >= 0

    def test_shared_cache_accumulates_hits(self):
        result = run_sweep(_grid(), workers=1, cache=True)
        totals = result.cache_totals()
        assert totals.misses > 0
        assert totals.hits > 0  # dp/bnb share the subset-size lattice
        assert 0.0 <= totals.hit_rate <= 1.0

    def test_uncached_baseline_counts_evaluations(self):
        cached = run_sweep(_grid(), workers=1, cache=True)
        baseline = run_sweep(_grid(), workers=1, cache=False)
        assert baseline.cache_totals().hits == 0
        assert baseline.evaluations > cached.evaluations
        for a, b in zip(cached, baseline):
            assert a.result.cost == b.result.cost
            assert a.result.sequence == b.result.sequence

    def test_error_is_an_outcome_not_a_crash(self):
        task = SweepTask(
            optimizer=_broken_optimizer,
            instance=random_query(4, rng=0),
            label="broken",
        )
        result = run_sweep([task], workers=1)
        outcome = result.outcomes[0]
        assert not outcome.ok
        assert "RuntimeError" in outcome.error
        assert outcome.result is None


class TestCacheScope:
    """The executor derives cache scope from its settings: shared by
    default, one fresh cache per attempt once outcomes may be
    journaled, replayed or retried."""

    @pytest.mark.parametrize("isolating", [
        "journal", "attempts", "backoff", "fault_plan",
    ])
    def test_isolating_settings_give_each_attempt_a_fresh_cache(
        self, tmp_path, isolating
    ):
        settings = {
            "journal": dict(journal=tmp_path / "sweep.jsonl"),
            "attempts": dict(retry=RetryPolicy(attempts=2)),
            "backoff": dict(retry=RetryPolicy(backoff=0.5)),
            "fault_plan": dict(fault_plan=FaultPlan()),
        }[isolating]
        tasks = _grid()
        alone = [run_sweep([task], workers=1).outcomes[0].cache
                 for task in tasks]
        isolated = run_sweep(tasks, workers=1, **settings)
        assert [outcome.cache for outcome in isolated] == alone
        shared = run_sweep(tasks, workers=1)
        assert shared.cache_totals().hits > isolated.cache_totals().hits


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        """Differential identity: same plans, costs, explored, order."""
        tasks = _grid()
        serial = run_sweep(tasks, workers=1)
        parallel = run_sweep(tasks, workers=2)
        if parallel.mode != "parallel":
            pytest.skip("no process pool available here")
        assert [o.label for o in parallel] == [o.label for o in serial]
        for s, p in zip(serial, parallel):
            assert p.index == s.index
            assert p.optimizer == s.optimizer
            assert p.result.cost == s.result.cost
            assert p.result.sequence == s.result.sequence
            assert p.explored == s.explored

    def test_parallel_aggregates_cache_counters(self):
        tasks = _grid()
        parallel = run_sweep(tasks, workers=2)
        if parallel.mode != "parallel":
            pytest.skip("no process pool available here")
        totals = parallel.cache_totals()
        assert totals.misses > 0
        assert any(o.cache.misses > 0 for o in parallel)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        from repro.runtime import runner as runner_mod

        def explode(*_args, **_kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(runner_mod, "_make_executor", explode)
        tasks = _grid()
        result = run_sweep(tasks, workers=4)
        assert result.mode == "serial"
        assert all(o.ok for o in result)

    def test_default_workers_is_sane(self):
        workers = default_workers()
        assert 1 <= workers <= 8


class TestTimeouts:
    def test_timeout_marks_partial_outcome(self):
        task = SweepTask(
            optimizer=_slow_optimizer,
            instance=random_query(4, rng=0),
            label="slow",
            timeout=0.2,
        )
        start = time.perf_counter()
        result = run_sweep([task], workers=1)
        elapsed = time.perf_counter() - start
        outcome = result.outcomes[0]
        assert outcome.timed_out
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert outcome.result is None
        assert elapsed < 4.0  # the 5s sleep was actually interrupted

    def test_timeout_does_not_poison_later_tasks(self):
        tasks = [
            SweepTask(
                optimizer=_slow_optimizer,
                instance=random_query(4, rng=0),
                label="slow",
                timeout=0.2,
            ),
            SweepTask(
                optimizer="dp",
                instance=random_query(4, rng=0),
                label="fast",
            ),
        ]
        result = run_sweep(tasks, workers=1)
        assert result.outcomes[0].timed_out
        assert result.outcomes[1].ok
        assert result.outcomes[1].result.cost is not None

    def test_nested_timed_calls_restore_the_outer_alarm(self):
        """Regression: an inner timed call must not disarm the outer one.

        Before the fix, the inner ``_call_with_timeout`` cleared the
        SIGALRM itimer on exit, so the outer 0.3s budget was lost and
        the trailing sleep ran its full 10 seconds.
        """

        def outer():
            inner = _call_with_timeout(lambda: "inner-ok", 5.0)
            assert inner == "inner-ok"
            time.sleep(10)
            return "never"

        start = time.perf_counter()
        with pytest.raises(SweepTimeout):
            _call_with_timeout(outer, 0.3)
        assert time.perf_counter() - start < 4.0

    def test_inner_timeout_restores_handler_when_task_raises(self):
        def outer():
            with pytest.raises(RuntimeError):
                _call_with_timeout(self._boom, 5.0)
            time.sleep(10)
            return "never"

        start = time.perf_counter()
        with pytest.raises(SweepTimeout):
            _call_with_timeout(outer, 0.3)
        assert time.perf_counter() - start < 4.0

    @staticmethod
    def _boom():
        raise RuntimeError("task failed inside the inner timer")


class TestCostCacheUnit:
    def test_get_or_compute_counts(self):
        instance = random_query(4, rng=0)
        cache = CostCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute(instance, "k", 1, compute) == 42
        assert cache.get_or_compute(instance, "k", 1, compute) == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1

    def test_distinct_instances_do_not_collide(self):
        a = random_query(4, rng=0)
        b = random_query(4, rng=1)
        assert fingerprint(a) != fingerprint(b)
        cache = CostCache()
        assert cache.get_or_compute(a, "k", 1, lambda: "a") == "a"
        assert cache.get_or_compute(b, "k", 1, lambda: "b") == "b"

    def test_passthrough_mode_stores_nothing(self):
        instance = random_query(4, rng=0)
        cache = CostCache(maxsize=0)
        for _ in range(3):
            cache.get_or_compute(instance, "k", 1, lambda: 7)
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 3
        assert stats.size == 0


#: The optimizers that memoize their own call (``memoize_call``).
MEMOIZING = ("bnb", "exhaustive", "genetic")

#: The counters a cost cache's owner publishes.
CACHE_COUNTERS = ("runtime.cost_evaluations", "runtime.cache_hits")


class _Recorder(MetricsRegistry):
    """A registry that also lists each increment of the cache counters."""

    def __init__(self):
        super().__init__()
        self.published = []

    def inc(self, name, amount=1):
        if name in CACHE_COUNTERS:
            self.published.append((name, amount))
        super().inc(name, amount)


class _FailingTracer(Tracer):
    """A tracer that fails the traced call at its ``limit``-th cost
    lookup, after the cache has counted it."""

    def __init__(self, limit):
        super().__init__("failing")
        self.limit = limit
        self.lookups = 0

    def count(self, key, amount=1):
        super().count(key, amount)
        if key in ("cost_evaluations", "cache_hits"):
            self.lookups += 1
            if self.lookups == self.limit:
                raise RuntimeError("failed mid-call")


def _memoizing_call(name):
    """``(run, instance, kwargs)``: a call of optimizer ``name`` on a
    small instance."""
    instance = random_query(6, rng=3)
    kwargs = {"rng": 0} if name in RANDOMIZED else {}

    def run():
        return OPTIMIZERS[name](instance, **kwargs)

    return run, instance, kwargs


class TestMemoizeCall:
    @pytest.mark.parametrize("scope", ["use_cache", "sweep", "passthrough"])
    @pytest.mark.parametrize("name", MEMOIZING)
    def test_an_active_cache_takes_every_lookup(self, name, scope):
        """Under a user's cache, a serial sweep's or a pass-through
        one, the call looks up in that cache, publishes nothing itself,
        and returns the pass-through run's result."""
        run, instance, kwargs = _memoizing_call(name)
        passthrough = CostCache(maxsize=0)
        with use_cache(passthrough):
            want = run()
        assert passthrough.misses > 0  # every lookup misses
        registry = _Recorder()
        with use_metrics(registry):
            if scope == "sweep":
                task = SweepTask(name, instance, "q").with_kwargs(**kwargs)
                (outcome,) = run_sweep([task], workers=1).outcomes
                got, stats = outcome.result, outcome.cache
            else:
                cache = CostCache(None if scope == "use_cache" else 0)
                with use_cache(cache):
                    got = run()
                stats = cache.stats()
        assert stats.hits + stats.misses == passthrough.misses
        # Only a sweep publishes here: it owns its cache.
        owned = [
            ("runtime.cache_hits", stats.hits),
            ("runtime.cost_evaluations", stats.misses),
        ] if scope == "sweep" else []
        assert sorted(registry.published) == owned
        assert got == want
        assert type(got.cost) is type(want.cost)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("name", MEMOIZING)
    def test_no_active_cache_publishes_the_memo_once(self, name):
        run, _instance, _kwargs = _memoizing_call(name)
        registry = _Recorder()
        tracer = Tracer("direct")
        with use_metrics(registry), use_tracer(tracer), use_cache(None):
            want = run()
        counted = counter_totals(tracer.finish())
        assert counted["cost_evaluations"] > 0
        assert sorted(registry.published) == [
            ("runtime.cache_hits", counted.get("cache_hits", 0)),
            ("runtime.cost_evaluations", counted["cost_evaluations"]),
        ]
        passthrough = CostCache(maxsize=0)
        with use_cache(passthrough):
            assert repr(run()) == repr(want)

    @pytest.mark.parametrize("name", MEMOIZING)
    def test_a_failed_call_publishes_the_memo_once(self, name):
        run, _instance, _kwargs = _memoizing_call(name)
        registry = _Recorder()
        tracer = _FailingTracer(limit=5)
        with use_metrics(registry), use_tracer(tracer), use_cache(None):
            with pytest.raises(RuntimeError, match="failed mid-call"):
                run()
        counted = counter_totals(tracer.finish())
        assert sorted(registry.published) == [
            ("runtime.cache_hits", counted.get("cache_hits", 0)),
            ("runtime.cost_evaluations", counted["cost_evaluations"]),
        ]
        assert sum(amount for _name, amount in registry.published) == 5

    def test_a_nested_call_uses_the_outer_memo(self):
        """The pruned exhaustive search on a disconnected graph with
        ``allow_cartesian=False`` finds no sequence and calls itself
        again: the inner call looks up in the outer call's memo, and
        the memo is published once."""
        instance = QONInstance(
            Graph(4, [(0, 1), (2, 3)]), [10, 20, 30, 40],
            {(0, 1): Fraction(1, 10), (2, 3): Fraction(1, 5)},
        )
        registry = _Recorder()
        tracer = Tracer("direct")
        with use_metrics(registry), use_tracer(tracer), use_cache(None):
            OPTIMIZERS["exhaustive"](instance, allow_cartesian=False)
        records = tracer.finish()
        names = [record["name"] for record in records]
        assert names.count("optimize.exhaustive") == 2
        counted = counter_totals(records)
        assert counted["cache_hits"] > 0
        assert sorted(registry.published) == [
            ("runtime.cache_hits", counted["cache_hits"]),
            ("runtime.cost_evaluations", counted["cost_evaluations"]),
        ]


class TestMetrics:
    def _payload(self):
        result = run_sweep(_grid(), workers=1)
        return sweep_metrics(result, grid={"purpose": "unit-test"})

    def test_schema_round_trip(self, tmp_path):
        payload = self._payload()
        validate_metrics(payload)
        assert payload["schema"] == SCHEMA
        path = tmp_path / "metrics.json"
        write_metrics(payload, path)
        loaded = load_metrics(path)
        assert loaded == payload
        # The file is plain JSON, usable outside this codebase.
        assert json.loads(path.read_text())["totals"]["tasks"] == len(_grid())

    def test_totals_are_consistent(self):
        payload = self._payload()
        totals = payload["totals"]
        assert totals["tasks"] == len(payload["tasks"])
        assert totals["ok"] == sum(1 for t in payload["tasks"] if t["ok"])
        assert totals["plans_explored"] == sum(
            t["explored"] for t in payload["tasks"]
        )
        assert 0.0 <= totals["cache_hit_rate"] <= 1.0

    def test_validation_rejects_corrupt_payloads(self):
        payload = self._payload()
        broken = dict(payload, schema="bogus/9")
        with pytest.raises(ValidationError):
            validate_metrics(broken)
        broken = json.loads(json.dumps(payload))
        broken["totals"]["cache_hit_rate"] = 3.5
        with pytest.raises(ValidationError):
            validate_metrics(broken)
        broken = json.loads(json.dumps(payload))
        del broken["totals"]["tasks"]
        with pytest.raises(ValidationError):
            validate_metrics(broken)

    def test_metrics_module_is_lazy_loaded(self):
        import repro.runtime as runtime

        assert runtime.sweep_metrics is metrics_mod.sweep_metrics
