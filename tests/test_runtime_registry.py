"""Tests for the content-addressed registry and the chunked executor.

Four contracts, per ISSUE requirements:

* registry semantics — content-keyed dedup, one decode per key and
  the same object on every later get, counters; a pool worker decodes
  and compiles each distinct instance at most once;
* golden bit-identity — a chunked + registry parallel sweep produces
  outcome-for-outcome identical results (cost value, type and
  ``repr``, sequence, ``explored``, exact cache counters) to the
  serial runner, with ``cache=False`` so counters are
  schedule-independent;
* deterministic reassembly — pool completion order never leaks into
  outcome order (the module-docstring guarantee), and an inconsistent
  outcome set is rejected rather than silently returned;
* resilience under chunking — a worker killed mid-chunk re-queues at
  *task* granularity, costs only its own chunk, and the recovered
  sweep stays bit-identical.

Executor stats (``ship_bytes``/``registry_hits``/``kernels_compiled``/
``chunks``) describe scheduling, not results: the tests assert they
move in the right direction but never fold them into the bit-identity
comparison.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.requests import OptimizeRequest, SweepSpec
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.runtime.journal import task_fingerprint
from repro.runtime.metrics import sweep_metrics, validate_metrics
from repro.runtime.registry import (
    InstanceRef,
    InstanceRegistry,
    instance_key,
)
from repro.runtime import runner as runner_mod
from repro.runtime.resilience import FaultInjection, FaultPlan
from repro.runtime.runner import (
    OPTIMIZERS,
    ExecutorStats,
    RetryPolicy,
    SweepTask,
    TaskOutcome,
    auto_chunksize,
    grid_tasks,
    run_sweep,
    _reassemble,
)
from repro.utils.validation import ValidationError
from repro.workloads.queries import random_query


def _counted(counters, name):
    return counters.counter_value(f"runtime.registry_{name}")


def _tasks(optimizers=("dp", "greedy-cost", "iterative"), seeds=2, n=5):
    """A grid that *repeats* instances across optimizers — the shape
    the registry dedups."""
    instances = [
        (f"reg-s{seed}", random_query(n, rng=seed)) for seed in range(seeds)
    ]
    kwargs = {
        (name, label): {
            "rng": 0, "restarts": 1, "neighborhood_samples": 4,
            "max_rounds": 2,
        }
        for name in optimizers if name == "iterative"
        for label, _ in instances
    }
    return grid_tasks(
        list(optimizers), instances,
        kwargs_for=lambda name, label: kwargs.get((name, label), {}),
    )


def _sleepy(instance, **_kwargs):
    time.sleep(0.5)
    return OPTIMIZERS["greedy-cost"](instance)


def pin_chunksize(monkeypatch, size):
    """Make the executor dispatch ``size`` tasks per chunk."""
    monkeypatch.setattr(
        runner_mod, "auto_chunksize", lambda _tasks, _workers: size
    )


def assert_bit_identical(actual, expected):
    """Value, type AND repr of every cost; sequence, explored, exact
    cache counters.  Executor stats are deliberately excluded."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.index, a.optimizer, a.label, a.ok) == (
            b.index, b.optimizer, b.label, b.ok,
        )
        assert a.result.cost == b.result.cost
        assert type(a.result.cost) is type(b.result.cost)
        assert repr(a.result.cost) == repr(b.result.cost)
        assert a.result.sequence == b.result.sequence
        assert a.explored == b.explored
        assert a.cache == b.cache
    assert actual.cache_totals() == expected.cache_totals()


# ---------------------------------------------------------------------
# instance_key / registry semantics
# ---------------------------------------------------------------------


class TestInstanceKey:
    def test_equal_content_distinct_objects_share_a_key(self):
        a = random_query(5, rng=3)
        b = pickle.loads(pickle.dumps(a))
        assert a is not b
        assert instance_key(a) == instance_key(b)

    def test_distinct_content_distinct_keys(self):
        assert instance_key(random_query(5, rng=0)) != instance_key(
            random_query(5, rng=1)
        )

    def test_graphless_instances_key_on_repr(self):
        assert instance_key((1, 2, "x")) == repr((1, 2, "x"))


class TestFingerprintsPinned:
    """Journals and the daemon's result cache match work by these
    digests, so a change to any of them stops journals that are
    already written from resuming."""

    def test_task_fingerprint(self):
        task = runner_mod.SweepTask(
            "sampling", random_query(5, rng=3), label="q0",
            kwargs=(("rng", 0),), timeout=2.5,
        )
        assert task_fingerprint(2, task) == (
            "5a49ef4a29ec5fc03a238fa71b494b447fe678a9"
        )

    def test_optimize_request_fingerprint(self):
        request = OptimizeRequest.build(
            random_query(5, rng=3), "sampling", rng=0
        )
        assert request.fingerprint() == (
            "ecf48dd63a8fcbfad44ee1200310e124036e32a9"
        )

    def test_sweep_spec_fingerprint(self):
        spec = SweepSpec.build(
            ["dp", "sampling"],
            [("q0", random_query(5, rng=3)), ("q1", random_query(4, rng=1))],
            params={("sampling", "q0"): {"rng": 0}},
            workers=2, timeout=2.5,
        )
        assert spec.fingerprint() == (
            "8176dff1aefdf96db1ba30efc4fc874781a641a8"
        )


class TestRegistry:
    def test_register_dedups_by_content(self):
        registry = InstanceRegistry()
        a = random_query(5, rng=0)
        b = pickle.loads(pickle.dumps(a))
        key_a = registry.register(a)
        key_b = registry.register(b)
        assert key_a == key_b
        assert len(registry) == 1
        assert registry.payload_bytes() == sum(
            len(blob) for blob in registry.payloads().values()
        )

    def test_live_hit_returns_the_same_object(self):
        """The first get decodes (a miss); every later get returns that
        same object (a hit).  Registering keeps only the payload."""
        registry = InstanceRegistry()
        instance = random_query(5, rng=0)
        key = registry.register(instance)
        counters = MetricsRegistry()
        with use_metrics(counters):
            decoded = registry.get(key)
            assert registry.get(key) is decoded
            assert registry.get(key) is decoded
        assert decoded is not instance
        assert instance_key(decoded) == key
        assert _counted(counters, "misses") == 1
        assert _counted(counters, "hits") == 2

    def test_unregistered_key_raises(self):
        counters = MetricsRegistry()
        with use_metrics(counters), pytest.raises(KeyError):
            InstanceRegistry().get("no-such-key")
        assert _counted(counters, "misses") == 0

    def test_from_payloads_round_trip(self):
        parent = InstanceRegistry()
        instance = random_query(5, rng=2)
        key = parent.register(instance)
        worker = InstanceRegistry.from_payloads(parent.payloads())
        decoded = worker.get(key)
        assert decoded is not instance
        assert instance_key(decoded) == key


# ---------------------------------------------------------------------
# Deterministic reassembly (the docstring's task-order guarantee)
# ---------------------------------------------------------------------


def _outcome(index):
    return TaskOutcome(index=index, optimizer="dp", label=f"t{index}")


class TestReassembly:
    def test_restores_submission_order_from_any_completion_order(self):
        shuffled = [_outcome(i) for i in (3, 0, 4, 1, 2)]
        ordered = _reassemble(shuffled, expected=5)
        assert [o.index for o in ordered] == [0, 1, 2, 3, 4]

    def test_rejects_missing_outcomes(self):
        with pytest.raises(ValidationError):
            _reassemble([_outcome(0), _outcome(2)], expected=3)

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ValidationError):
            _reassemble([_outcome(0), _outcome(0)], expected=2)

    def test_sweep_outcomes_are_in_task_order(self, monkeypatch):
        pin_chunksize(monkeypatch, 2)
        tasks = _tasks(seeds=2)
        result = run_sweep(tasks, workers=2, cache=False)
        assert [o.index for o in result] == list(range(len(tasks)))
        assert [o.optimizer for o in result] == [
            t.optimizer if isinstance(t.optimizer, str) else "?"
            for t in tasks
        ]


# ---------------------------------------------------------------------
# Golden bit-identity: chunked + registry parallel vs serial
# ---------------------------------------------------------------------


class TestChunkedBitIdentity:
    def test_chunked_parallel_matches_serial(self, monkeypatch):
        pin_chunksize(monkeypatch, 2)
        tasks = _tasks()
        serial = run_sweep(tasks, workers=1, cache=False)
        chunked = run_sweep(tasks, workers=2, cache=False)
        if chunked.mode != "parallel":
            pytest.skip("no process pool available here")
        assert_bit_identical(chunked, serial)
        executor = chunked.executor
        assert executor.chunks > 0
        assert executor.ship_bytes > 0
        # 3 optimizers per instance in one worker set: reuse must show.
        assert executor.registry_hits > 0

    def test_each_worker_decodes_and_compiles_an_instance_once(
        self, monkeypatch
    ):
        """Three kernel-using optimizers on each of two instances, one
        task per chunk: a worker keeps what it decoded and compiled for
        its life, so across both workers no instance is decoded or
        compiled more than twice."""
        pin_chunksize(monkeypatch, 1)
        tasks = _tasks(seeds=2)
        distinct = len({id(task.instance) for task in tasks})
        counters = MetricsRegistry()
        with use_metrics(counters):
            result = run_sweep(tasks, workers=2, cache=False)
        if result.mode != "parallel":
            pytest.skip("no process pool available here")
        hits = _counted(counters, "hits")
        misses = _counted(counters, "misses")
        assert (distinct, len(tasks)) == (2, 6)
        assert hits + misses == len(tasks)
        assert misses <= 2 * distinct
        assert result.executor.registry_hits == hits
        assert 0 < result.executor.kernels_compiled <= 2 * distinct

    def test_executor_stats_flow_into_metrics(self, monkeypatch):
        pin_chunksize(monkeypatch, 2)
        tasks = _tasks(seeds=2)
        result = run_sweep(tasks, workers=2, cache=False)
        payload = sweep_metrics(result, grid={"purpose": "registry-test"})
        validate_metrics(payload)
        totals = payload["totals"]
        for name in (
            "ship_bytes", "registry_hits", "kernels_compiled", "chunks"
        ):
            assert isinstance(totals[name], int)
            assert totals[name] >= 0
        if result.mode == "parallel":
            assert totals["ship_bytes"] == result.executor.ship_bytes

    def test_refs_do_not_perturb_journal_fingerprints(self, monkeypatch):
        """Registry addressing and journal identity agree: fingerprints
        computed from the original tasks match what a resumed sweep
        recomputes, chunked dispatch or not."""
        pin_chunksize(monkeypatch, 2)
        tasks = _tasks(seeds=2)
        before = [
            task_fingerprint(index, task)
            for index, task in enumerate(tasks)
        ]
        run_sweep(tasks, workers=2, cache=False)
        after = [
            task_fingerprint(index, task)
            for index, task in enumerate(tasks)
        ]
        assert before == after

    def test_serial_executor_stats_count_kernels(self):
        tasks = _tasks()
        result = run_sweep(tasks, workers=1, cache=False)
        assert result.executor.ship_bytes == 0
        assert result.executor.chunks == 0
        assert result.executor.kernels_compiled >= 0

    def test_concurrent_serial_sweeps_count_only_their_own_compiles(self):
        """The service daemon runs serial sweeps on several threads at
        once: each must report the kernels it compiled itself, one per
        instance (its retention scope keeps them across its tasks)."""
        barrier = threading.Barrier(2, timeout=60)
        compiled = {}

        def sweep(thread):
            seeds = range(4 * thread, 4 * thread + 4)
            tasks = grid_tasks(
                ["dp", "greedy-cost", "iterative"],
                [(f"c{seed}", random_query(9, rng=seed)) for seed in seeds],
            )
            barrier.wait()
            result = run_sweep(tasks, workers=1)
            compiled[thread] = result.executor.kernels_compiled

        threads = [
            threading.Thread(target=sweep, args=(thread,))
            for thread in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert compiled == {0: 4, 1: 4}


# ---------------------------------------------------------------------
# Schedule independence (Hypothesis): chunk size/workers never matter
# ---------------------------------------------------------------------


class TestScheduleIndependence:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        chunksize=st.integers(min_value=1, max_value=5),
        workers=st.integers(min_value=1, max_value=2),
    )
    def test_outcomes_independent_of_chunking(self, chunksize, workers):
        tasks = _tasks(optimizers=("dp", "greedy-cost"), seeds=2, n=4)
        reference = run_sweep(tasks, workers=1, cache=False)
        with pytest.MonkeyPatch.context() as patch:
            pin_chunksize(patch, chunksize)
            result = run_sweep(tasks, workers=workers, cache=False)
        assert_bit_identical(result, reference)

    def test_auto_chunksize_is_deterministic_and_bounded(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(1, 1) == 1
        assert auto_chunksize(200, 4) == auto_chunksize(200, 4)
        for tasks_n in (1, 7, 33, 200, 4096):
            for workers in (1, 2, 8):
                size = auto_chunksize(tasks_n, workers)
                assert 1 <= size <= 32
        with pytest.raises(ValidationError):
            auto_chunksize(-1, 2)
        with pytest.raises(ValidationError):
            auto_chunksize(4, 0)


# ---------------------------------------------------------------------
# Worker death mid-chunk: task-granular recovery
# ---------------------------------------------------------------------


class TestWorkerDeathMidChunk:
    def test_kill_mid_chunk_requeues_tasks_and_stays_identical(
        self, monkeypatch
    ):
        pin_chunksize(monkeypatch, 3)
        tasks = _tasks(optimizers=("dp", "greedy-cost"), seeds=3, n=4)
        plan = FaultPlan(
            faults=(FaultInjection(index=2, attempt=0, kind="worker-kill"),)
        )
        settings = dict(
            workers=2, cache=False, retry=RetryPolicy(attempts=3),
            sleep=lambda _delay: None,
        )
        result = run_sweep(tasks, fault_plan=plan, **settings)
        if result.mode != "parallel":
            pytest.skip("no process pool available here")
        assert result.recovered_workers >= 1
        assert all(o.ok for o in result)
        # The killed task burned at least one attempt before recovery.
        assert result.outcomes[2].attempts >= 2
        assert_bit_identical(result, run_sweep(tasks, **settings))

    def test_a_death_costs_only_its_own_chunk(self, monkeypatch):
        """One worker dies in one chunk while the other worker is half
        a second into the other chunk: only the dead worker's chunk is
        charged, and one successor is forked."""
        pin_chunksize(monkeypatch, 2)
        instance = random_query(5, rng=0)
        tasks = [
            SweepTask(optimizer=_sleepy, instance=instance, label="slow"),
            SweepTask(optimizer="dp", instance=instance, label="after"),
            SweepTask(optimizer="dp", instance=instance, label="before"),
            SweepTask(optimizer="greedy-cost", instance=instance, label="k"),
        ]
        plan = FaultPlan(
            faults=(FaultInjection(index=3, attempt=0, kind="worker-kill"),)
        )
        result = run_sweep(
            tasks, workers=2, retry=RetryPolicy(attempts=1), fault_plan=plan,
        )
        if result.mode != "parallel":
            pytest.skip("no process pool available here")
        slow_chunk, killed_chunk = result.outcomes[:2], result.outcomes[2:]
        assert all(o.ok and o.attempts == 1 for o in slow_chunk)
        assert [(o.failure, o.attempts) for o in killed_chunk] == [
            ("worker-died", 1), ("worker-died", 1),
        ]
        assert result.recovered_workers == 1

    def test_resilient_chunked_clean_run_matches_serial(self, monkeypatch):
        """With per-attempt caches (a retry policy) even *cached*
        counters are schedule-independent."""
        pin_chunksize(monkeypatch, 2)
        tasks = _tasks(seeds=2)
        retry = RetryPolicy(attempts=2)
        serial = run_sweep(tasks, workers=1, retry=retry)
        chunked = run_sweep(tasks, workers=2, retry=retry)
        if chunked.mode != "parallel":
            pytest.skip("no process pool available here")
        assert_bit_identical(chunked, serial)
        assert chunked.executor.chunks > 0

    def test_executor_stats_default_and_merge(self):
        base = ExecutorStats()
        assert (base.ship_bytes, base.registry_hits) == (0, 0)
        assert (base.kernels_compiled, base.chunks) == (0, 0)
        stats = ExecutorStats(
            ship_bytes=5, registry_hits=2, kernels_compiled=1, chunks=3,
        )
        assert stats.to_dict() == {
            "ship_bytes": 5,
            "registry_hits": 2,
            "kernels_compiled": 1,
            "chunks": 3,
        }
