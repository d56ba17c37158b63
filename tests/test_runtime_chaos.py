"""Chaos suite for the sweep executor's failure paths.

Deterministic fault injection (``repro.runtime.resilience``) exercises
every failure path of :func:`~repro.runtime.runner.run_sweep` without
real crashes (plus one test with a *real* SIGKILL of a journaled sweep
subprocess).  The load-bearing property throughout: once a sweep is
journaled, retried or faulted, every attempt gets a fresh cost cache,
so its outcomes are a pure function of its tasks — independent of
schedule, worker placement, injected faults that were retried away,
and how many times the sweep was interrupted.  Each faulted run is
therefore compared with the same call without the fault plan, and
each resumed run with an uninterrupted journaled one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.graphs.graph import Graph
from repro.hashjoin.instance import HashJoinCostModel, QOHInstance
from repro.hashjoin.pipeline import PipelineDecomposition

from repro.runtime.journal import (
    SCHEMA as JOURNAL_SCHEMA,
    completed_by_fingerprint,
    read_journal,
    record_to_outcome,
    task_fingerprint,
)
from repro.runtime.metrics import (
    sweep_metrics,
    validate_metrics,
    write_metrics,
)
from repro.runtime import journal as journal_mod
from repro.runtime.resilience import (
    FaultInjected,
    FaultInjection,
    FaultPlan,
    apply_fault,
)
from repro.runtime.runner import (
    FAILURE_KINDS,
    MAX_BACKOFF_S,
    OPTIMIZERS,
    RetryPolicy,
    SweepTask,
    SweepTimeout,
    WorkerDied,
    grid_tasks,
    run_sweep,
)
from repro.starqo.instance import SQOCPInstance, StarPlan
from repro.utils.lognum import LogNumber
from repro.utils.validation import ValidationError
from repro.workloads.queries import random_query
from tests.test_service import exited

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tasks(optimizers=("dp", "greedy-cost"), seeds=2):
    instances = [
        (f"c-s{seed}", random_query(5, rng=seed)) for seed in range(seeds)
    ]
    return grid_tasks(list(optimizers), instances)


def _no_sleep(_delay):
    return None


def _uninterrupted(tasks, tmp_path):
    """The reference for resumed sweeps: one journaled, clean run."""
    return run_sweep(tasks, workers=1, journal=tmp_path / "clean.jsonl")


def assert_equivalent(actual, expected):
    """Bit-identical outcomes: costs, sequences, explored, cache."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert (a.index, a.optimizer, a.label) == (
            b.index, b.optimizer, b.label,
        )
        assert a.ok and b.ok
        assert a.result.cost == b.result.cost
        assert type(a.result.cost) is type(b.result.cost)
        assert a.result.sequence == b.result.sequence
        assert a.explored == b.explored
        assert a.cache == b.cache
    assert actual.cache_totals() == expected.cache_totals()


def plan_of(*faults):
    return FaultPlan(faults=tuple(FaultInjection(*f) for f in faults))


class TestFaultPlan:
    def test_lookup_is_exact(self):
        plan = plan_of((2, 1, "error"))
        assert plan.fault_for(2, 1) == "error"
        assert plan.fault_for(2, 0) is None
        assert plan.fault_for(1, 1) is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            plan_of((0, 0, "meteor-strike"))

    def test_seeded_is_reproducible(self):
        a = FaultPlan.seeded(7, num_tasks=10, max_attempt=2)
        b = FaultPlan.seeded(7, num_tasks=10, max_attempt=2)
        assert a == b
        kinds = {fault.kind for fault in a.faults}
        assert kinds == {"timeout", "error", "worker-kill"}

    def test_apply_fault_raises_the_right_exception(self):
        with pytest.raises(SweepTimeout):
            apply_fault("timeout", index=0, attempt=0)
        with pytest.raises(FaultInjected):
            apply_fault("error", index=0, attempt=0)
        # Serial mode: worker-kill degrades to a catchable exception.
        with pytest.raises(WorkerDied):
            apply_fault("worker-kill", index=0, attempt=0)


class TestRetry:
    def test_retry_until_success(self):
        tasks = _tasks()
        settings = dict(
            workers=1, retry=RetryPolicy(attempts=2), sleep=_no_sleep
        )
        chaotic = run_sweep(
            tasks, fault_plan=plan_of((0, 0, "error")), **settings
        )
        clean = run_sweep(tasks, **settings)
        assert chaotic.retries == 1
        assert chaotic.outcomes[0].attempts == 2
        assert all(o.attempts == 1 for o in chaotic.outcomes[1:])
        assert_equivalent(chaotic, clean)

    def test_retry_exhaustion_keeps_taxonomy(self):
        tasks = _tasks()
        result = run_sweep(
            tasks, workers=1, retry=RetryPolicy(attempts=2),
            fault_plan=plan_of((0, 0, "error"), (0, 1, "error")),
            sleep=_no_sleep,
        )
        failed = result.outcomes[0]
        assert not failed.ok
        assert failed.failure == "error"
        assert failed.attempts == 2
        assert "FaultInjected" in failed.error
        assert all(o.ok for o in result.outcomes[1:])
        assert result.failure_counts() == {"error": 1}

    def test_three_failure_kinds_surface_distinct_labels(self):
        """Acceptance: >= 3 injected kinds, distinct taxonomy labels."""
        tasks = _tasks()
        plan = plan_of(
            (0, 0, "timeout"), (0, 1, "timeout"),
            (1, 0, "error"), (1, 1, "error"),
            (2, 0, "worker-kill"), (2, 1, "worker-kill"),
        )
        result = run_sweep(
            tasks, workers=1, retry=RetryPolicy(attempts=2),
            fault_plan=plan, sleep=_no_sleep,
        )
        labels = [o.failure for o in result.outcomes]
        assert labels == ["timeout", "error", "worker-died", None]
        assert result.outcomes[0].timed_out
        payload = sweep_metrics(result, grid={"purpose": "chaos"})
        validate_metrics(payload)
        recorded = [t["failure"] for t in payload["tasks"]]
        assert recorded == labels
        distinct = {label for label in recorded if label is not None}
        assert len(distinct) == 3
        assert distinct < set(FAILURE_KINDS)
        assert payload["totals"]["retries"] == 3

    def test_metrics_round_trip_with_failures(self, tmp_path):
        result = run_sweep(
            _tasks(), workers=1, retry=RetryPolicy(attempts=2),
            fault_plan=plan_of((0, 0, "timeout")), sleep=_no_sleep,
        )
        payload = sweep_metrics(result, grid={})
        path = write_metrics(payload, tmp_path / "chaos-metrics.json")
        assert json.loads(path.read_text())["totals"]["retries"] == 1

    def test_metrics_validation_rejects_bad_failure_label(self):
        payload = sweep_metrics(
            run_sweep(_tasks(), workers=1), grid={}
        )
        payload["tasks"][0]["failure"] = "gremlins"
        with pytest.raises(ValidationError):
            validate_metrics(payload)


class TestBackoff:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(attempts=4, backoff=0.5)
        assert policy.delays() == (0.5, 1.0, 2.0)
        assert policy.delays() == RetryPolicy(attempts=4, backoff=0.5).delays()

    def test_max_delay_caps_growth(self):
        policy = RetryPolicy(attempts=9, backoff=1.0)
        assert MAX_BACKOFF_S == 60.0
        assert policy.delays() == (
            1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0
        )

    def test_sweep_sleeps_exactly_the_schedule(self):
        recorded = []
        policy = RetryPolicy(attempts=3, backoff=0.25)
        run_sweep(
            _tasks(), workers=1, retry=policy,
            fault_plan=plan_of((0, 0, "error"), (0, 1, "error")),
            sleep=recorded.append,
        )
        assert recorded == [0.25, 0.5]
        assert tuple(recorded) == policy.delays()

    def test_policy_rejects_nonsense(self):
        with pytest.raises(ValidationError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=-1.0)


class TestWorkerKillRecovery:
    def test_serial_simulation_recovers_via_retry(self):
        tasks = _tasks()
        settings = dict(
            workers=1, retry=RetryPolicy(attempts=2), sleep=_no_sleep
        )
        result = run_sweep(
            tasks, fault_plan=plan_of((1, 0, "worker-kill")), **settings
        )
        assert result.retries == 1
        assert result.outcomes[1].attempts == 2
        assert_equivalent(result, run_sweep(tasks, **settings))

    def test_parallel_real_kill_respawns_pool(self):
        tasks = _tasks()
        settings = dict(
            workers=2, retry=RetryPolicy(attempts=3), sleep=_no_sleep
        )
        result = run_sweep(
            tasks, fault_plan=plan_of((1, 0, "worker-kill")), **settings
        )
        if result.mode != "parallel":
            pytest.skip("no process pool available here")
        assert result.recovered_workers >= 1
        assert all(o.ok for o in result)
        # Task isolation makes a chaos run equal to the clean one.
        assert_equivalent(result, run_sweep(tasks, **settings))
        payload = sweep_metrics(result, grid={})
        assert payload["totals"]["recovered_workers"] >= 1

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        from repro.runtime import runner as runner_mod

        # No worker can be forked (no fork, no descriptors, a sandbox).
        monkeypatch.setattr(runner_mod, "spawn_worker", lambda *_: None)
        result = run_sweep(
            _tasks(), workers=4, retry=RetryPolicy(attempts=2)
        )
        assert result.mode == "serial"
        assert all(o.ok for o in result)


class TestJournal:
    def test_journal_has_header_and_valid_records(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        run_sweep(tasks, workers=1, journal=journal)
        meta, records = read_journal(journal)
        assert meta["tasks"] == len(tasks)
        assert len(records) == len(tasks)
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA
        fingerprints = {r["fingerprint"] for r in records}
        assert fingerprints == {
            task_fingerprint(i, t) for i, t in enumerate(tasks)
        }

    def test_records_round_trip_outcomes_exactly(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        result = run_sweep(tasks, workers=1, journal=journal)
        _, records = read_journal(journal)
        by_fp = completed_by_fingerprint(records)
        for index, task in enumerate(tasks):
            stored = record_to_outcome(by_fp[task_fingerprint(index, task)])
            original = result.outcomes[index]
            assert stored.result.cost == original.result.cost
            assert stored.result.sequence == original.result.sequence
            assert stored.explored == original.explored
            assert stored.cache == original.cache
            assert stored.attempts == original.attempts

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        tasks = _tasks()
        run_sweep(tasks, workers=1, journal=journal)
        with journal.open("a") as handle:
            handle.write('{"record": "task", "finge')  # SIGKILL mid-write
        _, records = read_journal(journal)
        assert len(records) == len(tasks)

    def test_corrupt_middle_line_raises(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(_tasks(), workers=1, journal=journal)
        lines = journal.read_text().splitlines()
        lines[2] = "not json at all"
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            read_journal(journal)

    def test_wrong_schema_rejected(self, tmp_path):
        journal = tmp_path / "bogus.jsonl"
        journal.write_text('{"schema": "repro.sweep/1", "meta": {}}\n')
        with pytest.raises(ValidationError):
            read_journal(journal)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_journal_free_sweep_never_fingerprints(
        self, monkeypatch, workers
    ):
        """Fingerprints cost a hash per task; only a journal pays it."""

        def forbidden(*_args):
            raise AssertionError("task_fingerprint called without a journal")

        monkeypatch.setattr(journal_mod, "task_fingerprint", forbidden)
        result = run_sweep(
            _tasks(), workers=workers, retry=RetryPolicy(attempts=2),
            fault_plan=plan_of((0, 0, "error")), sleep=_no_sleep,
        )
        assert all(o.ok for o in result)

    def test_fingerprint_tracks_task_content(self):
        tasks = _tasks()
        base = task_fingerprint(0, tasks[0])
        assert task_fingerprint(1, tasks[0]) != base
        assert task_fingerprint(0, tasks[1]) != base
        assert task_fingerprint(0, tasks[0].with_kwargs(rng=3)) != base
        assert task_fingerprint(0, tasks[0]) == base


class TestResume:
    def test_crash_midway_then_resume_is_bit_identical_serial(self, tmp_path):
        """The golden test: interrupted + resumed == uninterrupted."""
        tasks = _tasks(optimizers=("dp", "bnb", "greedy-cost"), seeds=2)
        uninterrupted = _uninterrupted(tasks, tmp_path)

        journal = tmp_path / "crashed.jsonl"
        # Simulate dying after 3 of 6 tasks: journal only a prefix.
        run_sweep(tasks[:3], workers=1, journal=journal)
        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 3
        assert [o.index for o in resumed] == list(range(len(tasks)))
        assert_equivalent(resumed, uninterrupted)

    def test_resume_sweep_skips_completed_tasks(self, tmp_path):
        tasks = _tasks()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(tasks[:2], workers=1, journal=journal)
        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 2
        assert_equivalent(resumed, _uninterrupted(tasks, tmp_path))
        # The journal now covers everything: a second resume runs nothing.
        again = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert again.resumed == len(tasks)
        assert_equivalent(again, resumed)

    def test_resume_parallel_matches_uninterrupted(self, tmp_path):
        tasks = _tasks(optimizers=("dp", "bnb", "greedy-cost"), seeds=2)
        journal = tmp_path / "crashed.jsonl"
        run_sweep(tasks[:3], workers=1, journal=journal)
        resumed = run_sweep(tasks, workers=2, journal=journal, resume=True)
        if resumed.mode != "parallel":
            pytest.skip("no process pool available here")
        assert resumed.resumed == 3
        assert_equivalent(resumed, _uninterrupted(tasks, tmp_path))

    def test_resume_ignores_foreign_fingerprints(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(_tasks(), workers=1, journal=journal)
        different = grid_tasks(
            ["dp", "greedy-cost"],
            [(f"c-s{seed}", random_query(5, rng=seed + 10))
             for seed in range(2)],
        )
        resumed = run_sweep(different, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 0
        assert all(o.ok for o in resumed)

    def test_resume_restores_every_result_type(self, tmp_path):
        """QO_H plans, SQO-CP plans and LogNumber costs survive the
        typed journal codec: equal value, type and repr."""
        qoh = QOHInstance(
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            [64, 32, 128, 16],
            {(0, 1): Fraction(1, 8), (1, 2): Fraction(1, 16),
             (2, 3): Fraction(1, 4)},
            memory=64,
            model=HashJoinCostModel(psi=Fraction(1, 3), g_scale=2),
        )
        sqocp = SQOCPInstance(
            num_satellites=2, sort_passes=4, page_size=8,
            tuples=[10_000, 3, 5_000], pages=[10_000, 1, 5_000],
            sort_costs=[40_000, 4, 20_000],
            selectivities=[Fraction(1, 10_000), Fraction(1, 5_000)],
            satellite_access=[1, 1], center_access=[1, 1],
        )
        tasks = [
            SweepTask(optimizer="qoh-greedy", instance=qoh, label="qoh"),
            SweepTask(optimizer="sqocp-dp", instance=sqocp, label="star"),
            SweepTask(
                optimizer="greedy-cost", label="log",
                instance=random_query(5, rng=0).to_log_domain(),
            ),
        ]
        journal = tmp_path / "sweep.jsonl"
        original = run_sweep(tasks, workers=1, journal=journal)
        qoh_result, star_result, log_result = (o.result for o in original)
        assert isinstance(qoh_result.plan, PipelineDecomposition)
        assert isinstance(star_result.plan, StarPlan)
        assert isinstance(log_result.cost, LogNumber)
        assert "result_b64" not in journal.read_text()

        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert resumed.resumed == len(tasks)
        for got, want in zip(resumed, original):
            assert got.result == want.result
            assert type(got.result) is type(want.result)
            assert repr(got.result) == repr(want.result)
            assert type(got.result.cost) is type(want.result.cost)
            assert type(got.result.plan) is type(want.result.plan)
            assert (got.explored, got.cache) == (want.explored, want.cache)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_plan_result_is_refused_at_append(
        self, tmp_path, monkeypatch, workers
    ):
        from repro.runtime import runner as runner_mod

        spawned = []
        spawn_worker = runner_mod.spawn_worker

        def recording(*args):
            worker = spawn_worker(*args)
            spawned.append(worker)
            return worker

        monkeypatch.setattr(runner_mod, "spawn_worker", recording)
        tasks = [
            SweepTask(
                optimizer=_not_a_plan, instance=random_query(4, rng=seed),
                label=f"int{seed}",
            )
            for seed in range(4)
        ]
        with pytest.raises(ValidationError, match="PlanResult"):
            run_sweep(tasks, workers=workers, journal=tmp_path / "s.jsonl")
        if workers > 1:
            # The error leaves the sweep; its workers must not outlive it.
            assert len(spawned) == workers
            assert all(
                worker is not None and worker.process.exitcode is not None
                for worker in spawned
            )

    def test_resumed_metrics_validate(self, tmp_path):
        tasks = _tasks()
        journal = tmp_path / "sweep.jsonl"
        run_sweep(tasks[:2], workers=1, journal=journal)
        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        payload = sweep_metrics(resumed, grid={"resumed": True})
        validate_metrics(payload)
        assert payload["totals"]["resumed_tasks"] == 2


def _not_a_plan(_instance, **_kwargs):
    return 42


def _interruptible(instance, flag="", **_kwargs):
    if flag and os.path.exists(flag):
        raise KeyboardInterrupt()
    return OPTIMIZERS["greedy-cost"](instance)


class TestCancellation:
    def test_interrupt_cancels_rest_and_resume_reruns_them(self, tmp_path):
        flag = tmp_path / "explode"
        flag.write_text("boom")
        instance = random_query(5, rng=0)
        tasks = [
            SweepTask(optimizer="dp", instance=instance, label="before"),
            SweepTask(
                optimizer=_interruptible, instance=instance, label="ki",
                kwargs=(("flag", str(flag)),),
            ),
            SweepTask(optimizer="dp", instance=instance, label="after"),
        ]
        journal = tmp_path / "sweep.jsonl"
        interrupted = run_sweep(tasks, workers=1, journal=journal)
        assert interrupted.outcomes[0].ok
        assert interrupted.outcomes[1].failure == "cancelled"
        assert interrupted.outcomes[2].failure == "cancelled"
        assert interrupted.outcomes[2].attempts == 0
        assert not interrupted.outcomes[1].ok
        # Only the completed task was journaled.
        _, records = read_journal(journal)
        assert len(records) == 1
        # Clear the tripwire; resume re-runs exactly the cancelled tasks.
        flag.unlink()
        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 1
        assert all(o.ok for o in resumed)
        assert_equivalent(resumed, _uninterrupted(tasks, tmp_path))

    def test_cancelled_outcomes_validate_in_metrics(self, tmp_path):
        flag = tmp_path / "explode"
        flag.write_text("boom")
        instance = random_query(5, rng=0)
        tasks = [
            SweepTask(
                optimizer=_interruptible, instance=instance, label="ki",
                kwargs=(("flag", str(flag)),),
            ),
            SweepTask(optimizer="dp", instance=instance, label="after"),
        ]
        result = run_sweep(tasks, workers=1)
        payload = sweep_metrics(result, grid={})
        validate_metrics(payload)
        assert [t["failure"] for t in payload["tasks"]] == [
            "cancelled", "cancelled",
        ]


def _sigkill_self(instance, **_kwargs):  # pragma: no cover - dies
    os.kill(os.getpid(), signal.SIGKILL)


def _crash_main(journal_path):  # pragma: no cover - run in a subprocess
    """Entry point for the real-SIGKILL test: die on the third task."""
    tasks = _tasks(optimizers=("dp", "bnb", "greedy-cost"), seeds=2)
    tasks[2] = SweepTask(
        optimizer=_sigkill_self,
        instance=tasks[2].instance,
        label=tasks[2].label,
    )
    run_sweep(tasks, workers=1, journal=journal_path)


class TestRealSigkill:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        """Acceptance: SIGKILL mid-sweep, resume, bit-identical result."""
        journal = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        process = subprocess.run(
            [
                sys.executable, "-c",
                "from tests.test_runtime_chaos import _crash_main; "
                f"_crash_main({str(journal)!r})",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, timeout=120,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr.decode()
        _, records = read_journal(journal)
        assert len(records) == 2  # exactly the tasks that finished

        tasks = _tasks(optimizers=("dp", "bnb", "greedy-cost"), seeds=2)
        resumed = run_sweep(tasks, workers=1, journal=journal, resume=True)
        assert resumed.resumed == 2
        assert_equivalent(resumed, _uninterrupted(tasks, tmp_path))


def _children(pid):
    """The pids of the child processes of ``pid``."""
    with open(f"/proc/{pid}/task/{pid}/children") as children:
        return [int(child) for child in children.read().split()]


class TestKilledSweepPool:
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task"),
        reason="reads child pids from /proc",
    )
    def test_pool_workers_exit_when_the_sweep_is_killed(self, tmp_path):
        """A SIGKILLed sweep never shuts its pool down: its workers
        must notice on their own (they poll every 0.5 s)."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", "--family", "gap",
                "--n", "12,13,14", "--algorithms", "dp,exhaustive",
                "--workers", "2",
            ],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2:
                assert process.poll() is None, "the sweep ended early"
                assert time.monotonic() < deadline, "no pool workers"
                time.sleep(0.05)
                workers = _children(process.pid)
            process.kill()
            process.wait()
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline:
                if all(exited(pid) for pid in workers):
                    break
                time.sleep(0.05)
            assert [pid for pid in workers if not exited(pid)] == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            for pid in workers:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)


class TestTraceIntegration:
    def test_resilience_counters_land_on_the_root_span(self):
        result = run_sweep(
            _tasks(), workers=1, trace=True,
            retry=RetryPolicy(attempts=2),
            fault_plan=plan_of((0, 0, "error")), sleep=_no_sleep,
        )
        root = result.trace_records()[0]
        assert root["counters"]["retries"] == 1

    def test_trace_validates_end_to_end(self, tmp_path):
        from repro.observability import load_trace, write_trace

        result = run_sweep(
            _tasks(), workers=1, trace=True,
            retry=RetryPolicy(attempts=2),
            fault_plan=plan_of((0, 0, "timeout")), sleep=_no_sleep,
        )
        path = write_trace(
            result.trace_records(), tmp_path / "chaos.jsonl", meta={}
        )
        trace = load_trace(path)
        assert trace.records[0]["counters"]["retries"] == 1
