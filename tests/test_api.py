"""Tests for the stable public facade (:mod:`repro.api`)."""

import pytest

from repro import api
from repro.core.results import PlanResult
from repro.joinopt.instance import QONInstance
from repro.runtime.runner import SweepTask, run_sweep
from repro.sat.gapfamilies import yes_instance
from repro.utils.validation import ValidationError


class TestGenerate:
    def test_families_cover_the_workload_zoo(self):
        assert set(api.FAMILIES) == {
            "chain", "star", "cycle", "clique", "random",
        }

    @pytest.mark.parametrize("family", sorted(api.FAMILIES))
    def test_generate_returns_qon_instance(self, family):
        instance = api.generate(family, 5, seed=1)
        assert isinstance(instance, QONInstance)
        assert instance.num_relations == 5

    def test_generate_is_seed_deterministic(self):
        a = api.generate("random", 6, seed=3)
        b = api.generate("random", 6, seed=3)
        c = api.generate("random", 6, seed=4)
        assert a.sizes == b.sizes
        assert a.sizes != c.sizes

    def test_unknown_family_raises(self):
        with pytest.raises(ValidationError, match="unknown family"):
            api.generate("hypercube", 5)


class TestReduce:
    def test_qon_chain_end_to_end(self):
        formula = yes_instance(6, 16, rng=0)
        chain = api.reduce("qon", formula)
        assert isinstance(chain.instance, QONInstance)

    def test_registry_names_are_stable(self):
        names = api.reduction_names()
        for expected in ("qon", "qoh", "sat-to-clique", "clique-to-qon",
                         "partition-to-sppcs"):
            assert expected in names

    def test_unknown_chain_raises(self):
        with pytest.raises(ValidationError, match="unknown reduction"):
            api.reduce("nope", None)


class TestOptimize:
    def test_returns_plan_result(self):
        instance = api.generate("random", 5, seed=0)
        result = api.optimize(instance, algorithm="dp")
        assert isinstance(result, PlanResult)
        assert result.is_exact
        assert result.explored > 0
        assert sorted(result.sequence) == list(range(5))

    def test_optimizer_names_span_all_substrates(self):
        names = api.optimizer_names()
        assert "dp" in names
        assert any(name.startswith("qoh-") for name in names)
        assert any(name.startswith("sqocp-") for name in names)

    def test_unknown_algorithm_raises(self):
        instance = api.generate("random", 4)
        for name in ("quantum", ""):
            with pytest.raises(ValidationError, match="unknown algorithm"):
                api.optimize(instance, algorithm=name)


class TestSweep:
    def _instances(self):
        return [(f"s{seed}", api.generate("random", 5, seed=seed))
                for seed in range(2)]

    def test_mapping_grid(self):
        """The old mapping grid runs as ``SweepSpec.build(**grid)``."""
        grid = {"optimizers": ["dp", "greedy-cost"],
                "instances": self._instances()}
        result = api.sweep(api.SweepSpec.build(**grid, workers=1))
        assert len(result) == 4
        assert all(o.ok for o in result)

    def test_task_sequence_grid_matches_mapping(self):
        instances = self._instances()
        tasks = [
            SweepTask(optimizer="dp", instance=instance, label=label)
            for label, instance in instances
        ]
        from_tasks = run_sweep(tasks, workers=1)
        from_map = api.sweep(api.SweepSpec.build(
            optimizers=["dp"], instances=instances, workers=1,
        ))
        assert [o.result.cost for o in from_tasks] == [
            o.result.cost for o in from_map
        ]

    def test_kwargs_for_hook(self):
        instances = self._instances()
        spec = api.SweepSpec.build(
            ["sampling"], instances,
            params={("sampling", label): {"rng": 0, "samples": 10}
                    for label, _instance in instances},
            workers=1,
        )
        assert spec.kwargs_for("sampling", "s0") == {"rng": 0, "samples": 10}
        result = api.sweep(spec)
        assert all(o.ok for o in result)
        assert all(o.explored == 10 for o in result)

    def test_trace_flag_produces_mergeable_records(self):
        from repro.observability import counter_totals, validate_trace

        result = api.sweep(api.SweepSpec.build(
            ["dp"], self._instances(), workers=1, trace=True,
        ))
        records = result.trace_records()
        validate_trace(records)
        totals = counter_totals(records)
        assert totals["cost_evaluations"] == result.evaluations

    def test_only_a_spec_is_accepted(self):
        instances = self._instances()
        for grid in (
            {"optimizers": ["dp"]},
            {"optimizers": ["dp"], "instances": instances},
            [SweepTask(optimizer="dp", instance=instances[0][1])],
        ):
            with pytest.raises(ValidationError, match="SweepSpec"):
                api.sweep(grid)
