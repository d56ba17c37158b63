"""Tests for the unified PlanResult type."""

import dataclasses
from fractions import Fraction

import pytest

from repro.core.results import PlanResult


class TestPlanResult:
    def test_defaults_and_identity(self):
        result = PlanResult(cost=10, sequence=(0, 1, 2))
        assert result.optimizer == ""
        assert result.explored == 0
        assert not result.is_exact
        assert result.plan is None
        assert result.decomposition is None

    def test_frozen(self):
        result = PlanResult(cost=10, sequence=(0, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.cost = 11

    def test_trace_excluded_from_equality(self):
        a = PlanResult(cost=10, sequence=(0, 1), trace="task-3")
        b = PlanResult(cost=10, sequence=(0, 1), trace=None)
        assert a == b

    def test_decomposition_property_mirrors_qoh_plan(self):
        class FakeDecomposition:
            pipelines = ((0, 1),)

        plan = FakeDecomposition()
        result = PlanResult(cost=10, sequence=(0, 1), plan=plan)
        assert result.decomposition is plan
        # A StarPlan-like object without pipelines is not one.
        result = PlanResult(cost=10, sequence=(0, 1), plan=object())
        assert result.decomposition is None

    def test_replace_works(self):
        result = PlanResult(cost=10, sequence=(0, 1), optimizer="dp")
        updated = dataclasses.replace(result, optimizer="dp-2")
        assert updated.optimizer == "dp-2"
        assert updated.cost == 10


class TestRatioTo:
    def test_plain_ratio(self):
        result = PlanResult(cost=12, sequence=(0,))
        assert result.ratio_to(4) == pytest.approx(3.0)
        assert result.ratio_to(12) == 1.0

    def test_fraction_costs(self):
        result = PlanResult(cost=Fraction(9, 2), sequence=(0,))
        assert result.ratio_to(Fraction(3, 2)) == pytest.approx(3.0)

    def test_huge_gap_is_inf_not_underflow(self):
        result = PlanResult(cost=2**5000, sequence=(0,))
        assert result.ratio_to(1) == float("inf")

    def test_below_optimal_raises(self):
        """The old silent-underflow path (2.0**negative -> 0.0) is gone:
        a plan "better than optimal" now fails loudly."""
        result = PlanResult(cost=3, sequence=(0,))
        with pytest.raises(ValueError, match="below the claimed optimum"):
            result.ratio_to(4)
        huge = PlanResult(cost=2**100, sequence=(0,))
        with pytest.raises(ValueError):
            huge.ratio_to(2**5000)

    def test_near_equal_huge_costs_clamp_to_one(self):
        cost = 2**4000 + 1
        result = PlanResult(cost=cost, sequence=(0,))
        assert result.ratio_to(cost) >= 1.0
