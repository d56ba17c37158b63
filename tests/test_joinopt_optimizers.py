"""Tests for the QO_N optimizers: exactness, agreement, heuristic soundness."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import PlanResult
from repro.graphs.graph import Graph
from repro.joinopt.cost import has_cartesian_product, total_cost
from repro.joinopt.instance import QONInstance
from repro.joinopt.optimizers import (
    dp_optimal,
    exhaustive_optimal,
    greedy_min_cost,
    greedy_min_size,
    ikkbz,
    iterative_improvement,
    random_sampling,
    simulated_annealing,
)
from repro.utils.validation import ValidationError
from repro.workloads.queries import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)


def brute_force_cost(instance):
    return min(
        total_cost(instance, list(p))
        for p in itertools.permutations(range(instance.num_relations))
    )


class TestExhaustive:
    def test_matches_brute_force(self):
        instance = random_query(5, rng=0)
        result = exhaustive_optimal(instance)
        assert result.cost == brute_force_cost(instance)
        assert result.is_exact

    def test_sequence_cost_consistent(self):
        instance = random_query(5, rng=1)
        result = exhaustive_optimal(instance)
        assert total_cost(instance, result.sequence) == result.cost

    def test_single_relation(self):
        instance = QONInstance(Graph(1, []), [5], {})
        result = exhaustive_optimal(instance)
        assert result.cost == 0
        assert result.sequence == (0,)

    def test_relation_guard(self):
        instance = clique_query(13, rng=2)
        with pytest.raises(ValidationError):
            exhaustive_optimal(instance)

    def test_no_cartesian_restriction(self):
        instance = chain_query(5, rng=3)
        result = exhaustive_optimal(instance, allow_cartesian=False)
        assert not has_cartesian_product(instance, result.sequence)

    def test_disconnected_fallback(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        instance = QONInstance(
            graph, [10, 10, 10, 10],
            {(0, 1): Fraction(1, 2), (2, 3): Fraction(1, 2)},
        )
        result = exhaustive_optimal(instance, allow_cartesian=False)
        assert len(result.sequence) == 4


class TestDP:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_exhaustive(self, seed):
        instance = random_query(6, rng=seed)
        assert dp_optimal(instance).cost == exhaustive_optimal(instance).cost

    def test_agrees_under_no_cartesian(self):
        instance = cycle_query(6, rng=7)
        a = dp_optimal(instance, allow_cartesian=False)
        b = exhaustive_optimal(instance, allow_cartesian=False)
        assert a.cost == b.cost
        assert not has_cartesian_product(instance, a.sequence)

    def test_sequence_cost_consistent(self):
        instance = random_query(7, rng=8)
        result = dp_optimal(instance)
        assert total_cost(instance, result.sequence) == result.cost

    def test_relation_guard(self):
        instance = chain_query(19, rng=9)
        with pytest.raises(ValidationError):
            dp_optimal(instance)

    def test_single_relation(self):
        instance = QONInstance(Graph(1, []), [5], {})
        assert dp_optimal(instance).cost == 0


class TestGreedy:
    @pytest.mark.parametrize("factory", [greedy_min_cost, greedy_min_size])
    def test_returns_valid_permutation(self, factory):
        instance = random_query(8, rng=10)
        result = factory(instance)
        assert sorted(result.sequence) == list(range(8))
        assert total_cost(instance, result.sequence) == result.cost

    def test_never_beats_optimum(self):
        for seed in range(5):
            instance = random_query(6, rng=seed)
            optimal = dp_optimal(instance).cost
            assert greedy_min_cost(instance).cost >= optimal
            assert greedy_min_size(instance).cost >= optimal

    def test_avoids_cartesian_on_connected(self):
        instance = chain_query(7, rng=11)
        result = greedy_min_cost(instance)
        assert not has_cartesian_product(instance, result.sequence)

    def test_disconnected_falls_back(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        instance = QONInstance(
            graph, [10, 20, 30, 40],
            {(0, 1): Fraction(1, 2), (2, 3): Fraction(1, 4)},
        )
        result = greedy_min_cost(instance)
        assert sorted(result.sequence) == [0, 1, 2, 3]


class TestIKKBZ:
    @pytest.mark.parametrize("factory,seed", [
        (chain_query, 0), (chain_query, 1), (chain_query, 2),
        (star_query, 3), (star_query, 4), (star_query, 5),
    ])
    def test_optimal_on_trees(self, factory, seed):
        instance = factory(7, rng=seed)
        exact = dp_optimal(instance, allow_cartesian=False)
        assert ikkbz(instance).cost == exact.cost

    def test_random_trees(self):
        import random

        for seed in range(5):
            rng = random.Random(seed)
            n = 6
            # Random tree via random parent for each vertex.
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            graph = Graph(n, edges)
            sizes = [rng.randint(1, 500) for _ in range(n)]
            sel = {e: Fraction(1, rng.randint(1, 50)) for e in graph.edges}
            instance = QONInstance(graph, sizes, sel)
            exact = dp_optimal(instance, allow_cartesian=False)
            assert ikkbz(instance).cost == exact.cost

    def test_rejects_cyclic(self):
        instance = cycle_query(5, rng=6)
        with pytest.raises(ValidationError):
            ikkbz(instance)

    def test_rejects_disconnected(self):
        graph = Graph(3, [(0, 1)])
        instance = QONInstance(graph, [1, 1, 1], {(0, 1): Fraction(1, 2)})
        with pytest.raises(ValidationError):
            ikkbz(instance)

    def test_rejects_log_domain(self):
        instance = chain_query(4, rng=7).to_log_domain()
        with pytest.raises(ValidationError):
            ikkbz(instance)

    def test_no_cartesian_products(self):
        instance = chain_query(8, rng=8)
        result = ikkbz(instance)
        assert not has_cartesian_product(instance, result.sequence)


class TestRandomized:
    def test_iterative_improvement_valid(self):
        instance = random_query(7, rng=12)
        result = iterative_improvement(instance, restarts=3, rng=1)
        assert sorted(result.sequence) == list(range(7))
        assert result.cost == total_cost(instance, result.sequence)

    def test_iterative_improvement_not_below_optimal(self):
        instance = random_query(6, rng=13)
        optimal = dp_optimal(instance).cost
        assert iterative_improvement(instance, rng=2).cost >= optimal

    def test_annealing_valid(self):
        instance = random_query(6, rng=14)
        result = simulated_annealing(instance, rng=3)
        assert sorted(result.sequence) == list(range(6))
        assert result.cost == total_cost(instance, result.sequence)

    def test_sampling_improves_with_budget(self):
        instance = clique_query(8, rng=15)
        small = random_sampling(instance, samples=2, rng=4)
        large = random_sampling(instance, samples=300, rng=4)
        assert large.cost <= small.cost

    def test_deterministic_given_seed(self):
        instance = random_query(6, rng=16)
        a = simulated_annealing(instance, rng=7)
        b = simulated_annealing(instance, rng=7)
        assert a.cost == b.cost and a.sequence == b.sequence


class TestRatio:
    def test_ratio_to(self):
        instance = random_query(6, rng=17)
        optimal = dp_optimal(instance)
        heuristic = greedy_min_cost(instance)
        ratio = heuristic.ratio_to(optimal.cost)
        assert ratio >= 1.0

    def test_ratio_inf_for_huge_gap(self):
        result = PlanResult(cost=2**5000, sequence=(0,), optimizer="x")
        assert result.ratio_to(1) == float("inf")


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_dp_equals_exhaustive(seed):
    instance = random_query(5, edge_probability=0.4, rng=seed)
    assert dp_optimal(instance).cost == exhaustive_optimal(instance).cost


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_heuristics_bounded_below_by_dp(seed):
    instance = random_query(5, rng=seed)
    optimal = dp_optimal(instance).cost
    for heuristic in (greedy_min_cost, greedy_min_size):
        assert heuristic(instance).cost >= optimal
