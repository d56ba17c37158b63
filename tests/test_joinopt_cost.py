"""Tests for the QO_N instance model and cost semantics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.joinopt.cost import (
    back_edge_counts,
    has_cartesian_product,
    intermediate_sizes,
    join_costs,
    prefix_edge_counts,
    total_cost,
)
from repro.joinopt.instance import QONInstance
from repro.utils.lognum import LogNumber, log2_of
from repro.utils.validation import ValidationError


@pytest.fixture
def chain_instance():
    """R0 -(1/10)- R1 -(1/20)- R2 -(1/2)- R3; sizes 100, 50, 200, 10."""
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    return QONInstance(
        graph,
        [100, 50, 200, 10],
        {(0, 1): Fraction(1, 10), (1, 2): Fraction(1, 20), (2, 3): Fraction(1, 2)},
    )


class TestInstance:
    def test_missing_selectivity_rejected(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            QONInstance(graph, [10, 10], {})

    def test_selectivity_on_non_edge_rejected(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(ValidationError):
            QONInstance(graph, [1, 1, 1], {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})

    def test_non_edge_selectivity_is_one(self, chain_instance):
        assert chain_instance.selectivity(0, 3) == 1

    def test_default_access_cost_is_lower_bound(self, chain_instance):
        # w_01 (probe into R1 given a tuple of R0) = t1 * s01 = 5.
        assert chain_instance.access_cost(0, 1) == 5
        # probe into R0 given a tuple of R1 = t0 * s01 = 10.
        assert chain_instance.access_cost(1, 0) == 10

    def test_non_edge_access_cost_is_full_scan(self, chain_instance):
        assert chain_instance.access_cost(0, 3) == 10
        assert chain_instance.access_cost(3, 0) == 100

    def test_access_cost_bounds_enforced(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            QONInstance(
                graph,
                [10, 10],
                {(0, 1): Fraction(1, 2)},
                access_costs={(0, 1): 11},  # above t_1
            )
        with pytest.raises(ValidationError):
            QONInstance(
                graph,
                [10, 10],
                {(0, 1): Fraction(1, 2)},
                access_costs={(0, 1): 4},  # below t_1 * s = 5
            )

    def test_selectivity_out_of_range(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(ValidationError):
            QONInstance(graph, [10, 10], {(0, 1): Fraction(2)})

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            QONInstance(Graph(3, []), [1, 2], {})


class TestSizes:
    def test_intermediate_sizes_chain(self, chain_instance):
        sizes = intermediate_sizes(chain_instance, [0, 1, 2, 3])
        # N1 = 100*50/10 = 500 ; N2 = 500*200/20 = 5000 ; N3 = 5000*10/2.
        assert sizes == [500, 5000, 25000]

    def test_size_is_order_independent_total(self, chain_instance):
        a = intermediate_sizes(chain_instance, [0, 1, 2, 3])[-1]
        b = intermediate_sizes(chain_instance, [3, 2, 1, 0])[-1]
        assert a == b

    def test_cartesian_product_size(self, chain_instance):
        sizes = intermediate_sizes(chain_instance, [0, 3, 1, 2])
        # R0 x R3 has no predicate: N1 = 100 * 10 = 1000.
        assert sizes[0] == 1000

    def test_bad_sequence_rejected(self, chain_instance):
        with pytest.raises(ValidationError):
            intermediate_sizes(chain_instance, [0, 1, 2])
        with pytest.raises(ValidationError):
            intermediate_sizes(chain_instance, [0, 1, 2, 2])


class TestCosts:
    def test_join_costs_chain(self, chain_instance):
        costs = join_costs(chain_instance, [0, 1, 2, 3])
        # H1 = t0 * w[0][1] = 100 * 5 = 500
        # H2 = N1 * w[1][2] = 500 * 10 = 5000
        # H3 = N2 * w[2][3] = 5000 * 5 = 25000
        assert costs == [500, 5000, 25000]

    def test_total_cost(self, chain_instance):
        assert total_cost(chain_instance, [0, 1, 2, 3]) == 30500

    def test_min_over_probe_choices(self, chain_instance):
        # Sequence 1, 0, 2: probing R2 can use predicate with R1
        # (w=10) even though R0 was joined later.
        costs = join_costs(chain_instance, [1, 0, 2, 3])
        assert costs[1] == 500 * 10  # N1 = 50*100/10 = 500

    def test_cartesian_pays_full_scan(self, chain_instance):
        costs = join_costs(chain_instance, [0, 3, 1, 2])
        # Second join: R3 has no predicate to R0 -> probe = t3 = 10.
        assert costs[0] == 100 * 10

    def test_back_edges(self, chain_instance):
        assert back_edge_counts(chain_instance, [0, 1, 2, 3]) == [0, 1, 1, 1]
        assert back_edge_counts(chain_instance, [0, 2, 1, 3]) == [0, 0, 2, 1]

    def test_prefix_edges(self, chain_instance):
        assert prefix_edge_counts(chain_instance, [0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_has_cartesian_product(self, chain_instance):
        assert not has_cartesian_product(chain_instance, [0, 1, 2, 3])
        assert has_cartesian_product(chain_instance, [0, 2, 1, 3])

    def test_two_relations(self):
        graph = Graph(2, [(0, 1)])
        instance = QONInstance(graph, [4, 8], {(0, 1): Fraction(1, 2)})
        assert total_cost(instance, [0, 1]) == 4 * 4
        assert total_cost(instance, [1, 0]) == 8 * 2


class TestLogDomain:
    def test_log_costs_match_exact(self, chain_instance):
        log_instance = chain_instance.to_log_domain()
        exact = total_cost(chain_instance, [0, 1, 2, 3])
        logged = total_cost(log_instance, [0, 1, 2, 3])
        assert isinstance(logged, LogNumber)
        assert logged.log2 == pytest.approx(log2_of(exact), rel=1e-9)

    def test_log_ordering_matches_exact(self, chain_instance):
        log_instance = chain_instance.to_log_domain()
        import itertools

        sequences = list(itertools.permutations(range(4)))
        exact_best = min(sequences, key=lambda z: total_cost(chain_instance, z))
        log_best = min(
            sequences, key=lambda z: total_cost(log_instance, z).log2
        )
        assert exact_best == log_best


@st.composite
def random_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, min_size=0)
    ) if all_pairs else []
    graph = Graph(n, edges)
    sizes = [draw(st.integers(min_value=1, max_value=1000)) for _ in range(n)]
    selectivities = {
        edge: Fraction(1, draw(st.integers(min_value=1, max_value=100)))
        for edge in graph.edges
    }
    return QONInstance(graph, sizes, selectivities)


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.randoms(use_true_random=False))
def test_property_costs_positive(instance, rng):
    order = list(range(instance.num_relations))
    rng.shuffle(order)
    costs = join_costs(instance, order)
    assert all(c > 0 for c in costs)
    assert len(costs) == instance.num_relations - 1
    assert sum(costs) == total_cost(instance, order)


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.randoms(use_true_random=False))
def test_property_final_size_order_invariant(instance, rng):
    base = list(range(instance.num_relations))
    shuffled = base[:]
    rng.shuffle(shuffled)
    a = intermediate_sizes(instance, base)[-1]
    b = intermediate_sizes(instance, shuffled)[-1]
    assert a == b


@settings(max_examples=40, deadline=None)
@given(random_instances(), st.randoms(use_true_random=False))
def test_property_prefix_edges_total(instance, rng):
    order = list(range(instance.num_relations))
    rng.shuffle(order)
    totals = prefix_edge_counts(instance, order)
    assert totals[-1] == instance.graph.num_edges
