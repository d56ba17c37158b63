"""Tests for the workload generators and shared utilities."""

import random
from fractions import Fraction

import pytest

from repro.graphs.clique import max_clique_size
from repro.starqo.partition import has_partition
from repro.utils.rng import make_rng, random_permutation, sample_distinct_pairs, spawn
from repro.utils.validation import ValidationError, check_index
from repro.workloads.gaps import (
    partition_suite,
    qoh_gap_pair,
    qon_gap_pair,
    turan_graph,
)
from repro.workloads.queries import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)


class TestRngHelpers:
    def test_make_rng_default_deterministic(self):
        assert make_rng().random() == make_rng().random()

    def test_make_rng_passthrough(self):
        rng = random.Random(5)
        assert make_rng(rng) is rng

    def test_make_rng_seed(self):
        assert make_rng(7).random() == random.Random(7).random()

    def test_spawn_streams_differ(self):
        rng = random.Random(1)
        a = spawn(rng, "alpha")
        rng = random.Random(1)
        b = spawn(rng, "beta")
        assert a.random() != b.random()

    def test_sample_distinct_pairs(self):
        pairs = sample_distinct_pairs(random.Random(0), 6, 10)
        assert len(set(pairs)) == 10
        assert all(u < v for u, v in pairs)

    def test_sample_too_many(self):
        with pytest.raises(ValueError):
            sample_distinct_pairs(random.Random(0), 3, 4)

    def test_random_permutation(self):
        perm = random_permutation(random.Random(0), 8)
        assert sorted(perm) == list(range(8))


class TestValidationHelpers:
    def test_check_index(self):
        check_index(0, 3, "x")
        with pytest.raises(ValidationError):
            check_index(3, 3, "x")


class TestQueryWorkloads:
    def test_chain_shape(self):
        instance = chain_query(6, rng=0)
        assert instance.graph.num_edges == 5
        assert instance.graph.is_connected()

    def test_star_shape(self):
        instance = star_query(6, rng=1)
        assert instance.graph.degree(0) == 5

    def test_cycle_shape(self):
        instance = cycle_query(6, rng=2)
        assert all(instance.graph.degree(v) == 2 for v in range(6))

    def test_clique_shape(self):
        instance = clique_query(5, rng=3)
        assert instance.graph.num_edges == 10

    def test_random_connected(self):
        for seed in range(5):
            instance = random_query(8, edge_probability=0.2, rng=seed)
            assert instance.graph.is_connected()

    def test_deterministic(self):
        a = random_query(6, rng=9)
        b = random_query(6, rng=9)
        assert a.graph == b.graph
        assert a.sizes == b.sizes

    def test_statistics_ranges(self):
        instance = random_query(6, rng=10, size_min=10, size_max=100)
        assert all(1 <= t <= 200 for t in instance.sizes)
        for i, j in instance.graph.edges:
            assert 0 < instance.selectivity(i, j) <= Fraction(1, 2)


class TestGapWorkloads:
    def test_turan_clique_number(self):
        for parts in (2, 3, 5):
            assert max_clique_size(turan_graph(9, parts)) == parts

    def test_qon_pair_promises(self):
        pair = qon_gap_pair(8, 6, 2, alpha=4)
        assert max_clique_size(pair.yes_reduction.graph) >= 6
        assert max_clique_size(pair.no_reduction.graph) <= pair.no_reduction.k_no

    def test_qon_pair_matched_parameters(self):
        pair = qon_gap_pair(8, 6, 2, alpha=4)
        assert pair.yes_reduction.relation_size == pair.no_reduction.relation_size
        assert pair.yes_reduction.alpha == pair.no_reduction.alpha

    def test_qoh_pair_shapes(self):
        pair = qoh_gap_pair(6, Fraction(1, 2), alpha=4**6)
        assert pair.yes_reduction.instance.num_relations == 7
        assert max_clique_size(pair.no_reduction.source_graph) < 4

    def test_partition_suite_labels(self):
        suite = partition_suite(6, 4, rng=0)
        for instance, label in suite:
            assert has_partition(instance) == label

    def test_partition_suite_has_both_labels(self):
        suite = partition_suite(8, 6, rng=1)
        labels = {label for _, label in suite}
        assert True in labels
