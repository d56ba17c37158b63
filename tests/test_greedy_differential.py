"""Differential suite: the kernel-backed greedy optimizers are
bit-identical to the accessor-based rollouts they replaced.

``_reference_greedy_from`` is that rollout loop, copied as the oracle:
it reads every probe, selectivity and size through the instance
accessors, tests connectivity with ``graph.has_edge`` and carries the
prefix size ``N(X)`` in every key; ``_reference_greedy`` prices each
finished rollout with :func:`~repro.joinopt.cost.total_cost`.
:func:`~repro.joinopt.optimizers.greedy.greedy_min_cost` and
:func:`~repro.joinopt.optimizers.greedy.greedy_min_size` must agree
with it in everything observable: the cost's value, type and ``repr``,
the sequence, ``explored``, the cost cache's hits, misses and entries
(kind, key, value type and ``repr``, in insertion order) and the
trace counters, with no cache, a fresh cache and a cache shared by
several runs.

The draws cover every kernel kind the optimizers route: the generated
query families and the Theorem 9 pairs (plain kernels, ranked by view
numbers, on the integer and the demoted view), ``Fraction``-typed,
non-integral and tie-typed instances (``mixed_ties`` kernels keep the
reference arithmetic), ``LogNumber`` instances and counting proxies
(reference arithmetic, whose operation counts must match too), and
``validate=False`` instances with non-positive statistics.
"""

from fractions import Fraction
from typing import List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import PlanResult
from repro.graphs.graph import Graph
from repro.joinopt.cost import total_cost
from repro.joinopt.instance import QONInstance
from repro.joinopt.optimizers import (
    branch_and_bound,
    greedy_min_cost,
    greedy_min_size,
)
from repro.joinopt.optimizers.greedy import (
    _ProbeRollout,
    _ReferenceRollout,
    _SizeRollout,
    _rollout_for,
    _starting_relations,
)
from repro.observability.tracer import Tracer, counter_totals, use_tracer
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.perf.kernels import DemotedView, IntegerView, compile_qon
from repro.runtime.costcache import CostCache, use_cache
from repro.workloads import qon_gap_pair
from repro.workloads.queries import random_query
from tests.test_dp_differential import (
    _entries,
    disconnected_instances,
    family_instances,
    fraction_typed_instances,
    non_integral_instances,
    tie_typed_instances,
)
from tests.test_perf_differential import tie_typed_cases


def _reference_greedy_from(
    instance: QONInstance,
    first: int,
    prefer_size: bool,
    allow_cartesian: bool,
) -> Tuple[Optional[Tuple[int, ...]], int]:
    """One greedy rollout starting from ``first``.

    Returns ``(sequence, examined)`` where ``examined`` counts the
    candidate partial plans evaluated; the sequence is None if stuck.

    Incremental state per remaining candidate c:
      * probe[c]   = min over joined k of w[k][c];
      * selprod[c] = product over joined k of s(k, c);
      * connected[c] = candidate has an edge into the prefix.
    """
    n = instance.num_relations
    graph = instance.graph
    sequence = [first]
    examined = 0
    remaining = [v for v in range(n) if v != first]
    probe = {}
    selprod = {}
    connected = {}
    for candidate in remaining:
        probe[candidate] = instance.access_cost(first, candidate)
        selprod[candidate] = instance.selectivity(first, candidate)
        connected[candidate] = graph.has_edge(first, candidate)

    prefix_size = instance.size(first)
    while remaining:
        best_candidate = None
        best_key = None
        best_size = None
        for candidate in remaining:
            if not allow_cartesian and not connected[candidate]:
                # If no connected candidate exists at all this rollout
                # fails; the caller then retries with products allowed.
                continue
            examined += 1
            new_size = prefix_size * instance.size(candidate)
            selectivity = selprod[candidate]
            if selectivity != 1:
                new_size = new_size * selectivity
            key = new_size if prefer_size else prefix_size * probe[candidate]
            if best_key is None or key < best_key:
                best_key = key
                best_candidate = candidate
                best_size = new_size
        if best_candidate is None:
            return None, examined
        sequence.append(best_candidate)
        remaining.remove(best_candidate)
        prefix_size = best_size
        for candidate in remaining:
            cost = instance.access_cost(best_candidate, candidate)
            if cost < probe[candidate]:
                probe[candidate] = cost
            selectivity = instance.selectivity(best_candidate, candidate)
            if selectivity != 1:
                selprod[candidate] = selprod[candidate] * selectivity
            if not connected[candidate] and graph.has_edge(
                best_candidate, candidate
            ):
                connected[candidate] = True
    return tuple(sequence), examined


def _reference_greedy(
    instance: QONInstance,
    prefer_size: bool,
    allow_cartesian: bool,
    name: str,
    max_full_starts: int,
) -> PlanResult:
    """The accessor-based driver (the oracle; see module docs)."""
    n = instance.num_relations
    assert n >= 1
    if n == 1:
        return PlanResult(cost=0, sequence=(0,), optimizer=name, explored=1)
    best_cost = None
    best_sequence: Optional[Tuple[int, ...]] = None
    explored = 0
    for first in _starting_relations(instance, max_full_starts):
        sequence, examined = _reference_greedy_from(
            instance, first, prefer_size, allow_cartesian
        )
        explored += examined
        if sequence is None:
            continue
        explored += 1
        cost = total_cost(instance, sequence)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_sequence = sequence
    if best_sequence is None:
        return _reference_greedy(
            instance, prefer_size, True, name, max_full_starts
        )
    return PlanResult(
        cost=best_cost,
        sequence=best_sequence,
        optimizer=name,
        explored=explored,
    )


def reference_min_cost(instance, allow_cartesian=False, max_full_starts=24):
    return _reference_greedy(
        instance, False, allow_cartesian, "greedy-min-cost", max_full_starts
    )


def reference_min_size(instance, allow_cartesian=False, max_full_starts=24):
    return _reference_greedy(
        instance, True, allow_cartesian, "greedy-min-size", max_full_starts
    )


#: (optimizer, oracle) per greedy variant.
VARIANTS = {
    "cost": (greedy_min_cost, reference_min_cost),
    "size": (greedy_min_size, reference_min_size),
}

#: The trace counters cost pricing reports; ``plans_explored`` is left
#: out because only the optimizers, not the oracle, open a span.
PRICING_COUNTERS = ("cache_hits", "cost_evaluations",
                    "cost_evaluations_uncached")


def _observed(result: PlanResult) -> tuple:
    return (
        result.cost, type(result.cost), repr(result.cost),
        result.sequence, result.explored, result,
    )


def _traced(optimizer, instance, **kwargs):
    """``optimizer(instance)`` under a tracer of its own: the result,
    the pricing counters and the names of the spans opened."""
    tracer = Tracer()
    with use_tracer(tracer):
        result = optimizer(instance, **kwargs)
    records = tracer.finish()
    totals = counter_totals(records)
    counters = {key: totals.get(key, 0) for key in PRICING_COUNTERS}
    return result, counters, [record["name"] for record in records[1:]]


def _runs(side, variant, instance, mode, **kwargs):
    """Everything observable of one greedy variant in cache ``mode``,
    run by the optimizers (``side`` 0) or the oracle (``side`` 1): one
    step for ``none`` and ``fresh``; for ``shared``, three runs on one
    cache (the other variant, this one, this one again), so the runs
    read entries stored before them."""
    cache = None if mode == "none" else CostCache()
    optimizer = VARIANTS[variant][side]
    if mode == "shared":
        other = VARIANTS["size" if variant == "cost" else "cost"][side]
        sequence = (other, optimizer, optimizer)
    else:
        sequence = (optimizer,)
    steps = []
    with use_cache(cache):
        for step in sequence:
            result, counters, _spans = _traced(step, instance, **kwargs)
            steps.append((
                _observed(result), counters,
                None if cache is None else cache.stats(), _entries(cache),
            ))
    return steps


def _assert_identical(instance, allow_cartesian=False, variants=VARIANTS):
    for variant in variants:
        for mode in ("none", "fresh", "shared"):
            got, want = (
                _runs(side, variant, instance, mode,
                      allow_cartesian=allow_cartesian)
                for side in (0, 1)
            )
            assert got == want, (variant, mode)


class TestGreedyMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(family_instances(max_n=10), st.booleans())
    def test_query_families(self, instance, allow_cartesian):
        _assert_identical(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=20, deadline=None)
    @given(family_instances(), st.booleans())
    def test_log_domain(self, instance, allow_cartesian):
        _assert_identical(
            instance.to_log_domain(), allow_cartesian=allow_cartesian
        )

    @settings(max_examples=60, deadline=None)
    @given(tie_typed_instances(), st.booleans())
    def test_mixed_type_ties(self, instance, allow_cartesian):
        _assert_identical(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=30, deadline=None)
    @given(tie_typed_cases(), st.booleans())
    def test_evaluator_tie_cases(self, case, allow_cartesian):
        _assert_identical(case[0], allow_cartesian=allow_cartesian)

    @settings(max_examples=40, deadline=None)
    @given(fraction_typed_instances(), st.booleans())
    def test_fraction_typed_integral_values(self, instance, allow_cartesian):
        _assert_identical(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=40, deadline=None)
    @given(non_integral_instances(), st.booleans())
    def test_non_integral_statistics(self, instance, allow_cartesian):
        _assert_identical(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=20, deadline=None)
    @given(disconnected_instances())
    def test_disconnected_fallback(self, instance):
        assert not instance.graph.is_connected()
        _assert_identical(instance, allow_cartesian=False)

    @settings(max_examples=15, deadline=None)
    @given(family_instances(max_n=8), st.booleans())
    def test_counting_proxies_count_the_same_operations(
        self, instance, allow_cartesian
    ):
        """Counting proxies keep the reference arithmetic: the same
        results and the same multiplications and additions."""
        for variant in VARIANTS:
            for mode in ("none", "fresh", "shared"):
                counts = []
                runs = []
                for side in (0, 1):
                    counter = OpCounter()
                    proxied = counting_qon_instance(instance, counter)
                    runs.append(_runs(
                        side, variant, proxied, mode,
                        allow_cartesian=allow_cartesian,
                    ))
                    counts.append(counter.snapshot())
                assert runs[0] == runs[1], (variant, mode)
                assert counts[0] == counts[1], (variant, mode)

    @pytest.mark.parametrize("side", ["yes", "no"])
    @pytest.mark.parametrize("n", [10, 11, 12, 13])
    def test_theorem9_pairs(self, n, side):
        k_no = n // 3 + (n - 2 - n // 3) % 2
        pair = qon_gap_pair(n, n - 2, k_no, alpha=4)
        reduction = pair.yes_reduction if side == "yes" else pair.no_reduction
        _assert_identical(reduction.instance)

    @pytest.mark.parametrize("statistic", ["zero-size", "negative-size",
                                           "zero-selectivity"])
    @pytest.mark.parametrize("allow_cartesian", [True, False])
    def test_non_positive_statistics(self, statistic, allow_cartesian):
        """A plain kernel whose prefix sizes can be zero or negative,
        possible only with ``validate=False``, keeps the reference
        keys: dropping ``N(X)`` would change the winners."""
        sizes = [3, 5, 2, 7]
        selectivities = {
            (0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3),
            (2, 3): Fraction(1, 5), (0, 3): Fraction(2, 7),
        }
        if statistic == "zero-size":
            sizes[1] = 0
        elif statistic == "negative-size":
            sizes[2] = -4
        else:
            selectivities[(1, 2)] = 0
        instance = QONInstance(
            Graph(4, list(selectivities)), sizes, selectivities,
            validate=False,
        )
        rollout = _rollout_for(compile_qon(instance), False)
        assert isinstance(rollout, _ReferenceRollout)
        _assert_identical(instance, allow_cartesian=allow_cartesian)


def _probe_tie_instance():
    """A star on relation 0 whose leaves tie from the start: ``w_01 =
    w_02 = 4`` and ``t_1 s_01 = t_2 s_02 = 4``.  Joining leaf 2 first
    would give the same keys, so a rollout from relation 0 must take
    leaf 1, the first of the tied candidates."""
    return QONInstance(
        Graph(3, [(0, 1), (0, 2)]),
        [10, 8, 16],
        {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 4)},
        {(0, 1): 4, (0, 2): 4},
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("allow_cartesian", [True, False])
def test_tied_candidates_keep_the_first(variant, allow_cartesian):
    instance = _probe_tie_instance()
    # w_20 defaults to t_0 s_02 = 5/2: the kernel takes the integer view.
    assert isinstance(compile_qon(instance).dp_view(), IntegerView)
    optimizer, _oracle = VARIANTS[variant]
    result = optimizer(
        instance, allow_cartesian=allow_cartesian, max_full_starts=1
    )
    assert result.sequence == (0, 1, 2)
    _assert_identical(instance, allow_cartesian=allow_cartesian,
                      variants=(variant,))


def test_spans_are_unchanged():
    """Each optimizer opens its one span, fallback included."""
    instance = QONInstance(Graph(3, [(0, 1)]), [2, 3, 4],
                           {(0, 1): Fraction(1, 2)})
    for name, optimizer in (("optimize.greedy_min_cost", greedy_min_cost),
                            ("optimize.greedy_min_size", greedy_min_size)):
        _result, _counters, spans = _traced(optimizer, instance)
        assert spans == [name]


def test_rollout_routing():
    """Plain kernels rank by view numbers on the view ``dp_view``
    picks; ``LogNumber`` values, counting proxies and mixed-type ties
    keep the reference arithmetic."""
    query = random_query(7, rng=5)
    kernel = compile_qon(query)
    assert isinstance(_rollout_for(kernel, False), _ProbeRollout)
    assert isinstance(_rollout_for(kernel, True), _SizeRollout)
    pair = qon_gap_pair(10, 8, 4, alpha=4)
    t9 = compile_qon(pair.no_reduction.instance)
    rollout = _rollout_for(t9, True)
    assert isinstance(rollout, _SizeRollout)
    assert isinstance(rollout.view, DemotedView)
    ties = QONInstance(
        Graph(3, [(0, 1), (0, 2)]), [4, 4, 4], {(0, 1): 1, (0, 2): 1},
        {(0, 1): Fraction(4), (1, 0): 4, (0, 2): 4, (2, 0): 4},
    )
    assert compile_qon(ties).mixed_ties
    for instance in (query.to_log_domain(),
                     counting_qon_instance(query, OpCounter()), ties):
        for prefer_size in (False, True):
            rollout = _rollout_for(compile_qon(instance), prefer_size)
            assert isinstance(rollout, _ReferenceRollout)


@settings(max_examples=15, deadline=None)
@given(st.one_of(family_instances(max_n=8), fraction_typed_instances(),
                 non_integral_instances()))
def test_branch_and_bound_unchanged(instance):
    """``bnb`` seeds its incumbent with ``greedy_min_cost``: its result
    and its cache traffic are those it had with the oracle greedy."""
    outcomes: List[tuple] = []
    for seed in (greedy_min_cost, reference_min_cost):
        cache = CostCache()
        with mock.patch(
            "repro.joinopt.optimizers.branch_and_bound.greedy_min_cost",
            seed,
        ), use_cache(cache):
            result = branch_and_bound(instance)
        outcomes.append((_observed(result), cache.stats(), _entries(cache)))
    assert outcomes[0] == outcomes[1]
