"""Differential suite: the kernel-backed subset DP is bit-identical to
the accessor-based loop it replaced.

``_reference_dp`` is that loop, copied as the oracle: it reads
every probe and selectivity through the instance accessors and tests
connectivity with ``graph.has_edge`` on every transition.
:func:`~repro.joinopt.optimizers.dynamic_programming.dp_optimal` must
agree with it in everything observable — the cost's value, type and
``repr`` (the tie rule decides between ``5`` and ``Fraction(5)``), the
sequence, ``explored`` and the cost-cache counters, in every cache mode.
The DP carries integral prefix sizes as plain ``int``s, so the cached
``qon-size`` entries are compared too: same keys in the same order,
with the value's type and ``repr``.  Kernels with ``Fraction`` sizes or
access costs run on the integer view (every value scaled by one common
denominator); ``non_integral_instances`` and the probe-typed examples
cover it.
"""

from fractions import Fraction
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import PlanResult
from repro.graphs.graph import Graph
from repro.joinopt.instance import QONInstance
from repro.joinopt.optimizers import (
    branch_and_bound,
    dp_optimal,
    exhaustive_optimal,
)
from repro.joinopt.optimizers.dynamic_programming import _next_same_popcount
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.perf.kernels import DemotedView, IntegerView, compile_qon
from repro.runtime.costcache import CostCache, active_cache, use_cache
from repro.workloads import qon_gap_pair
from repro.workloads.queries import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)


def _reference_dp(
    instance: QONInstance,
    allow_cartesian: bool = True,
    max_relations: int = 18,
) -> PlanResult:
    """The accessor-based subset DP (the oracle; see module docs)."""
    n = instance.num_relations
    assert 1 <= n <= max_relations
    if n == 1:
        return PlanResult(
            cost=0, sequence=(0,), optimizer="dp", explored=1, is_exact=True
        )

    graph = instance.graph
    full = (1 << n) - 1
    cache = active_cache()

    table = 1 << n
    best_cost: List[Optional[object]] = [None] * table
    parent: List[Tuple[int, int]] = [(0, -1)] * table
    prefix_size: List[Optional[object]] = [None] * table

    for first in range(n):
        mask = 1 << first
        best_cost[mask] = 0
        prefix_size[mask] = instance.size(first)
        parent[mask] = (0, first)

    explored = n
    for layer in range(1, n):
        mask = (1 << layer) - 1
        while mask <= full:
            if best_cost[mask] is None:
                mask = _next_same_popcount(mask)
                continue
            base_cost = best_cost[mask]
            base_size = prefix_size[mask]
            members = [k for k in range(n) if mask >> k & 1]
            for j in range(n):
                if mask >> j & 1:
                    continue
                connected = any(graph.has_edge(k, j) for k in members)
                if not allow_cartesian and not connected:
                    continue
                probe = min(instance.access_cost(k, j) for k in members)
                new_cost = base_cost + base_size * probe
                new_mask = mask | (1 << j)
                explored += 1
                current = best_cost[new_mask]
                if current is None or new_cost < current:
                    best_cost[new_mask] = new_cost
                    parent[new_mask] = (mask, j)
                    if prefix_size[new_mask] is None:
                        def extend_size(
                            base: object = base_size,
                            j: int = j,
                            members: List[int] = members,
                        ) -> object:
                            size = base * instance.size(j)
                            for k in members:
                                selectivity = instance.selectivity(k, j)
                                if selectivity != 1:
                                    size = size * selectivity
                            return size

                        if cache is not None:
                            prefix_size[new_mask] = cache.get_or_compute(
                                instance, "qon-size", new_mask, extend_size
                            )
                        else:
                            prefix_size[new_mask] = extend_size()
            mask = _next_same_popcount(mask)

    if best_cost[full] is None:
        assert allow_cartesian is False
        return _reference_dp(
            instance, allow_cartesian=True, max_relations=max_relations
        )

    sequence: List[int] = []
    mask = full
    while mask:
        mask, joined = parent[mask]
        sequence.append(joined)
    sequence.reverse()

    return PlanResult(
        cost=best_cost[full],
        sequence=tuple(sequence),
        optimizer="dp",
        explored=explored,
        is_exact=True,
    )


#: Cache modes: none, unbounded memoization, pass-through (every lookup
#: a miss, nothing stored).
CACHE_MODES = {
    "none": lambda: None,
    "unbounded": CostCache,
    "passthrough": lambda: CostCache(maxsize=0),
}


def _entries(cache):
    """Every cache entry in insertion order: kind, key, value type and
    ``repr`` (the instance token is the same on both sides)."""
    if cache is None:
        return None
    return [
        (kind, key, type(value), repr(value))
        for (_token, kind, key), value in cache._entries.items()
    ]


def _run(optimizer, instance, mode, **kwargs):
    cache = CACHE_MODES[mode]()
    with use_cache(cache):
        result = optimizer(instance, **kwargs)
    stats = None if cache is None else cache.stats()
    return result, stats, _entries(cache)


def _assert_identical_runs(instance, allow_cartesian=True):
    for mode in CACHE_MODES:
        got, got_stats, got_entries = _run(
            dp_optimal, instance, mode, allow_cartesian=allow_cartesian
        )
        want, want_stats, want_entries = _run(
            _reference_dp, instance, mode, allow_cartesian=allow_cartesian
        )
        assert got.cost == want.cost
        assert type(got.cost) is type(want.cost)
        assert repr(got.cost) == repr(want.cost)
        assert got.sequence == want.sequence
        assert got.explored == want.explored
        assert got == want
        assert got_stats == want_stats
        assert got_entries == want_entries


FAMILIES = {
    "chain": chain_query,
    "star": star_query,
    "cycle": cycle_query,
    "clique": clique_query,
    "random": random_query,
}


@st.composite
def family_instances(draw, max_n=9):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(min_value=3, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return FAMILIES[family](n, rng=seed)


@st.composite
def disconnected_instances(draw):
    """Two or more components: no edge crosses the cut at ``split``."""
    n = draw(st.integers(min_value=3, max_value=8))
    split = draw(st.integers(min_value=1, max_value=n - 1))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (j < split) == (i < split)
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    sizes = draw(st.lists(
        st.integers(min_value=1, max_value=500), min_size=n, max_size=n
    ))
    selectivities = {
        edge: Fraction(1, draw(st.integers(min_value=1, max_value=30)))
        for edge in edges
    }
    return QONInstance(Graph(n, edges), sizes, selectivities)


@st.composite
def tie_typed_instances(draw):
    """Unit selectivities, so every edge probe ``w_kj`` equals ``t_j``;
    each ordered pair's probe is drawn as ``t_j`` or ``Fraction(t_j)``,
    making every probe minimum a tie between values of different types."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    sizes = draw(st.lists(
        st.integers(min_value=1, max_value=50), min_size=n, max_size=n
    ))
    access = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            exact_int = draw(st.booleans())
            access[(a, b)] = sizes[b] if exact_int else Fraction(sizes[b])
    return QONInstance(
        Graph(n, edges), sizes, {edge: 1 for edge in edges}, access
    )


@st.composite
def fraction_typed_instances(draw):
    """Integral sizes drawn as ``t`` or ``Fraction(t)`` and selectivities
    from ``{1, Fraction(1), 1/2, 1/4}``: ``Fraction(1)`` is a unit
    selectivity the reference skips, so it must not make a prefix size
    ``Fraction``-typed.  Default access costs ``t_j * s_ij`` mix types."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    sizes = [
        draw(st.sampled_from([t, Fraction(t)]))
        for t in draw(st.lists(
            st.sampled_from([1, 2, 4, 8, 64, 1024]), min_size=n, max_size=n
        ))
    ]
    selectivities = {
        edge: draw(st.sampled_from(
            [1, Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        ))
        for edge in edges
    }
    return QONInstance(Graph(n, edges), sizes, selectivities)


@st.composite
def non_integral_instances(draw):
    """Non-integral ``Fraction`` sizes, selectivities ``a/b`` with
    ``2 <= a < b``, and access costs strictly inside ``[t_j s_ij, t_j]``
    with denominators of their own, so the integer view's two scales
    differ and few of the values it carries are integral."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    sizes = []
    for _ in range(n):
        denominator = draw(st.integers(min_value=2, max_value=9))
        whole = draw(st.integers(min_value=0, max_value=500))
        rest = draw(st.integers(min_value=1, max_value=denominator - 1))
        sizes.append(Fraction(whole * denominator + rest, denominator))
    selectivities = {}
    for edge in edges:
        b = draw(st.integers(min_value=3, max_value=30))
        selectivities[edge] = Fraction(
            draw(st.integers(min_value=2, max_value=b - 1)), b
        )
    access = {}
    for u, v in edges:
        for i, j in ((u, v), (v, u)):
            low = sizes[j] * selectivities[(u, v)]
            parts = draw(st.integers(min_value=2, max_value=7))
            share = Fraction(
                draw(st.integers(min_value=1, max_value=parts - 1)), parts
            )
            access[(i, j)] = low + (sizes[j] - low) * share
    return QONInstance(Graph(n, edges), sizes, selectivities, access)


def _probe_typed_instance(w_12):
    """Sizes ``[1, 2, 1000]`` and one edge ``(1, 2)`` with ``s_12 = 1/2``
    and ``w_21 = 3/2``.  Both optimal sequences, ``(0, 1, 2)`` and
    ``(1, 0, 2)``, have the parent mask ``{0, 1}``, which is not
    ``Fraction``-typed, so their last probe decides the cost's type."""
    return QONInstance(
        Graph(3, [(1, 2)]),
        [1, 2, 1000],
        {(1, 2): Fraction(1, 2)},
        {(1, 2): w_12, (2, 1): Fraction(3, 2)},
    )


class TestDPMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(family_instances(), st.booleans())
    def test_query_families(self, instance, allow_cartesian):
        _assert_identical_runs(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=20, deadline=None)
    @given(family_instances())
    def test_log_domain(self, instance):
        _assert_identical_runs(instance.to_log_domain())

    @settings(max_examples=30, deadline=None)
    @given(disconnected_instances())
    def test_disconnected_fallback(self, instance):
        assert not instance.graph.is_connected()
        _assert_identical_runs(instance, allow_cartesian=False)

    @settings(max_examples=200, deadline=None)
    @given(tie_typed_instances(), st.booleans())
    def test_mixed_type_ties(self, instance, allow_cartesian):
        _assert_identical_runs(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=100, deadline=None)
    @given(fraction_typed_instances(), st.booleans())
    def test_fraction_typed_integral_values(self, instance, allow_cartesian):
        _assert_identical_runs(instance, allow_cartesian=allow_cartesian)

    @settings(max_examples=100, deadline=None)
    @given(non_integral_instances(), st.booleans())
    def test_non_integral_statistics(self, instance, allow_cartesian):
        assert isinstance(compile_qon(instance).dp_view(), IntegerView)
        _assert_identical_runs(instance, allow_cartesian=allow_cartesian)

    @pytest.mark.parametrize("allow_cartesian", [True, False])
    @pytest.mark.parametrize("w_12, cost", [
        # No Fraction-typed access cost is probed on the winning
        # sequence: the cost is an int.
        (1000, 2002),
        # The last step probes w_12, a Fraction-typed 999.
        (Fraction(999), Fraction(2000, 1)),
    ])
    def test_a_probe_types_the_cost(self, w_12, cost, allow_cartesian):
        instance = _probe_typed_instance(w_12)
        assert isinstance(compile_qon(instance).dp_view(), IntegerView)
        _assert_identical_runs(instance, allow_cartesian=allow_cartesian)
        got = dp_optimal(instance, allow_cartesian=allow_cartesian).cost
        assert type(got) is type(cost) and repr(got) == repr(cost)

    @pytest.mark.parametrize("side", ["yes", "no"])
    @pytest.mark.parametrize("allow_cartesian", [True, False])
    def test_theorem9_pair(self, side, allow_cartesian):
        pair = qon_gap_pair(8, 6, 2, alpha=4)
        reduction = pair.yes_reduction if side == "yes" else pair.no_reduction
        _assert_identical_runs(
            reduction.instance, allow_cartesian=allow_cartesian
        )


@st.composite
def shared_cache_instances(draw):
    return draw(st.one_of(
        family_instances(max_n=7),
        fraction_typed_instances(),
        non_integral_instances(),
    ))


@settings(max_examples=30, deadline=None)
@given(shared_cache_instances())
def test_shared_cache_counters_match(instance):
    """``dp``, ``bnb`` and ``exhaustive`` share ``qon-size`` entries
    keyed by bitmask: same keys, same hits and misses at every step,
    and the same entries (value type and ``repr``).  With bnb first the
    DP reads (and demotes) entries it did not compute; exhaustive always
    runs last, on entries the DP stored."""
    for order in ("dp-first", "bnb-first"):
        trails = []
        for dp in (dp_optimal, _reference_dp):
            optimizers = (
                (dp, branch_and_bound) if order == "dp-first"
                else (branch_and_bound, dp)
            )
            cache = CostCache()
            trail = []
            with use_cache(cache):
                for optimizer in (*optimizers, exhaustive_optimal):
                    result = optimizer(instance)
                    trail.append(
                        (repr(result.cost), cache.stats(), _entries(cache))
                    )
            trails.append(trail)
        assert trails[0] == trails[1], order


def test_view_gate():
    """The integer view takes plain ``int``/``Fraction`` statistics with
    a ``Fraction`` size or access cost, as every generated query has.
    Theorem 9 kernels (every size and access cost an ``int``, at the
    parameters the benchmark uses), ``LogNumber`` values and counting
    proxies keep the demoted tables."""
    for family in FAMILIES.values():
        query = family(6, rng=3)
        assert isinstance(compile_qon(query).dp_view(), IntegerView)
        assert isinstance(
            compile_qon(query.to_log_domain()).dp_view(), DemotedView
        )
        proxied = counting_qon_instance(query, OpCounter())
        assert isinstance(compile_qon(proxied).dp_view(), DemotedView)
    for n in range(8, 15):
        k_no = n // 3 + (n - 2 - n // 3) % 2
        pair = qon_gap_pair(n, n - 2, k_no, alpha=4)
        for reduction in (pair.yes_reduction, pair.no_reduction):
            kernel = compile_qon(reduction.instance)
            assert isinstance(kernel.dp_view(), DemotedView)


def test_counting_proxy_op_counts_pinned():
    """The generic path (counting proxies) keeps the exact operation
    sequence: T9 NO at n = 10 (the ``joinopt.dp_mults`` probe's
    instance), no cost cache installed."""
    counter = OpCounter()
    instance = qon_gap_pair(10, 8, 4, alpha=4).no_reduction.instance
    with use_cache(None):
        dp_optimal(counting_qon_instance(instance, counter))
    assert counter.snapshot() == {"mults": 9332, "divs": 0, "adds": 5110}
