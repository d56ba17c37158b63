"""Differential suite: the perf kernels are bit-identical to the
reference cost path.

The incremental evaluators take algebraic shortcuts (factor-multiset
deltas, set-keyed memos), so the one property that matters is that no
shortcut is observable: over random instances, random move sequences
and every cache mode, the values — and for exact arithmetic the
``int``-vs-``Fraction`` result *types* — match
:func:`~repro.joinopt.cost.total_cost` /
:func:`~repro.hashjoin.optimizer.best_decomposition` exactly.

Hypothesis drives instance and move generation; the repro RNG wrappers
keep every draw reproducible from the reported seed values.  Besides
random queries the draws cover the value shapes the evaluator's ``int``
representation must not show through: Theorem-9-style integral
instances, ``Fraction``-typed integral sizes (``Fraction(8)``) with
``Fraction(1)`` selectivities, and access columns mixing ``t_j`` with
``Fraction(t_j)``.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.hashjoin import allocation, pipeline
from repro.hashjoin.instance import QOHInstance
from repro.hashjoin.optimizer import best_decomposition
from repro.joinopt.cost import (
    intermediate_sizes,
    join_costs,
    partial_costs,
    total_cost,
)
from repro.joinopt.instance import QONInstance
from repro.perf.incremental import (
    AdjacentSwap,
    PrefixEvaluator,
    Reinsert,
    sample_moves,
)
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.perf.kernels import CompiledQON, _has_mixed_ties, is_exact_value
from repro.perf.qoh import QOHEvaluator
from repro.runtime.costcache import CostCache, use_cache
from repro.utils.rng import make_rng
from repro.workloads.gaps import qoh_gap_pair, qon_gap_pair
from repro.workloads.queries import random_query
from tests.test_dp_differential import fraction_typed_instances


def _shuffled(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


@st.composite
def qon_cases(draw):
    """``(instance, base, moves)`` — a random instance and move batch."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    instance = random_query(n, rng=seed)
    rng = make_rng(seed + 1)
    base = _shuffled(n, rng)
    move_count = draw(st.integers(min_value=1, max_value=25))
    return instance, base, sample_moves(n, rng, move_count)


def _with_moves(draw, instance, max_moves=25):
    """``(instance, base, moves)``: a drawn base and move batch."""
    n = instance.num_relations
    rng = make_rng(draw(st.integers(min_value=0, max_value=10_000)))
    base = _shuffled(n, rng)
    move_count = draw(st.integers(min_value=1, max_value=max_moves))
    return instance, base, sample_moves(n, rng, move_count)


def _edges(draw, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return draw(st.lists(st.sampled_from(pairs), unique=True))


@st.composite
def tie_typed_cases(draw):
    """Each edge probe ``w_uv`` is ``t_v`` or ``Fraction(t_v)`` and every
    non-edge probe is ``t_v``, so access columns hold equal values of
    different types; small sizes make such ties the common case."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = _edges(draw, n)
    sizes = draw(st.lists(
        st.sampled_from([2, 4, 8]), min_size=n, max_size=n
    ))
    selectivities = {
        edge: draw(st.sampled_from([1, Fraction(1, 2)])) for edge in edges
    }
    access = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            access[(a, b)] = draw(
                st.sampled_from([sizes[b], Fraction(sizes[b])])
            )
    instance = QONInstance(Graph(n, edges), sizes, selectivities, access)
    return _with_moves(draw, instance, max_moves=12)


@st.composite
def fraction_typed_cases(draw):
    """The DP suite's ``Fraction``-typed integral instances, with moves."""
    return _with_moves(draw, draw(fraction_typed_instances()), max_moves=12)


@st.composite
def t9_style_cases(draw):
    """The Theorem 9 shape: power-of-two sizes (large ones keep every
    prefix size integral), ``Fraction(1, 4)`` selectivities and ``int``
    access costs in ``[t_v / 4, t_v]``."""
    n = draw(st.integers(min_value=2, max_value=9))
    edges = _edges(draw, n)
    sizes = [2 ** draw(st.integers(min_value=2, max_value=40))
             for _ in range(n)]
    access = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            access[(a, b)] = sizes[b] // draw(st.sampled_from([1, 2, 4]))
    instance = QONInstance(
        Graph(n, edges), sizes, {edge: Fraction(1, 4) for edge in edges},
        access,
    )
    return _with_moves(draw, instance, max_moves=12)


#: The smallest tie-typed instance: ``w_01 = Fraction(4)`` and the
#: non-edge probe ``w_21 = t_1 = 4`` tie in column 1, and swapping the
#: first two relations of ``(0, 2, 1)`` changes which one the reference
#: ``min()`` picks.
TIE_EXAMPLE = (
    QONInstance(
        Graph(3, [(0, 1)]), [8, 4, 8], {(0, 1): Fraction(1, 2)},
        {(0, 1): Fraction(4), (1, 0): 8, (0, 2): 8, (2, 0): 8, (1, 2): 8,
         (2, 1): 4},
    ),
    (0, 2, 1),
    [AdjacentSwap(0)],
)


#: Moving relation 0 past ``(1, 2)`` divides ``N = 1`` by its entry
#: factor ``2``: both are integral, the quotient ``N({1, 2}) = 1/2`` is
#: not.
DIVIDE_EXAMPLE = (
    QONInstance(Graph(3, [(1, 2)]), [2, 1, 1], {(1, 2): Fraction(1, 2)}),
    (0, 1, 2),
    [Reinsert(0, 2)],
)


@st.composite
def qoh_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = (
        draw(st.lists(st.sampled_from(all_pairs), unique=True))
        if all_pairs
        else []
    )
    edges = sorted(set(extra) | {(i, i + 1) for i in range(n - 1)})
    graph = Graph(n, edges)
    sizes = [
        draw(st.integers(min_value=4, max_value=400)) for _ in range(n)
    ]
    selectivities = {
        edge: Fraction(1, draw(st.integers(min_value=1, max_value=20)))
        for edge in graph.edges
    }
    memory = draw(st.integers(min_value=8, max_value=500))
    return QOHInstance(graph, sizes, selectivities, memory=memory)


def _assert_identical(kernel_value, reference_value):
    assert kernel_value == reference_value
    assert type(kernel_value) is type(reference_value)
    assert repr(kernel_value) == repr(reference_value)


def _reference(instance, sequence):
    with use_cache(None):
        return total_cost(instance, sequence)


def _assert_chain_identical(instance, base, moves):
    """After ``rebase`` and after every ``advance``: the total and the
    cost of every move in the batch, against a fresh ``total_cost``.
    Stale checkpoints only show in the neighbors, so both are checked."""
    evaluator = PrefixEvaluator(instance)
    _assert_identical(evaluator.rebase(base), _reference(instance, base))
    current = base
    for accepted in (None, *moves):
        if accepted is not None:
            current = accepted.apply(current)
            _assert_identical(
                evaluator.advance(accepted), _reference(instance, current)
            )
        assert evaluator.base == current
        _assert_identical(evaluator.total, _reference(instance, current))
        for move, key, cost in evaluator.evaluate_neighbors(current, moves):
            assert key == move.apply(current)
            _assert_identical(cost, _reference(instance, key))


class TestQONExactIdentity:
    @settings(max_examples=60, deadline=None)
    @given(qon_cases())
    def test_neighbor_costs_bit_identical(self, case):
        """Every delta-evaluated neighbor equals a fresh total_cost."""
        instance, base, moves = case
        with use_cache(None):
            evaluator = PrefixEvaluator(instance)
            _assert_identical(
                evaluator.rebase(base), total_cost(instance, base)
            )
            for move, key, cost in evaluator.evaluate_neighbors(base, moves):
                assert key == move.apply(base)
                _assert_identical(cost, total_cost(instance, key))

    @settings(max_examples=40, deadline=None)
    @given(qon_cases())
    def test_advance_chain_bit_identical(self, case):
        """Accepted-move state updates track the reference exactly."""
        with use_cache(None):
            _assert_chain_identical(*case)

    @settings(max_examples=200, deadline=None)
    @given(tie_typed_cases())
    @example(TIE_EXAMPLE)
    def test_mixed_type_ties(self, case):
        """Equal probes of different types: the reference takes the
        first minimum in prefix order, and so must every candidate."""
        with use_cache(None):
            _assert_chain_identical(*case)

    @settings(max_examples=100, deadline=None)
    @given(fraction_typed_cases())
    @example(DIVIDE_EXAMPLE)
    def test_fraction_typed_integral_values(self, case):
        with use_cache(None):
            _assert_chain_identical(*case)

    @settings(max_examples=40, deadline=None)
    @given(qon_cases(), st.integers(min_value=0, max_value=10_000))
    def test_arbitrary_sequence_replay(self, case, seed):
        """evaluate() (LCP replay) matches on far-away permutations."""
        instance, base, _ = case
        rng = make_rng(seed)
        with use_cache(None):
            evaluator = PrefixEvaluator(instance)
            evaluator.rebase(base)
            for _ in range(5):
                sequence = _shuffled(instance.num_relations, rng)
                _assert_identical(
                    evaluator.evaluate(sequence),
                    total_cost(instance, sequence),
                )


class TestQONLogDomainIdentity:
    @settings(max_examples=40, deadline=None)
    @given(qon_cases())
    def test_lognumber_neighbors_bit_identical(self, case):
        """Inexact kernels replay in reference order: float-exact match."""
        exact_instance, base, moves = case
        instance = exact_instance.to_log_domain()
        with use_cache(None):
            evaluator = PrefixEvaluator(instance)
            assert not evaluator.kernel.exact
            rebased = evaluator.rebase(base)
            assert rebased.log2 == total_cost(instance, base).log2
            for move, key, cost in evaluator.evaluate_neighbors(base, moves):
                assert cost.log2 == total_cost(instance, key).log2

    @settings(max_examples=25, deadline=None)
    @given(qon_cases())
    def test_lognumber_advance_chain(self, case):
        exact_instance, base, moves = case
        instance = exact_instance.to_log_domain()
        with use_cache(None):
            evaluator = PrefixEvaluator(instance)
            evaluator.rebase(base)
            current = base
            for move in moves:
                current = move.apply(current)
                evaluator.advance(move)
                assert evaluator.total.log2 == total_cost(
                    instance, current
                ).log2


class TestCacheModes:
    """Identity and exact counter parity in all three cache modes."""

    @settings(max_examples=30, deadline=None)
    @given(qon_cases(), st.sampled_from(["none", "unbounded", "passthrough"]))
    def test_identity_in_every_mode(self, case, mode):
        instance, base, moves = case
        reference = {}
        with use_cache(None):
            reference[base] = total_cost(instance, base)
            for move in moves:
                key = move.apply(base)
                reference[key] = total_cost(instance, key)
        cache = {
            "none": None,
            "unbounded": CostCache(),
            "passthrough": CostCache(maxsize=0),
        }[mode]
        with use_cache(cache):
            evaluator = PrefixEvaluator(instance)
            _assert_identical(evaluator.rebase(base), reference[base])
            for move, key, cost in evaluator.evaluate_neighbors(base, moves):
                _assert_identical(cost, reference[key])

    @settings(max_examples=30, deadline=None)
    @given(
        t9_style_cases(),
        st.sampled_from(["none", "unbounded", "passthrough"]),
    )
    def test_t9_style_in_every_mode(self, case, mode):
        cache = {
            "none": None,
            "unbounded": CostCache(),
            "passthrough": CostCache(maxsize=0),
        }[mode]
        with use_cache(cache):
            _assert_chain_identical(*case)

    @settings(max_examples=30, deadline=None)
    @given(qon_cases())
    def test_kernel_and_reference_share_cache_entries(self, case):
        """Same kind/key: whoever computes first, the other one hits."""
        instance, base, moves = case
        cache = CostCache()
        with use_cache(cache):
            seeded = total_cost(instance, base)
            evaluator = PrefixEvaluator(instance)
            assert cache.misses == 1
            _assert_identical(evaluator.rebase(base), seeded)
            assert cache.hits == 1  # rebase hit the reference's entry
            for move, key, cost in evaluator.evaluate_neighbors(base, moves):
                _assert_identical(cost, total_cost(instance, key))
        # The reference re-evaluations were all served from kernel
        # entries: one miss per distinct sequence, total.
        distinct = {base} | {move.apply(base) for move in moves}
        assert cache.misses == len(distinct)

    @settings(max_examples=20, deadline=None)
    @given(qon_cases())
    def test_advance_produces_no_cache_traffic(self, case):
        """Accepted moves are pure state updates, like the reference."""
        instance, base, moves = case
        cache = CostCache()
        with use_cache(cache):
            evaluator = PrefixEvaluator(instance)
            evaluator.rebase(base)
            stats_before = cache.stats()
            for move in moves:
                evaluator.advance(move)
            stats_after = cache.stats()
        assert stats_after.hits == stats_before.hits
        assert stats_after.misses == stats_before.misses


def _t9_no_instance(n):
    """The Theorem 9 NO instance of the EXP-T9 grid: ``k_yes = n - 2``,
    a parity-matched ``k_no`` and ``alpha = 4``."""
    k_yes = n - 2
    k_no = n // 3 + (k_yes - n // 3) % 2
    return qon_gap_pair(n, k_yes, k_no, alpha=4).no_reduction.instance


#: Counting-proxy tallies of one ``PrefixEvaluator`` on the Theorem 9
#: NO grid (seed 0): the ``rebase`` and then all neighbors.  The
#: generic path runs plain ``*``, ``+`` and ``/`` in a fixed order, so
#: these are exact.
T9_GRID_COUNTS = {
    (12, 200): (
        {"mults": 76, "divs": 0, "adds": 20},
        {"mults": 2045, "divs": 172, "adds": 822},
    ),
    (14, 200): (
        {"mults": 99, "divs": 0, "adds": 24},
        {"mults": 2204, "divs": 206, "adds": 877},
    ),
    (12, 60): (
        {"mults": 76, "divs": 0, "adds": 20},
        {"mults": 628, "divs": 46, "adds": 248},
    ),
}

#: Multiplications plus divisions per neighbor of the reference path,
#: ``total_cost`` with no cache, on the same instances.
T9_REFERENCE_MULTS_PER_NEIGHBOR = {12: 76, 14: 99}


@pytest.mark.parametrize("n, move_count", sorted(T9_GRID_COUNTS))
def test_counting_proxy_op_counts_pinned(n, move_count):
    """The kernel does at least 5x fewer exact multiplications per
    neighbor than ``total_cost``, and every neighbor cost equals
    ``total_cost``'s in value and type."""
    instance = _t9_no_instance(n)
    rng = make_rng(0)
    base = _shuffled(n, rng)
    moves = sample_moves(n, rng, move_count)
    counter = OpCounter()
    counting = counting_qon_instance(instance, counter)
    evaluator = PrefixEvaluator(counting)
    with use_cache(None):
        evaluator.rebase(base)
        rebase_counts = counter.snapshot()
        counter.reset()
        for _ in evaluator.evaluate_neighbors(base, moves):
            pass
        kernel_counts = counter.snapshot()
        kernel_ops = counter.multiplicative
        counter.reset()
        for move in moves:
            total_cost(counting, move.apply(base))
    assert (rebase_counts, kernel_counts) == T9_GRID_COUNTS[
        (n, move_count)
    ]
    assert counter.multiplicative == (
        T9_REFERENCE_MULTS_PER_NEIGHBOR[n] * move_count
    )
    assert 5 * kernel_ops <= counter.multiplicative
    with use_cache(None):
        evaluator = PrefixEvaluator(instance)
        _assert_identical(evaluator.rebase(base), total_cost(instance, base))
        for _, key, cost in evaluator.evaluate_neighbors(base, moves):
            _assert_identical(cost, total_cost(instance, key))


def _t15_no_instance(n):
    """The Theorem 15 NO instance of the EXP-T15 grid:
    ``epsilon = 1/2`` and ``alpha = 4^n``."""
    return qoh_gap_pair(n, Fraction(1, 2), alpha=4**n).no_reduction.instance


def _feasible_base(instance, rng):
    """A shuffled sequence that starts with the one relation whose
    ``hjmin`` exceeds the memory, if the instance has one."""
    n = instance.num_relations
    oversized = [r for r in range(n) if instance.hjmin(r) > instance.memory]
    assert len(oversized) <= 1
    rest = [r for r in range(n) if r not in oversized]
    rng.shuffle(rest)
    return (*oversized, *rest)


#: ``QOHEvaluator`` on the Theorem 15 NO grid (seed 0): fragments
#: computed and reused over the base and all neighbors, and the
#: allocation LPs ``best_decomposition`` solves for the same sequences.
T15_GRID_COUNTS = {
    (6, 12): (143, 109, 252),
    (6, 40): (190, 503, 693),
    (9, 40): (667, 1043, 1710),
}


@pytest.mark.parametrize("n, move_count", sorted(T15_GRID_COUNTS))
def test_qoh_lp_solves_pinned(n, move_count, monkeypatch):
    """Every ``QOHEvaluator`` plan equals ``best_decomposition``'s, and
    the evaluator solves fewer allocation LPs: one per fragment it
    computes."""
    calls = [0]
    original = allocation.allocate_memory

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(allocation, "allocate_memory", counted)
    monkeypatch.setattr(pipeline, "allocate_memory", counted)
    instance = _t15_no_instance(n)
    # The FH reduction adds a helper relation, so sequences range over
    # the instance's own relation count, not the family parameter n.
    rng = make_rng(0)
    base = _feasible_base(instance, rng)
    moves = sample_moves(instance.num_relations, rng, move_count)
    sequences = [base] + [move.apply(base) for move in moves]
    with use_cache(None):
        expected = [
            best_decomposition(instance, sequence) for sequence in sequences
        ]
        reference_solves = calls[0]
        calls[0] = 0
        evaluator = QOHEvaluator(instance)
        actual = [evaluator.best_plan(sequence) for sequence in sequences]
    assert actual == expected
    computed, reused, reference = T15_GRID_COUNTS[(n, move_count)]
    assert (evaluator.fragments_computed, evaluator.fragments_reused) == (
        computed, reused,
    )
    assert calls[0] == computed
    assert reference_solves == reference
    assert computed < reference


def _per_pair_tables(instance):
    """The kernel's tables built from the accessors of every ordered
    pair: the oracle of :class:`CompiledQON`'s neighbor build."""
    n = instance.num_relations
    graph = instance.graph
    sizes = tuple(instance.size(r) for r in range(n))
    sel, access, adj, frac_sel = [], [], [], []
    exact = all(is_exact_value(t) for t in sizes)
    for u in range(n):
        srow, arow, mask, frac_mask = [], [], 0, 0
        for v in range(n):
            if v == u:
                srow.append(1)
                arow.append(sizes[u])
                continue
            selectivity = instance.selectivity(u, v)
            cost = instance.access_cost(u, v)
            srow.append(selectivity)
            arow.append(cost)
            exact = exact and is_exact_value(cost)
            if graph.has_edge(u, v) and selectivity != 1:
                mask |= 1 << v
                exact = exact and is_exact_value(selectivity)
                if isinstance(selectivity, Fraction):
                    frac_mask |= 1 << v
        sel.append(tuple(srow))
        access.append(tuple(arow))
        adj.append(mask)
        frac_sel.append(frac_mask)
    access = tuple(access)
    return {
        "sel": tuple(sel),
        "access": access,
        "adj": tuple(adj),
        "frac_sel": tuple(frac_sel),
        "exact": exact,
        "mixed_ties": exact and _has_mixed_ties(access),
    }


def _assert_same_tables(instance):
    kernel = CompiledQON(instance)
    want = _per_pair_tables(instance)
    for name in ("sel", "access"):
        rows = getattr(kernel, name)
        assert type(rows) is tuple and len(rows) == len(want[name])
        for row, want_row in zip(rows, want[name]):
            assert type(row) is tuple and len(row) == len(want_row)
            for value, expected in zip(row, want_row):
                assert type(value) is type(expected)
                assert repr(value) == repr(expected)
    for name in ("adj", "frac_sel", "exact", "mixed_ties"):
        assert getattr(kernel, name) == want[name], name
        assert type(getattr(kernel, name)) is type(want[name]), name


@st.composite
def unvalidated_instances(draw):
    """``validate=False`` instances: any size, selectivity or access
    cost may be zero, negative or out of its bounds."""
    n = draw(st.integers(min_value=2, max_value=7))
    edges = _edges(draw, n)
    values = st.sampled_from([0, -3, 1, 2, 7, Fraction(1, 2), Fraction(-1, 3)])
    sizes = [draw(values) for _ in range(n)]
    selectivities = {edge: draw(values) for edge in edges}
    access = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if draw(st.booleans()):
                access[(a, b)] = draw(values)
    return QONInstance(
        Graph(n, edges), sizes, selectivities, access, validate=False
    )


class TestKernelCompile:
    """The kernel reads the accessors of each relation's neighbors
    only; its tables equal the per-pair build in value and type."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            qon_cases(), tie_typed_cases(), fraction_typed_cases(),
            t9_style_cases(),
        ),
        st.sampled_from(["plain", "log-domain", "counting"]),
    )
    def test_neighbor_build_matches_the_per_pair_build(self, case, form):
        instance = case[0]
        if form == "log-domain":
            instance = instance.to_log_domain()
        elif form == "counting":
            instance = counting_qon_instance(instance, OpCounter())
        _assert_same_tables(instance)

    @settings(max_examples=60, deadline=None)
    @given(unvalidated_instances())
    def test_unvalidated_statistics(self, instance):
        _assert_same_tables(instance)

    def test_mixed_ties_and_access_costs_off_the_edges(self):
        """``TIE_EXAMPLE`` gives access costs for non-edges, which the
        accessors ignore (they return ``t_v``), and its column 1 mixes
        ``Fraction(4)`` with ``4``."""
        instance = TIE_EXAMPLE[0]
        assert CompiledQON(instance).mixed_ties
        _assert_same_tables(instance)


class TestPartialCosts:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_single_pass_matches_components(self, n, seed):
        """partial_costs == (join_costs, intermediate_sizes), bit for bit."""
        instance = random_query(n, rng=seed)
        rng = make_rng(seed + 1)
        for _ in range(4):
            sequence = _shuffled(n, rng)
            costs, sizes = partial_costs(instance, sequence)
            expected_costs = join_costs(instance, sequence)
            expected_sizes = intermediate_sizes(instance, sequence)
            assert costs == expected_costs
            assert sizes == expected_sizes
            for a, b in zip(costs, expected_costs):
                assert type(a) is type(b)
            for a, b in zip(sizes, expected_sizes):
                assert type(a) is type(b)
            total = total_cost(instance, sequence)
            assert sum(costs[1:], costs[0] * 0) + costs[0] == total or (
                sum(costs) == total
            )


class TestQOHPlanIdentity:
    @settings(max_examples=40, deadline=None)
    @given(qoh_instances(), st.integers(min_value=0, max_value=10_000))
    def test_best_plan_matches_reference_dp(self, instance, seed):
        """Cost, breaks and ``explored`` all equal the reference DP."""
        rng = make_rng(seed)
        n = instance.num_relations
        with use_cache(None):
            evaluator = QOHEvaluator(instance)
            for _ in range(6):
                sequence = _shuffled(n, rng)
                expected = best_decomposition(instance, sequence)
                actual = evaluator.best_plan(sequence)
                if expected is None:
                    assert actual is None
                    continue
                assert actual is not None
                assert actual.cost == expected.cost
                assert type(actual.cost) is type(expected.cost)
                assert actual.sequence == expected.sequence
                assert actual.explored == expected.explored
                assert actual.optimizer == expected.optimizer
                assert actual.plan == expected.plan

    @settings(max_examples=20, deadline=None)
    @given(qoh_instances(), st.integers(min_value=0, max_value=10_000))
    def test_best_plan_cache_parity(self, instance, seed):
        """Kernel and reference share ("qoh-plan", sequence) entries."""
        from repro.hashjoin.search import cached_best_decomposition

        rng = make_rng(seed)
        sequence = _shuffled(instance.num_relations, rng)
        cache = CostCache()
        with use_cache(cache):
            reference = cached_best_decomposition(instance, sequence)
            assert cache.misses == 1
            evaluator = QOHEvaluator(instance)
            actual = evaluator.best_plan(sequence)
            assert cache.hits == 1
            assert cache.misses == 1
        if reference is None:
            assert actual is None
        else:
            assert actual is not None
            assert actual.cost == reference.cost
