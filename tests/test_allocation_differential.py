"""Differential suite: the allocation LP solve is bit-identical to the
``Fraction`` fill it replaced, and every computed QO_H fragment is one
solve.

``_reference_allocate`` is that fill, copied as the oracle together
with the ``g``/``h`` formulas it called (``_reference_h``), so a change
to either the fill or the join cost shows.  :func:`allocate_memory`
must agree with it in every :class:`AllocationResult` field — value,
type and ``repr`` of each allocation share, join cost and the total,
and the ``starved`` indices — with and without the ``floors`` the
compiled QO_H kernel hands it.

The repository benchmark (``bench/layers.py``) counts allocation
solves as ``hashjoin.lp_solves`` by patching
``repro.hashjoin.allocation.allocate_memory``;
:class:`TestSolveRouting` pins that the incremental QO_H evaluator
reaches the solve through that module attribute, once per computed
fragment.
"""

from fractions import Fraction
from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.hashjoin import allocation
from repro.hashjoin.allocation import AllocationResult, allocate_memory
from repro.hashjoin.cost_model import ExactReal, HashJoinCostModel
from repro.perf.qoh import QOHEvaluator
from repro.runtime.costcache import use_cache
from repro.utils.rng import make_rng
from repro.utils.validation import ValidationError, require
from repro.workloads import qoh_gap_pair


def _reference_g(
    model: HashJoinCostModel, memory: ExactReal, inner_pages: int
) -> Fraction:
    floor = model.hjmin(inner_pages)
    require(memory >= floor, "memory below hjmin: join is infeasible")
    if memory >= inner_pages:
        return Fraction(0)
    span = inner_pages - floor
    if span <= 0:
        return Fraction(0)
    return (
        Fraction(model.g_scale)
        * (Fraction(inner_pages) - Fraction(memory))
        / span
    )


def _reference_h(
    model: HashJoinCostModel,
    memory: ExactReal,
    outer_pages: ExactReal,
    inner_pages: int,
) -> Fraction:
    overhead = _reference_g(model, memory, inner_pages)
    return (Fraction(outer_pages) + inner_pages) * overhead + inner_pages


def _reference_allocate(
    model: HashJoinCostModel,
    outer_sizes: Sequence[ExactReal],
    inner_sizes: Sequence[int],
    memory: int,
) -> Optional[AllocationResult]:
    """The ``Fraction`` greedy fill (the oracle; see module docs)."""
    count = len(inner_sizes)
    require(count == len(outer_sizes), "outer/inner length mismatch")
    require(count >= 1, "pipeline must contain at least one join")
    floors = [model.hjmin(inner) for inner in inner_sizes]
    if sum(floors) > memory:
        return None

    allocation: List[Fraction] = [Fraction(floor) for floor in floors]
    spare = Fraction(memory - sum(floors))

    def fill_priority(index: int) -> Fraction:
        span = inner_sizes[index] - floors[index]
        if span <= 0:
            return Fraction(0)
        return (
            (Fraction(outer_sizes[index]) + inner_sizes[index])
            * model.g_scale
            / span
        )

    order = sorted(range(count), key=fill_priority, reverse=True)
    for index in order:
        if spare <= 0:
            break
        headroom = Fraction(inner_sizes[index]) - allocation[index]
        if headroom <= 0:
            continue
        grant = min(headroom, spare)
        allocation[index] += grant
        spare -= grant

    join_costs = [
        _reference_h(
            model, allocation[index], outer_sizes[index], inner_sizes[index]
        )
        for index in range(count)
    ]
    total = Fraction(0)
    for cost in join_costs:
        total += cost
    starved = tuple(
        index
        for index in range(count)
        if allocation[index] < inner_sizes[index]
    )
    return AllocationResult(
        allocation=tuple(allocation),
        join_costs=tuple(join_costs),
        total_join_cost=total,
        starved=starved,
    )


def _assert_same_value(actual: object, expected: object) -> None:
    assert actual == expected
    assert type(actual) is type(expected)
    assert repr(actual) == repr(expected)


def _assert_same_result(
    actual: Optional[AllocationResult], expected: Optional[AllocationResult]
) -> None:
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    for field in ("allocation", "join_costs"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert type(got) is tuple and len(got) == len(want)
        for value, reference in zip(got, want):
            _assert_same_value(value, reference)
    _assert_same_value(actual.total_join_cost, expected.total_join_cost)
    _assert_same_value(actual.starved, expected.starved)
    assert repr(actual) == repr(expected)


models = st.builds(
    HashJoinCostModel,
    psi=st.sampled_from(
        [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]
    ),
    g_scale=st.sampled_from([1, 2, 3]),
)

#: Span 0 (1, 2) and exact roots under every drawn psi (4, 8, 9, 16, 64).
inner_pages = st.one_of(
    st.sampled_from([1, 2, 4, 8, 9, 16, 64]),
    st.integers(min_value=1, max_value=5_000),
)


def _draw_outer(draw, shape: str) -> ExactReal:
    if shape == "fraction":
        return Fraction(
            draw(st.integers(min_value=1, max_value=10**7)),
            draw(st.integers(min_value=2, max_value=50)),
        )
    value = draw(st.integers(min_value=1, max_value=10**7))
    return Fraction(value) if shape == "integral-fraction" else value


@st.composite
def pipelines(draw):
    """``(model, outers, inners, memory)`` for one pipeline.

    Outers are ``int``, integral ``Fraction`` or non-integral
    ``Fraction``; some joins copy an earlier join's fill rate exactly
    (a rate tie) with a different outer and inner.  Memory runs from
    below the floor sum to above the inner sum.
    """
    model = draw(models)
    count = draw(st.integers(min_value=1, max_value=7))
    shapes = st.sampled_from(["int", "integral-fraction", "fraction"])
    outers: List[ExactReal] = []
    inners: List[int] = []
    for index in range(count):
        inner = draw(inner_pages)
        outer = _draw_outer(draw, draw(shapes))
        if index and draw(st.booleans()):
            outer = _tied_outer(model, outers, inners, inner, draw) or outer
        outers.append(outer)
        inners.append(inner)
    floor_sum = sum(model.hjmin(inner) for inner in inners)
    memory = draw(
        st.integers(
            min_value=max(1, floor_sum - 3), max_value=sum(inners) + 3
        )
    )
    return model, outers, inners, memory


def _tied_outer(model, outers, inners, inner, draw) -> Optional[ExactReal]:
    """An outer giving ``inner`` the fill rate of an earlier join, or
    None when no positive outer does."""
    span = inner - model.hjmin(inner)
    other = draw(st.integers(min_value=0, max_value=len(inners) - 1))
    other_span = inners[other] - model.hjmin(inners[other])
    if span <= 0 or other_span <= 0:
        return None
    rate = (Fraction(outers[other]) + inners[other]) / other_span
    outer = rate * span - inner
    if outer <= 0:
        return None
    if outer.denominator == 1 and draw(st.booleans()):
        return outer.numerator
    return outer


class TestAllocationIdentity:
    @settings(max_examples=400, deadline=None)
    @given(pipelines())
    def test_matches_reference_fill(self, case):
        """Every field equals the oracle's, with and without floors."""
        model, outers, inners, memory = case
        expected = _reference_allocate(model, outers, inners, memory)
        _assert_same_result(
            allocate_memory(model, outers, inners, memory), expected
        )
        floors = [model.hjmin(inner) for inner in inners]
        _assert_same_result(
            allocate_memory(model, outers, inners, memory, floors=floors),
            expected,
        )

    @settings(max_examples=200, deadline=None)
    @given(models, inner_pages, st.data())
    def test_join_cost_matches_reference(self, model, inner, data):
        """``g`` and ``h`` equal the ``Fraction`` formulas for ``int``
        and ``Fraction`` memory and outers, given the floor or not."""
        floor = model.hjmin(inner)
        memory: ExactReal = data.draw(
            st.integers(min_value=floor, max_value=inner + 3)
        )
        if data.draw(st.booleans()):
            memory = Fraction(
                memory * 7 + data.draw(st.integers(0, 6)), 7
            )
            memory = max(memory, Fraction(floor))
        shape = data.draw(
            st.sampled_from(["int", "integral-fraction", "fraction"])
        )
        outer = _draw_outer(data.draw, shape)
        want_g = _reference_g(model, memory, inner)
        want_h = _reference_h(model, memory, outer, inner)
        _assert_same_value(model.g(memory, inner), want_g)
        for given_floor in (None, floor):
            _assert_same_value(
                model.h(memory, outer, inner, given_floor), want_h
            )

    def test_memory_below_floor_is_rejected(self):
        model = HashJoinCostModel()
        with pytest.raises(ValidationError):
            model.h(9, 500, 100, 10)

    def test_floors_length_is_checked(self):
        model = HashJoinCostModel()
        with pytest.raises(ValidationError):
            allocate_memory(model, [5, 5], [100, 100], 100, floors=[10])


class TestSolveRouting:
    def test_one_solve_per_computed_fragment(self, monkeypatch):
        """``QOHEvaluator`` calls ``allocation.allocate_memory`` — the
        name the ``hashjoin.lp_solves`` counter patches — once per
        fragment it computes, and never for a reused one."""
        calls = [0]
        original = allocation.allocate_memory

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(allocation, "allocate_memory", counted)
        pair = qoh_gap_pair(6, Fraction(1, 2), 4**6)
        instance = pair.no_reduction.instance
        n = instance.num_relations
        oversized = [
            r for r in range(n) if instance.hjmin(r) > instance.memory
        ]
        rng = make_rng(0)
        with use_cache(None):
            evaluator = QOHEvaluator(instance)
            feasible = 0
            for _ in range(12):
                rest = [r for r in range(n) if r not in oversized]
                rng.shuffle(rest)
                plan = evaluator.best_plan(tuple(oversized + rest))
                feasible += plan is not None
        assert feasible == 12
        assert evaluator.fragments_computed > 0
        assert evaluator.fragments_reused > 0
        assert calls[0] == evaluator.fragments_computed
