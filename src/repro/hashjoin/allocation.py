"""Optimal memory allocation within a pipeline (paper Lemma 10).

A pipeline runs joins ``J_i .. J_k``; join ``J_j`` has inner relation
``bs_j`` (a base relation) and outer stream ``br_j = N_{j-1}``.  Memory
``M`` must be split with ``m_j >= hjmin(bs_j)`` and ``sum m_j <= M``.

Because ``g`` is linear in ``m`` on ``[hjmin(b), b]``, the partitioning
overhead ``(br_j + bs_j) * g(m_j, bs_j)`` decreases at the constant
rate ``(br_j + bs_j) * g_scale / (bs_j - hjmin(bs_j))`` per page of
memory, and giving a join more than ``bs_j`` pages is useless.  The
optimal split is therefore a greedy fill: start everyone at the floor,
then pour the remaining memory into joins in decreasing order of that
rate.  This reproduces Lemma 10's qualitative statement — the joins
with the *smallest outer streams* are the ones left at minimum memory.

The fill runs on Python ``int``s: floors, spare memory, headroom and
grants are integers whenever ``memory`` and the inner sizes are, which
holds for every :class:`~repro.hashjoin.instance.QOHInstance`.  Rates
are compared as integers over one common denominator, and each join
cost is one ``Fraction`` built by :meth:`HashJoinCostModel.h`.  A join
at full memory costs ``bs_j`` and one at its floor
``(br_j + bs_j) * g_scale + bs_j``, and the fill leaves at most one
join in between, so with integral outer sizes at most one join cost is
non-integral; the total is an integer part plus the non-integral
costs.  The results keep their ``Fraction`` types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from repro.hashjoin.cost_model import ExactReal, HashJoinCostModel
from repro.utils.validation import require


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of the memory-allocation LP (solved greedily).

    Attributes:
        allocation: memory page share per join, in pipeline order.
        join_costs: ``h`` value per join under that allocation.
        total_join_cost: sum of the join costs.
        starved: indices (pipeline-local) of joins left below their
            inner size — the joins that pay partitioning overhead.
    """

    allocation: Tuple[Fraction, ...]
    join_costs: Tuple[Fraction, ...]
    total_join_cost: Fraction
    starved: Tuple[int, ...]


def allocate_memory(
    model: HashJoinCostModel,
    outer_sizes: Sequence[ExactReal],
    inner_sizes: Sequence[int],
    memory: int,
    floors: Optional[Sequence[int]] = None,
) -> Optional[AllocationResult]:
    """Optimal split of ``memory`` among the pipeline's joins.

    ``floors`` are the joins' ``model.hjmin`` floors when the caller
    already has them (the compiled QO_H kernel holds every relation's);
    the result is the same either way.

    Returns None when even the floors don't fit (infeasible pipeline).
    """
    count = len(inner_sizes)
    require(count == len(outer_sizes), "outer/inner length mismatch")
    require(count >= 1, "pipeline must contain at least one join")
    if floors is None:
        floors = [model.hjmin(inner) for inner in inner_sizes]
    else:
        require(len(floors) == count, "floors/inner length mismatch")
    spare = memory - sum(floors)
    if spare < 0:
        return None

    allocation = list(floors)
    order: Sequence[int] = range(count)
    if count > 1 and spare > 0:
        order = _fill_order(outer_sizes, inner_sizes, floors)
    for index in order:
        if spare <= 0:
            break
        headroom = inner_sizes[index] - allocation[index]
        if headroom <= 0:
            continue
        grant = min(headroom, spare)
        allocation[index] += grant
        spare -= grant

    join_costs = [
        model.h(
            allocation[index], outer_sizes[index], inner_sizes[index],
            floors[index],
        )
        for index in range(count)
    ]
    whole = 0
    fractional: List[Fraction] = []
    for cost in join_costs:
        if cost.denominator == 1:
            whole += cost.numerator
        else:
            fractional.append(cost)
    starved = tuple(
        index
        for index in range(count)
        if allocation[index] < inner_sizes[index]
    )
    return AllocationResult(
        allocation=tuple([Fraction(share) for share in allocation]),
        join_costs=tuple(join_costs),
        total_join_cost=sum(fractional, Fraction(whole)),
        starved=starved,
    )


def _fill_order(
    outer_sizes: Sequence[ExactReal],
    inner_sizes: Sequence[int],
    floors: Sequence[int],
) -> List[int]:
    """Join indices by decreasing fill rate, equal rates in index order.

    The rate ``(br + bs) * g_scale / (bs - hjmin(bs))`` — zero once the
    span is empty — is compared as an integer over one common
    denominator; ``g_scale > 0`` is common to every rate and cancels.
    """
    rates: List[Tuple[int, int]] = []
    common = 1
    for outer, inner, floor in zip(outer_sizes, inner_sizes, floors):
        span = inner - floor
        if span <= 0:
            rates.append((0, 1))
            continue
        scale = outer.denominator
        rates.append((outer.numerator + inner * scale, scale * span))
        common = lcm(common, scale * span)
    keys = [numerator * (common // denominator)
            for numerator, denominator in rates]
    return sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
