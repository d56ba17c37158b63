"""QO_H plan search.

Two layers:

* :func:`best_decomposition` — for a *fixed* sequence, the optimal
  pipeline decomposition by dynamic programming over breakpoints
  (``O(n^2)`` fragments, each costed via the allocation LP);
* :func:`qoh_optimal` / :func:`qoh_greedy` — search over sequences
  (exhaustive with feasibility pruning for small n; greedy otherwise).

Feasibility: a sequence is executable only if every non-first relation
can receive its ``hjmin`` floor within ``M`` — this is the mechanism
the f_H reduction uses to pin ``R_0`` to the first position.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.results import PlanResult
from repro.hashjoin.instance import QOHInstance
from repro.hashjoin.pipeline import (
    Pipeline,
    PipelineDecomposition,
    pipeline_cost,
)
from repro.utils.validation import require
from repro.observability.tracer import traced


def is_feasible_sequence(instance: QOHInstance, sequence: Sequence[int]) -> bool:
    """True if every inner relation's hjmin floor fits in memory."""
    return all(
        instance.hjmin(relation) <= instance.memory
        for relation in sequence[1:]
    )


def feasible_sequences(instance: QOHInstance) -> Iterator[Tuple[int, ...]]:
    """All feasible permutations (use only for small instances)."""
    n = instance.num_relations
    # Relations too large to ever be an inner must come first; there can
    # be at most one such relation or no sequence is feasible.
    oversized = [
        r for r in range(n) if instance.hjmin(r) > instance.memory
    ]
    if len(oversized) > 1:
        return
    if oversized:
        first = oversized[0]
        rest = [r for r in range(n) if r != first]
        for tail in itertools.permutations(rest):
            yield (first, *tail)
    else:
        for sequence in itertools.permutations(range(n)):
            yield sequence


def best_decomposition(
    instance: QOHInstance, sequence: Sequence[int]
) -> Optional[PlanResult]:
    """Optimal pipeline decomposition for a fixed sequence (DP).

    ``dp[k]`` = least cost to execute joins ``1..k``; transitions try
    every fragment ``P(i, k)``.  Returns None for infeasible sequences.
    """
    n = instance.num_relations
    require(n >= 2, "need at least two relations to join")
    if not is_feasible_sequence(instance, sequence):
        return None
    num_joins = n - 1
    intermediates = instance.intermediate_sizes(sequence)

    # Fragment costs, memoized: fragment_cost[i][k]
    fragment_cost: dict[Tuple[int, int], Optional[Fraction]] = {}
    for i in range(1, num_joins + 1):
        for k in range(i, num_joins + 1):
            fragment_cost[(i, k)] = pipeline_cost(
                instance, sequence, Pipeline(i, k), intermediates
            )

    dp: List[Optional[Fraction]] = [None] * (num_joins + 1)
    choice: List[int] = [0] * (num_joins + 1)
    dp[0] = Fraction(0)
    explored = 0
    for k in range(1, num_joins + 1):
        for i in range(1, k + 1):
            if dp[i - 1] is None:
                continue
            cost = fragment_cost[(i, k)]
            explored += 1
            if cost is None:
                continue
            candidate = dp[i - 1] + cost
            if dp[k] is None or candidate < dp[k]:
                dp[k] = candidate
                choice[k] = i
    if dp[num_joins] is None:
        return None
    # Reconstruct the breakpoints.
    breaks: List[int] = []
    k = num_joins
    while k > 0:
        i = choice[k]
        if i > 1:
            breaks.append(i - 1)
        k = i - 1
    decomposition = PipelineDecomposition.from_breaks(num_joins, breaks)
    return PlanResult(
        cost=dp[num_joins],
        sequence=tuple(sequence),
        optimizer="qoh-dp",
        explored=explored,
        plan=decomposition,
    )


@traced("optimize.qoh_exhaustive")
def qoh_optimal(
    instance: QOHInstance, max_relations: int = 9
) -> Optional[PlanResult]:
    """Exact QO_H optimum: exhaustive sequences x decomposition DP."""
    n = instance.num_relations
    require(
        n <= max_relations,
        f"exhaustive QO_H search limited to {max_relations} relations "
        f"(instance has {n}); raise max_relations explicitly to override",
    )
    best: Optional[PlanResult] = None
    explored = 0
    for sequence in feasible_sequences(instance):
        plan = best_decomposition(instance, sequence)
        explored += 1
        if plan is None:
            continue
        if best is None or plan.cost < best.cost:
            best = replace(
                plan, optimizer="qoh-optimal", explored=explored,
                is_exact=True,
            )
    return best


@traced("optimize.qoh_greedy")
def qoh_greedy(instance: QOHInstance) -> Optional[PlanResult]:
    """Polynomial heuristic: greedy min-intermediate sequence, then DP.

    Starts from each feasible first relation, grows the sequence by
    smallest next intermediate size, and keeps the best plan.
    """
    n = instance.num_relations
    best: Optional[PlanResult] = None
    explored = 0
    for first in range(n):
        others = [r for r in range(n) if r != first]
        if any(instance.hjmin(r) > instance.memory for r in others):
            continue
        sequence = [first]
        remaining = set(others)
        current = Fraction(instance.size(first))
        while remaining:
            def resulting_size(candidate: int) -> Fraction:
                size = current * instance.size(candidate)
                for earlier in sequence:
                    selectivity = instance.selectivity(earlier, candidate)
                    if selectivity != 1:
                        size = size * selectivity
                return size

            explored += len(remaining)
            choice = min(sorted(remaining), key=resulting_size)
            current = resulting_size(choice)
            sequence.append(choice)
            remaining.remove(choice)
        plan = best_decomposition(instance, sequence)
        if plan is not None and (best is None or plan.cost < best.cost):
            best = plan
    if best is None:
        return None
    # explored counts every partial sequence the greedy examined across
    # all starting relations, not just the winning decomposition DP.
    return replace(best, optimizer="qoh-greedy", explored=explored)
