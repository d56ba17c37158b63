"""Exact search with an admissible completion bound.

The plain exhaustive optimizer prunes only on the accumulated partial
cost.  This variant adds an admissible bound on the *remaining* work:
relation sizes are >= 1 and each edge's selectivity is applied at most
once over a whole sequence, so from a prefix of size ``N(X)`` every
future prefix has size at least ``N(X) * prod(all edge selectivities)``
and every future join costs at least that times the globally cheapest
probe.  The bound never overestimates, so optimality is preserved;
children are explored cheapest-first and the incumbent is seeded with
the greedy heuristic.  The scaling benchmark ablates the effect
against the plain search and the subset DP.

Sibling subtrees reach the same relation sets in other orders, so a
call with no active cost cache memoizes its own prefix sizes
(:func:`~repro.runtime.costcache.memoize_call`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from repro.joinopt.instance import QONInstance
from repro.core.results import PlanResult
from repro.joinopt.optimizers.greedy import greedy_min_cost
from repro.runtime.costcache import active_cache, memoize_call
from repro.utils.validation import require
from repro.observability.tracer import traced


@traced("optimize.bnb")
@memoize_call
def branch_and_bound(
    instance: QONInstance,
    max_relations: int = 13,
) -> PlanResult:
    """Optimal join sequence via bounded DFS (exact)."""
    n = instance.num_relations
    require(n >= 1, "instance must have at least one relation")
    require(
        n <= max_relations,
        f"branch and bound limited to {max_relations} relations "
        f"(instance has {n}); raise max_relations explicitly to override",
    )
    if n == 1:
        return PlanResult(
            cost=0, sequence=(0,), optimizer="branch-and-bound",
            explored=1, is_exact=True,
        )

    # Admissible floor: sizes >= 1 and each selectivity applies once,
    # so any future prefix size >= current size * full_shrink.
    full_shrink = Fraction(1)
    for i, j in instance.graph.edges:
        full_shrink *= Fraction(instance.selectivity(i, j))
    min_probe = min(
        instance.access_cost(i, j)
        for i in range(n)
        for j in range(n)
        if i != j
    )

    seed = greedy_min_cost(instance)
    best_cost = seed.cost
    best_sequence: Tuple[int, ...] = seed.sequence
    cache = active_cache()
    explored = 0

    prefix: List[int] = []
    used = [False] * n

    def extension_size(
        prefix_size: object, candidate: int, prefix_mask: int
    ) -> object:
        """``N(prefix + candidate)`` — cache-shared (key: bitmask)
        with the subset DP and the pruned exhaustive search."""

        def compute() -> object:
            size = prefix_size * instance.size(candidate)
            for earlier in prefix:
                selectivity = instance.selectivity(earlier, candidate)
                if selectivity != 1:
                    size = size * selectivity
            return size

        if cache is None:
            return compute()
        return cache.get_or_compute(
            instance, "qon-size", prefix_mask | (1 << candidate), compute
        )

    def recurse(
        prefix_size: object, partial_cost: object, prefix_mask: int
    ) -> None:
        nonlocal best_cost, best_sequence, explored
        depth = len(prefix)
        if depth == n:
            explored += 1
            if partial_cost < best_cost:
                best_cost = partial_cost
                best_sequence = tuple(prefix)
            return
        candidates = []
        for candidate in range(n):
            if used[candidate]:
                continue
            if prefix:
                probe = min(
                    instance.access_cost(earlier, candidate)
                    for earlier in prefix
                )
                step = prefix_size * probe
                new_cost = partial_cost + step
                new_size = extension_size(prefix_size, candidate, prefix_mask)
            else:
                new_cost = 0
                new_size = instance.size(candidate)
            candidates.append((new_cost, candidate, new_size))
        candidates.sort(key=lambda item: (item[0], item[1]))
        for new_cost, candidate, new_size in candidates:
            remaining = n - depth - 1
            lower = new_cost
            if remaining > 0 and depth >= 1:
                lower = (
                    new_cost
                    + remaining * new_size * full_shrink * min_probe
                )
            if depth >= 1 and lower >= best_cost:
                explored += 1
                continue
            used[candidate] = True
            prefix.append(candidate)
            recurse(new_size, new_cost, prefix_mask | (1 << candidate))
            prefix.pop()
            used[candidate] = False

    recurse(0, 0, 0)
    return PlanResult(
        cost=best_cost,
        sequence=best_sequence,
        optimizer="branch-and-bound",
        explored=explored,
        is_exact=True,
    )
