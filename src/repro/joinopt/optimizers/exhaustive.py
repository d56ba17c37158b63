"""Exhaustive join-order search with branch-and-bound pruning.

Enumerates permutations depth-first, carrying the running prefix size
``N(X)`` and partial cost; because every ``H_i`` is positive, a partial
cost at or above the incumbent prunes the whole subtree.  Exact, and
practical to n ~ 10-11.

Every permutation of a prefix reaches the same relation set, so a call
with no active cost cache memoizes its own prefix sizes
(:func:`~repro.runtime.costcache.memoize_call`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.joinopt.instance import QONInstance
from repro.core.results import PlanResult
from repro.runtime.costcache import active_cache, memoize_call
from repro.utils.validation import require
from repro.observability.tracer import traced


@traced("optimize.exhaustive")
@memoize_call
def exhaustive_optimal(
    instance: QONInstance,
    allow_cartesian: bool = True,
    max_relations: int = 12,
) -> PlanResult:
    """Optimal join sequence by pruned exhaustive enumeration.

    Args:
        allow_cartesian: when False, sequences where a join has no
            predicate to the prefix are skipped (the paper notes the
            QO_N gap survives this restriction).
        max_relations: guard against accidentally launching a factorial
            search on a large instance.
    """
    n = instance.num_relations
    require(n >= 1, "instance must have at least one relation")
    require(
        n <= max_relations,
        f"exhaustive search limited to {max_relations} relations "
        f"(instance has {n}); raise max_relations explicitly to override",
    )
    if n == 1:
        return PlanResult(
            cost=0, sequence=(0,), optimizer="exhaustive", explored=1,
            is_exact=True,
        )

    graph = instance.graph
    cache = active_cache()
    best_cost = None
    best_sequence: Optional[Tuple[int, ...]] = None
    explored = 0

    prefix: List[int] = []
    used = [False] * n

    def extension_size(
        prefix_size: object, candidate: int, prefix_mask: int
    ) -> object:
        """``N(prefix + candidate)`` — order-free, so cache-shared
        (key: the extended bitmask) with the subset DP and B&B."""

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
        if len(prefix) == n:
            explored += 1
            if best_cost is None or partial_cost < best_cost:
                best_cost = partial_cost
                best_sequence = tuple(prefix)
            return
        for candidate in range(n):
            if used[candidate]:
                continue
            if prefix:
                connected = any(
                    graph.has_edge(candidate, earlier) for earlier in prefix
                )
                if not allow_cartesian and not connected:
                    continue
                probe = min(
                    instance.access_cost(earlier, candidate)
                    for earlier in prefix
                )
                step_cost = prefix_size * probe
                new_cost = (
                    step_cost if partial_cost is None
                    else partial_cost + step_cost
                )
                if best_cost is not None and new_cost >= best_cost:
                    explored += 1
                    continue
                new_size = extension_size(prefix_size, candidate, prefix_mask)
            else:
                new_cost = partial_cost
                new_size = instance.size(candidate)
            used[candidate] = True
            prefix.append(candidate)
            recurse(new_size, new_cost, prefix_mask | (1 << candidate))
            prefix.pop()
            used[candidate] = False

    recurse(None, None, 0)
    if best_sequence is None:
        # Every sequence was filtered out (disconnected graph with
        # allow_cartesian=False): fall back to allowing products.
        require(
            allow_cartesian is False,
            "internal error: no sequence found despite cartesian products",
        )
        return exhaustive_optimal(
            instance, allow_cartesian=True, max_relations=max_relations
        )
    return PlanResult(
        cost=best_cost,
        sequence=best_sequence,
        optimizer="exhaustive",
        explored=explored,
        is_exact=True,
    )
