"""Dynamic programming over relation subsets.

Both quantities the cost model needs — the prefix size ``N(X)`` and the
cheapest probe ``min_{k in X} w[k][j]`` — depend only on the *set* of
relations joined so far, never on their order.  The optimal left-deep
cost is therefore a shortest path over the subset lattice:

    best[X | {j}] = min_j ( best[X] + N(X) * min_{k in X} w[k][j] )

with ``2^n`` states and ``n`` transitions per state.  This is the
Selinger-style exact optimizer for the paper's cost model; it agrees
with :func:`~repro.joinopt.optimizers.exhaustive.exhaustive_optimal`
on every instance (a property test in the suite enforces it).

The loop reads the instance only through its compiled kernel's DP view
(:meth:`~repro.perf.kernels.CompiledQON.dp_view`), at a few entry
points: the singleton sizes, the probe rows, the size extension and
two exits.  Each mask carries one probe row,
``probe(X)[j] = min_{k in X} w[k][j]``, combined in O(n) from the row of
its lowest member and the row of the rest of the mask, so each
transition costs O(1) table reads instead of O(|X|) accessor calls.

The kernel's statistics pick the view; no setting does:

* :class:`~repro.perf.kernels.IntegerView` when they are plain
  ``int``/``Fraction`` and some size or access cost is a ``Fraction``,
  as in every generated query family.  Sizes, probes and costs are
  scaled to ``int``s by one common denominator, so every transition
  and comparison is an ``int`` operation.
* :class:`~repro.perf.kernels.DemotedView` otherwise (the paper's gap
  instances, ``LogNumber`` values, counting proxies).  Prefix sizes,
  and so the transition costs built on them, are plain ``int`` while
  they are integral (:func:`~repro.perf.kernels.mul`), which on the
  gap instances is always.

Both keep the relaxation order, so winners, tie-breaks and ``explored``
do not depend on the view.  A value leaves with its reference type:
each ``qon-size`` cache entry by its own mask
(:meth:`~repro.perf.kernels.CompiledQON.retype`), the final cost by the
parent mask of the full set and, on the integer view, by the probes of
the returned sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.joinopt.instance import QONInstance
from repro.core.results import PlanResult
from repro.perf.kernels import compile_qon
from repro.runtime.costcache import active_cache
from repro.utils.validation import require
from repro.observability.tracer import traced


def _next_same_popcount(mask: int) -> int:
    """The next-larger integer with the same popcount (Gosper's hack)."""
    low = mask & -mask
    ripple = mask + low
    return ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


@traced("optimize.dp")
def dp_optimal(
    instance: QONInstance,
    allow_cartesian: bool = True,
    max_relations: int = 18,
) -> PlanResult:
    """Optimal join sequence by subset DP (exact, ``O(2^n n)`` steps)."""
    n = instance.num_relations
    require(n >= 1, "instance must have at least one relation")
    require(
        n <= max_relations,
        f"subset DP limited to {max_relations} relations "
        f"(instance has {n}); raise max_relations explicitly to override",
    )
    if n == 1:
        return PlanResult(
            cost=0, sequence=(0,), optimizer="dp", explored=1, is_exact=True
        )

    kernel = compile_qon(instance)
    view = kernel.dp_view()
    sizes, probes, extend = view.sizes, view.probes, view.extend
    full = kernel.full_mask
    cache = active_cache()

    def cached_size(key: int, base: object, mask: int, j: int) -> object:
        # Entries hold the reference type, exactly what bnb and
        # exhaustive store; a hit is brought into the view as it is
        # read, a miss keeps the value the view computed.
        assert cache is not None
        computed: List[object] = []

        def compute() -> object:
            size = extend(base, mask, j)
            computed.append(size)
            return view.size_exit(size, key)

        entry = cache.get_or_compute(instance, "qon-size", key, compute)
        return computed[0] if computed else view.size_entry(entry)

    # Connectivity includes unit-selectivity edges, which the kernel's
    # ``adj`` leaves out, so it gets bitmasks of its own.
    edge_mask = [0] * n
    if not allow_cartesian:
        for u, v in instance.graph.edges:
            edge_mask[u] |= 1 << v
            edge_mask[v] |= 1 << u

    # Pre-sized mask-indexed tables: the hot loop indexes lists instead
    # of hashing dict keys.  ``best_cost[mask]`` is ``None`` until the
    # mask is reached; ``parent[mask]`` -> (previous mask, joined
    # relation); ``prefix_size[mask]`` = N(relations in mask) —
    # order-independent, so the entries are shared through the cost
    # cache (key: the bitmask) with branch-and-bound and the pruned
    # exhaustive search.
    table = 1 << n
    best_cost: List[Optional[object]] = [None] * table
    parent: List[Tuple[int, int]] = [(0, -1)] * table
    prefix_size: List[Optional[object]] = [None] * table

    for first in range(n):
        mask = 1 << first
        best_cost[mask] = 0
        prefix_size[mask] = sizes[first]
        parent[mask] = (0, first)

    explored = n
    # Probe rows of the previous popcount layer, by mask.  The row of a
    # singleton {k} is ``probes[k]`` itself; its diagonal placeholder,
    # like every entry at a member of the mask, is never read.
    previous_rows: Dict[int, Sequence[object]] = {}
    # Iterate source masks one popcount layer at a time; Gosper's hack
    # enumerates each layer in increasing numeric order.  Every
    # predecessor of a popcount-p mask sits in layer p-1 and is
    # numerically smaller than the mask, so relaxations into any given
    # mask arrive in exactly the order a full numeric scan produces —
    # winners, tie-breaks, ``explored`` and the reconstructed sequence
    # do not depend on the layering (pinned by the differential test).
    for layer in range(1, n):
        rows: Dict[int, Sequence[object]] = {}
        mask = (1 << layer) - 1
        while mask <= full:
            low = mask & -mask
            probe: Sequence[object] = probes[low.bit_length() - 1]
            if layer > 1:
                # ``min`` over ascending members keeps the lowest-index
                # minimum, so the lowest member wins ties: equal values
                # of different types (5, Fraction(5)) must not swap.
                probe = [
                    own if not (rest < own) else rest
                    for own, rest in zip(probe, previous_rows[mask ^ low])
                ]
            rows[mask] = probe
            base_cost = best_cost[mask]
            if base_cost is None:
                mask = _next_same_popcount(mask)
                continue
            base_size = prefix_size[mask]
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                if not allow_cartesian and not edge_mask[j] & mask:
                    continue
                new_cost = base_cost + base_size * probe[j]
                new_mask = mask | bit
                explored += 1
                current = best_cost[new_mask]
                if current is None or new_cost < current:
                    best_cost[new_mask] = new_cost
                    parent[new_mask] = (mask, j)
                    if prefix_size[new_mask] is None:
                        if cache is not None:
                            prefix_size[new_mask] = cached_size(
                                new_mask, base_size, mask, j
                            )
                        else:
                            prefix_size[new_mask] = extend(
                                base_size, mask, j
                            )
            mask = _next_same_popcount(mask)
        previous_rows = rows

    if best_cost[full] is None:
        # Disconnected graph with cartesian products forbidden.
        require(
            allow_cartesian is False,
            "internal error: DP failed to reach the full relation set",
        )
        return dp_optimal(
            instance, allow_cartesian=True, max_relations=max_relations
        )

    # Reconstruct the sequence.
    sequence: List[int] = []
    mask = full
    while mask:
        mask, joined = parent[mask]
        sequence.append(joined)
    sequence.reverse()

    return PlanResult(
        cost=view.cost_exit(best_cost[full], sequence),
        sequence=tuple(sequence),
        optimizer="dp",
        explored=explored,
        is_exact=True,
    )
