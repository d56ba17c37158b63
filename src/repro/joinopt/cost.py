"""The QO_N cost model (paper Section 2.1.2).

For a join sequence ``Z = (z_1 .. z_n)`` (a permutation of relations):

* ``N(X)`` — estimated tuple count of the prefix join ``X``:
  ``N(empty) = 1``, ``N(X v_j) = N(X) * t_j * prod_{v_i in X} s_ij``;
* ``H_i(Z) = N(X) * min_{k in X} w[k][z_{i+1}]`` — nested-loops cost
  of the i-th join (see the index-orientation note in
  :mod:`repro.joinopt.instance`);
* ``C(Z) = sum_{i=1}^{n-1} H_i(Z)``.

Also computes the proof-side statistics: ``B_i`` (back-edges of the
vertex in position i) and ``D_i`` (edges within the first i vertices),
used by Lemmas 5–8.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.joinopt.instance import QONInstance
from repro.observability.tracer import count as trace_count
from repro.runtime.costcache import active_cache
from repro.utils.validation import require

JoinSequence = Sequence[int]


def check_sequence(instance: QONInstance, sequence: JoinSequence) -> None:
    """Require ``sequence`` to be a permutation of the relations."""
    n = instance.num_relations
    require(
        len(sequence) == n and sorted(sequence) == list(range(n)),
        f"join sequence must be a permutation of range({n})",
    )


def intermediate_sizes(instance: QONInstance, sequence: JoinSequence) -> List:
    """``[N_1 .. N_{n-1}]``: N_i is the output size of join J_i.

    ``N_i`` is ``N`` of the first ``i + 1`` relations of the sequence.
    """
    check_sequence(instance, sequence)
    sizes: List = []
    current = instance.size(sequence[0])
    for position in range(1, len(sequence)):
        incoming = sequence[position]
        current = current * instance.size(incoming)
        for earlier in sequence[:position]:
            selectivity = instance.selectivity(earlier, incoming)
            if selectivity != 1:
                current = current * selectivity
        sizes.append(current)
    return sizes


def join_costs(instance: QONInstance, sequence: JoinSequence) -> List:
    """``[H_1 .. H_{n-1}]``: per-join nested-loops costs."""
    check_sequence(instance, sequence)
    costs: List = []
    prefix_size = instance.size(sequence[0])
    for position in range(1, len(sequence)):
        incoming = sequence[position]
        probe = min(
            instance.access_cost(earlier, incoming)
            for earlier in sequence[:position]
        )
        costs.append(prefix_size * probe)
        prefix_size = prefix_size * instance.size(incoming)
        for earlier in sequence[:position]:
            selectivity = instance.selectivity(earlier, incoming)
            if selectivity != 1:
                prefix_size = prefix_size * selectivity
    return costs


def _total_cost_uncached(
    instance: QONInstance, sequence: JoinSequence
) -> object:
    costs = join_costs(instance, sequence)
    total = costs[0]
    for cost in costs[1:]:
        total = total + cost
    return total


def total_cost(instance: QONInstance, sequence: JoinSequence) -> object:
    """``C(Z)``, the sum of the join costs.

    Consults the active :class:`~repro.runtime.costcache.CostCache`
    (if any) keyed on the full sequence — the metaheuristics revisit
    the same permutations constantly, and a cached value is returned
    exactly as the miss path computed it, so results are bit-identical
    with and without the cache.
    """
    cache = active_cache()
    if cache is None:
        # Counted under a distinct key: sweep runs always have a cache
        # (pass-through at minimum), so "cost_evaluations" stays exactly
        # the cache-miss count the metrics layer reports.
        trace_count("cost_evaluations_uncached")
        return _total_cost_uncached(instance, sequence)
    key = tuple(sequence)
    return cache.get_or_compute(
        instance, "qon-cost", key,
        lambda: _total_cost_uncached(instance, key),
    )


def back_edge_counts(instance: QONInstance, sequence: JoinSequence) -> List[int]:
    """``[B_1 .. B_n]``: B_i = query-graph edges from the vertex in
    position i back to positions before i (B_1 = 0)."""
    check_sequence(instance, sequence)
    graph = instance.graph
    counts: List[int] = []
    for position, vertex in enumerate(sequence):
        back = sum(
            1 for earlier in sequence[:position] if graph.has_edge(earlier, vertex)
        )
        counts.append(back)
    return counts


def prefix_edge_counts(instance: QONInstance, sequence: JoinSequence) -> List[int]:
    """``[D_1 .. D_n]``: D_i = edges within the first i vertices."""
    back = back_edge_counts(instance, sequence)
    totals: List[int] = []
    running = 0
    for count in back:
        running += count
        totals.append(running)
    return totals


def has_cartesian_product(instance: QONInstance, sequence: JoinSequence) -> bool:
    """True if some join (beyond the first relation) has no predicate
    connecting it to the prefix (i.e. B_i = 0 for some i >= 2)."""
    back = back_edge_counts(instance, sequence)
    return any(count == 0 for count in back[1:])
