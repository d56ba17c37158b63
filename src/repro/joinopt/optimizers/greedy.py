"""Greedy join-ordering heuristics.

Two classic polynomial-time greedies:

* :func:`greedy_min_cost` — at each step append the relation whose
  join is cheapest right now (minimum ``H`` increment);
* :func:`greedy_min_size` — at each step append the relation that
  minimizes the resulting intermediate size ``N`` (GOO-style).

Both optimizers try several starting relations (all of them up to
``max_full_starts`` relations, a capped sample beyond that), price
each finished rollout with ``C(Z)`` and keep the cheapest sequence.

A rollout reads the instance only through its compiled kernel
(:func:`~repro.perf.kernels.compile_qon`), plus one edge bitmask per
relation for connectivity (unit-selectivity edges connect too, and the
kernel's ``adj`` leaves them out).  It keeps a key per remaining
candidate and updates the keys as relations join, so one rollout is
``O(n^2)``.  The kernel's statistics pick the arithmetic; no setting
does:

* **Ranking by view numbers.** When every statistic is a plain
  ``int`` or ``Fraction``
  (:meth:`~repro.perf.kernels.CompiledQON.plain`), every size and
  non-unit selectivity is positive and ``mixed_ties`` is False, a
  rollout carries no prefix size.  The reference key of candidate
  ``c`` after prefix ``X`` is ``N(X) * min_{k in X} w_kc`` (cost) or
  ``N(X) * t_c * prod_{k in X} s_kc`` (size).  Every candidate of a
  step shares the positive factor ``N(X)``, so comparing the keys
  without it keeps the winner and which of two equal keys comes
  first.  Greedy-cost compares the running probe minimum and
  greedy-size ``t_c * prod s_kc``, both as the kernel's DP view
  (:meth:`~repro.perf.kernels.CompiledQON.dp_view`) carries them: on
  the integer view, ``int``s scaled by ``W`` and by ``D_N``.  A
  finished rollout is priced by one walk over the view (sizes through
  ``extend``, each step's probe the least entry of its column over the
  prefix, an exact sum) and leaves through ``cost_exit`` as one
  rational with its reference type.
* **The reference arithmetic.** On any other kernel (``LogNumber``
  values, counting proxies, access columns with mixed-type ties,
  non-positive statistics from ``validate=False``) a rollout keeps the
  reference keys and operation order, read from the kernel's tables:
  the running prefix size and ``N(X) * ...`` per candidate.  It is
  priced as :func:`~repro.joinopt.cost.total_cost` prices it.

Either way a finished rollout costs one ``qon-cost`` lookup in the
active cost cache, keyed by the sequence, as ``total_cost`` makes it.

These are exactly the kind of algorithms whose competitive ratio
Theorem 9 lower-bounds; the benchmark harness drives them across the
gap families.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.results import PlanResult
from repro.joinopt.cost import _total_cost_uncached
from repro.joinopt.instance import QONInstance
from repro.observability.tracer import count as trace_count, traced
from repro.perf.kernels import (
    CompiledQON,
    DemotedView,
    IntegerView,
    compile_qon,
    iter_bits,
)
from repro.runtime.costcache import active_cache
from repro.utils.validation import require


class _ViewRollout:
    """Rollout arithmetic that ranks by view numbers (module docs): one
    view number per candidate, and the pricing walk."""

    __slots__ = ("view", "columns", "keys")

    def __init__(self, view: Union[DemotedView, IntegerView]) -> None:
        self.view = view
        # columns[j][k] = probes[k][j]: a step's probe is the minimum
        # of the incoming relation's column over the prefix.
        self.columns = tuple(zip(*view.probes))
        self.keys: List[object] = []

    def pick(self, candidates: Sequence[int]) -> int:
        """The first candidate with the least key."""
        return min(candidates, key=self.keys.__getitem__)

    def price(self, sequence: Sequence[int]) -> object:
        """``C(sequence)`` with its reference type."""
        view = self.view
        columns, extend = self.columns, view.extend
        first = sequence[0]
        size = view.sizes[first]
        prefix = [first]
        mask = 1 << first
        total: object = 0
        for vertex in sequence[1:]:
            total += size * min(map(columns[vertex].__getitem__, prefix))
            size = extend(size, mask, vertex)
            mask |= 1 << vertex
            prefix.append(vertex)
        return view.cost_exit(total, sequence)


class _ProbeRollout(_ViewRollout):
    """greedy-cost: a candidate's key is its running probe minimum."""

    __slots__ = ()

    def start(self, first: int) -> None:
        self.keys = list(self.view.probes[first])

    def join(self, vertex: int, remaining: Sequence[int]) -> None:
        keys = self.keys
        row = self.view.probes[vertex]
        for candidate in remaining:
            if row[candidate] < keys[candidate]:
                keys[candidate] = row[candidate]


class _SizeRollout(_ViewRollout):
    """greedy-size: a candidate's key is ``t_c * prod_{k in X} s_kc``."""

    __slots__ = ()

    def start(self, first: int) -> None:
        self.keys = list(self.view.sizes)
        self.join(first, range(len(self.keys)))

    def join(self, vertex: int, remaining: Sequence[int]) -> None:
        keys = self.keys
        select = self.view.select
        neighbors = self.view.adj[vertex]
        for candidate in remaining:
            if neighbors >> candidate & 1:
                keys[candidate] = select(keys[candidate], vertex, candidate)


class _ReferenceRollout:
    """The reference rollout arithmetic (module docs): the reference
    keys and operation order, on the kernel's tables."""

    __slots__ = (
        "kernel", "prefer_size", "probe", "selprod", "prefix_size",
    )

    def __init__(self, kernel: CompiledQON, prefer_size: bool) -> None:
        self.kernel = kernel
        self.prefer_size = prefer_size
        self.probe: List[object] = []
        self.selprod: List[object] = []
        self.prefix_size: object = None

    def start(self, first: int) -> None:
        kernel = self.kernel
        self.probe = list(kernel.access[first])
        self.selprod = list(kernel.sel[first])
        self.prefix_size = kernel.sizes[first]

    def pick(self, candidates: Sequence[int]) -> int:
        """The first candidate with the least ``N(X) * ...`` key; the
        winner's ``N(X + c)`` becomes the prefix size."""
        sizes = self.kernel.sizes
        probe, selprod = self.probe, self.selprod
        prefix_size = self.prefix_size
        best = candidates[0]
        best_key = best_size = None
        for candidate in candidates:
            new_size = prefix_size * sizes[candidate]
            selectivity = selprod[candidate]
            if selectivity != 1:
                new_size = new_size * selectivity
            key = (
                new_size if self.prefer_size
                else prefix_size * probe[candidate]
            )
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
                best_size = new_size
        self.prefix_size = best_size
        return best

    def join(self, vertex: int, remaining: Sequence[int]) -> None:
        access = self.kernel.access[vertex]
        sel = self.kernel.sel[vertex]
        probe, selprod = self.probe, self.selprod
        for candidate in remaining:
            cost = access[candidate]
            if cost < probe[candidate]:
                probe[candidate] = cost
            selectivity = sel[candidate]
            if selectivity != 1:
                selprod[candidate] = selprod[candidate] * selectivity

    def price(self, sequence: Sequence[int]) -> object:
        """``C(sequence)`` as :func:`~repro.joinopt.cost.total_cost`
        computes it on a miss."""
        return _total_cost_uncached(self.kernel.instance, sequence)


_Rollout = Union[_ProbeRollout, _SizeRollout, _ReferenceRollout]


def _rollout_for(kernel: CompiledQON, prefer_size: bool) -> _Rollout:
    """The arithmetic the kernel's statistics allow (module docs).  The
    positive sizes and selectivities come from instance validation; an
    instance built with ``validate=False`` may lack them."""
    sel = kernel.sel
    if (
        kernel.plain()
        and not kernel.mixed_ties
        and all(size > 0 for size in kernel.sizes)
        and all(
            sel[u][v] > 0
            for u, neighbors in enumerate(kernel.adj)
            for v in iter_bits(neighbors)
        )
    ):
        view = kernel.dp_view()
        return _SizeRollout(view) if prefer_size else _ProbeRollout(view)
    return _ReferenceRollout(kernel, prefer_size)


def _greedy_from(
    rollout: _Rollout,
    first: int,
    allow_cartesian: bool,
    edge_mask: Sequence[int],
) -> Tuple[Optional[Tuple[int, ...]], int]:
    """One greedy rollout starting from ``first``.

    Returns ``(sequence, examined)`` where ``examined`` counts the
    candidate partial plans evaluated; the sequence is None if stuck.
    """
    rollout.start(first)
    sequence = [first]
    prefix = 1 << first
    remaining = [v for v in range(len(edge_mask)) if v != first]
    examined = 0
    while remaining:
        candidates = remaining if allow_cartesian else [
            candidate for candidate in remaining
            if edge_mask[candidate] & prefix
        ]
        if not candidates:
            # No connected candidate: this rollout fails, and the
            # caller retries with products allowed if every one does.
            return None, examined
        examined += len(candidates)
        best = rollout.pick(candidates)
        sequence.append(best)
        remaining.remove(best)
        prefix |= 1 << best
        rollout.join(best, remaining)
    return tuple(sequence), examined


def _price(
    instance: QONInstance, rollout: _Rollout, sequence: Tuple[int, ...]
) -> object:
    """``C(sequence)`` through the active cost cache, with the lookup
    and counters of :func:`~repro.joinopt.cost.total_cost`."""
    cache = active_cache()
    if cache is None:
        trace_count("cost_evaluations_uncached")
        return rollout.price(sequence)
    return cache.get_or_compute(
        instance, "qon-cost", sequence, lambda: rollout.price(sequence)
    )


def _starting_relations(instance: QONInstance, max_full_starts: int) -> List[int]:
    """All relations for small instances, a spread sample otherwise."""
    n = instance.num_relations
    if n <= max_full_starts:
        return list(range(n))
    # Prefer small relations (cheap outers) plus an even spread.
    by_size = sorted(range(n), key=lambda v: (instance.size(v), v))
    picks = by_size[: max_full_starts // 2]
    stride = max(1, n // (max_full_starts - len(picks)))
    picks.extend(range(0, n, stride))
    return sorted(set(picks))[:max_full_starts]


def _greedy(
    instance: QONInstance,
    prefer_size: bool,
    allow_cartesian: bool,
    name: str,
    max_full_starts: int,
) -> PlanResult:
    n = instance.num_relations
    require(n >= 1, "instance must have at least one relation")
    if n == 1:
        return PlanResult(cost=0, sequence=(0,), optimizer=name, explored=1)
    rollout = _rollout_for(compile_qon(instance), prefer_size)
    edge_mask = [0] * n
    for u, v in instance.graph.edges:
        edge_mask[u] |= 1 << v
        edge_mask[v] |= 1 << u
    best_cost = None
    best_sequence: Optional[Tuple[int, ...]] = None
    # explored counts candidate partial plans examined across rollouts,
    # so the work metric reflects the O(n^2)-per-rollout enumeration.
    explored = 0
    for first in _starting_relations(instance, max_full_starts):
        sequence, examined = _greedy_from(
            rollout, first, allow_cartesian, edge_mask
        )
        explored += examined
        if sequence is None:
            continue
        explored += 1
        cost = _price(instance, rollout, sequence)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_sequence = sequence
    if best_sequence is None:
        # No cartesian-free sequence from any start (disconnected graph).
        return _greedy(instance, prefer_size, True, name, max_full_starts)
    return PlanResult(
        cost=best_cost,
        sequence=best_sequence,
        optimizer=name,
        explored=explored,
    )


@traced("optimize.greedy_min_cost")
def greedy_min_cost(
    instance: QONInstance,
    allow_cartesian: bool = False,
    max_full_starts: int = 24,
) -> PlanResult:
    """Greedy by cheapest next join, best over the tried starts."""
    return _greedy(
        instance, False, allow_cartesian, "greedy-min-cost", max_full_starts
    )


@traced("optimize.greedy_min_size")
def greedy_min_size(
    instance: QONInstance,
    allow_cartesian: bool = False,
    max_full_starts: int = 24,
) -> PlanResult:
    """Greedy by smallest next intermediate, best over the tried starts."""
    return _greedy(
        instance, True, allow_cartesian, "greedy-min-size", max_full_starts
    )
