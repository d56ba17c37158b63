"""Incremental QO_H plan evaluation: shared prefix/fragment state.

The QO_H search layers (beam search, annealing, exhaustive sweeps)
re-run the decomposition DP on sequences that share long prefixes, and
the reference ``best_decomposition`` recomputes every intermediate size
and every fragment cost from scratch each time.  QO_H statistics are
all ``int``/``Fraction``, and ``Fraction`` arithmetic is exact, so both
quantities are functions of *sets*, not orders of computation:

* ``N(X)`` depends only on the relation set ``X`` — memoized per
  prefix bitmask, so beam candidates extending the same parent pay one
  multiplication per extension instead of a prefix scan;
* a fragment ``P(i, k)``'s cost depends only on the set before the
  fragment and the ordered inner relations — memoized on
  ``(prefix_mask, inners)``, so neighboring sequences (and the DP's
  own transitions) share allocation-LP solves.

:class:`QOHEvaluator.best_plan` routes through the active
:class:`~repro.runtime.costcache.CostCache` under the same
``("qoh-plan", sequence)`` key as
``repro.hashjoin.search.cached_best_decomposition``, and reproduces the
reference DP loop — transition order, strict-``<`` tie-breaking,
``explored`` counting, breakpoint reconstruction — exactly, so results
are bit-identical (the differential suite enforces it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.results import PlanResult
from repro.perf.kernels import CompiledQOH, compile_qoh
from repro.runtime.costcache import active_cache
from repro.utils.validation import require

if TYPE_CHECKING:  # annotation-only (hashjoin's search layers import this)
    from repro.hashjoin.instance import QOHInstance

FragmentKey = Tuple[int, Tuple[int, ...]]


class QOHEvaluator:
    """Cache-integrated QO_H sequence costing with fragment reuse."""

    def __init__(self, instance: Union[QOHInstance, CompiledQOH]) -> None:
        self.kernel = (
            instance
            if isinstance(instance, CompiledQOH)
            else compile_qoh(instance)
        )
        self._sizes_by_mask: Dict[int, Fraction] = {}
        self._fragments: Dict[FragmentKey, Optional[Fraction]] = {}
        self.fragments_computed = 0
        self.fragments_reused = 0
        self.plans_evaluated = 0

    # -- prefix sizes (set-keyed) ------------------------------------
    def mask_size(self, mask: int) -> Fraction:
        """``N(X)`` for the relation set ``X`` given as a bitmask.

        ``Fraction`` products are exact, so the set-keyed value equals
        the reference prefix-order product bit for bit.
        """
        require(mask != 0, "mask must name at least one relation")
        memo = self._sizes_by_mask
        value = memo.get(mask)
        if value is not None:
            return value
        low = mask & -mask
        vertex = low.bit_length() - 1
        rest = mask ^ low
        if rest == 0:
            value = Fraction(self.kernel.sizes[vertex])
        else:
            value = self.kernel.extend_size(
                self.mask_size(rest), rest, vertex
            )
        memo[mask] = value
        return value

    def extend(self, mask: int, vertex: int) -> Tuple[int, Fraction]:
        """``(new_mask, N(X v))`` for appending ``vertex`` to set ``mask``."""
        new_mask = mask | (1 << vertex)
        return new_mask, self.mask_size(new_mask)

    # -- plans ---------------------------------------------------------
    def best_plan(self, sequence: Sequence[int]) -> Optional[PlanResult]:
        """``best_decomposition`` through the active cost cache.

        Mirrors ``cached_best_decomposition``: same cache kind and key,
        so sweep metrics and cache contents are identical whichever
        path computed an entry.
        """
        cache = active_cache()
        key = tuple(sequence)
        if cache is None:
            return self._best_plan_uncached(key)
        return cache.get_or_compute(
            self.kernel.instance, "qoh-plan", key,
            lambda: self._best_plan_uncached(key),
        )

    def _best_plan_uncached(
        self, sequence: Tuple[int, ...]
    ) -> Optional[PlanResult]:
        kernel = self.kernel
        n = kernel.n
        require(n >= 2, "need at least two relations to join")
        kernel.check_permutation(sequence)
        self.plans_evaluated += 1
        if not kernel.is_feasible(sequence):
            return None
        num_joins = n - 1
        intermediates: List[Fraction] = []
        masks: List[int] = []
        mask = 0
        for vertex in sequence:
            mask |= 1 << vertex
            masks.append(mask)
            intermediates.append(self.mask_size(mask))

        # The reference DP, with fragments costed lazily (only the
        # transitions the reference counts under ``explored`` reach a
        # fragment) and memoized across sequences.
        dp: List[Optional[Fraction]] = [None] * (num_joins + 1)
        choice: List[int] = [0] * (num_joins + 1)
        dp[0] = Fraction(0)
        explored = 0
        for k in range(1, num_joins + 1):
            for i in range(1, k + 1):
                if dp[i - 1] is None:
                    continue
                cost = self._fragment_cost(sequence, intermediates, masks, i, k)
                explored += 1
                if cost is None:
                    continue
                candidate = dp[i - 1] + cost
                if dp[k] is None or candidate < dp[k]:
                    dp[k] = candidate
                    choice[k] = i
        if dp[num_joins] is None:
            return None
        breaks: List[int] = []
        k = num_joins
        while k > 0:
            i = choice[k]
            if i > 1:
                breaks.append(i - 1)
            k = i - 1
        # Deferred import: hashjoin's search layers import this module.
        from repro.hashjoin.pipeline import PipelineDecomposition

        decomposition = PipelineDecomposition.from_breaks(num_joins, breaks)
        return PlanResult(
            cost=dp[num_joins],
            sequence=sequence,
            optimizer="qoh-dp",
            explored=explored,
            plan=decomposition,
        )

    def _fragment_cost(
        self,
        sequence: Tuple[int, ...],
        intermediates: List[Fraction],
        masks: List[int],
        i: int,
        k: int,
    ) -> Optional[Fraction]:
        """Fragment ``P(i, k)``'s cost, memoized on its determining key.

        The cost (read outer input, allocation-LP join costs, write
        output) is a function of the relation *set* before the fragment
        and the ordered inner relations — nothing else.
        """
        inners = sequence[i:k + 1]
        key = (masks[i - 1], inners)
        memo = self._fragments
        if key in memo:
            self.fragments_reused += 1
            return memo[key]
        self.fragments_computed += 1
        kernel = self.kernel
        outer_sizes = [intermediates[j - 1] for j in range(i, k + 1)]
        inner_sizes = [kernel.sizes[vertex] for vertex in inners]
        floors = [kernel.hjmin[vertex] for vertex in inners]
        # Deferred import: hashjoin's search layers import this module.
        from repro.hashjoin.allocation import allocate_memory

        allocation = allocate_memory(
            kernel.instance.model, outer_sizes, inner_sizes, kernel.memory,
            floors=floors,
        )
        value: Optional[Fraction]
        if allocation is None:
            value = None
        else:
            value = intermediates[i - 1] + allocation.total_join_cost + intermediates[k]
        memo[key] = value
        return value
