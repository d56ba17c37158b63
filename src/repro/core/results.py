"""The unified plan-search result type shared by all three substrates.

Every optimizer — QO_N, QO_H and SQO-CP — returns :class:`PlanResult`.

Field mapping:

* ``cost`` — the plan's cost (``int``/``Fraction`` in exact mode,
  ``LogNumber`` in log mode);
* ``sequence`` — the relation order;
* ``plan`` — the richer plan object when the substrate has one
  (``PipelineDecomposition`` for QO_H, ``StarPlan`` for SQO-CP,
  None for QO_N where the sequence *is* the plan);
* ``explored`` — (partial) plans examined, the work metric;
* ``is_exact`` — whether optimality is guaranteed;
* ``trace`` — optional reference into a ``repro.trace/1`` file (the
  span name or task label that produced this result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one plan-search run, for any substrate."""

    cost: object
    sequence: Tuple[int, ...]
    optimizer: str = ""
    explored: int = 0
    is_exact: bool = False
    plan: object = None
    trace: Optional[str] = field(default=None, compare=False)

    @property
    def decomposition(self) -> object:
        """The QO_H pipeline decomposition, when this result has one."""
        if self.plan is not None and hasattr(self.plan, "pipelines"):
            return self.plan
        return None

    def ratio_to(self, optimal_cost: object) -> float:
        """Competitive ratio against a known optimal cost.

        Computed in log2 domain so astronomically large costs work:
        returns ``2 ** (log2(cost) - log2(optimal))`` as a float, or
        ``inf`` when above float range.  Raises :class:`ValueError`
        when ``cost < optimal_cost`` — a "better than optimal" plan
        means the caller's optimum is wrong, and the old behaviour of
        silently underflowing ``2.0 ** gap_log2`` to 0.0 masked exactly
        that bug.
        """
        from repro.utils.lognum import log2_of

        if self.cost < optimal_cost:
            raise ValueError(
                f"plan cost {self.cost!r} is below the claimed optimum "
                f"{optimal_cost!r}; the reference cost is not optimal"
            )
        gap_log2 = log2_of(self.cost) - log2_of(optimal_cost)
        if gap_log2 > 1023:
            return float("inf")
        # cost >= optimal, so the true ratio is >= 1; clamp the float
        # noise log2_of can introduce for near-equal huge values.
        return max(1.0, 2.0 ** gap_log2)


__all__ = ["PlanResult"]
