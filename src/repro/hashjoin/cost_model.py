"""The hybrid hash-join I/O cost abstraction (paper Section 2.2.2).

``h(m, b_R, b_S) = (b_R + b_S) * g(m, b_S) + b_S`` for
``m >= hjmin(b_S)``, where:

* ``hjmin(b) = ceil(b ** psi)`` for a constant ``0 < psi < 1`` — the
  minimum memory for the join to be feasible (paper: Theta(b^psi));
* ``g`` is continuous, linear and decreasing in ``m`` on
  ``[hjmin(b), b]``, zero for ``m >= b`` and Theta(1) at
  ``m = hjmin(b)``.

We instantiate ``g(m, b) = g_scale * (b - m) / (b - hjmin(b))``
(clamped at zero), so ``h(hjmin(b), b_R, b_S) = Theta(b_R + b_S)``
exactly as the paper requires.  All arithmetic is exact: ``g`` and
``h`` are each built as one ``Fraction`` over an integer denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro.utils.validation import require

ExactReal = Union[int, Fraction]


def ceil_root(value: int, degree: int) -> int:
    """``ceil(value ** (1/degree))`` for non-negative big ints."""
    require(value >= 0, "ceil_root needs a non-negative value")
    require(degree >= 1, "degree must be at least 1")
    if value in (0, 1) or degree == 1:
        return value
    # Newton-style bisection on integers.
    low, high = 1, 1
    while high**degree < value:
        high <<= 1
    while low < high:
        mid = (low + high) // 2
        if mid**degree >= value:
            high = mid
        else:
            low = mid + 1
    return low


@dataclass(frozen=True)
class HashJoinCostModel:
    """Concrete instantiation of the paper's abstract cost functions.

    Attributes:
        psi: exponent of the minimum-memory law, ``hjmin(b) = ceil(b**psi)``.
            Stored as a ``Fraction`` with small denominator so integer
            roots stay exact.
        g_scale: the Theta(1) value of ``g`` at minimum memory.
    """

    psi: Fraction = Fraction(1, 2)
    g_scale: int = 1

    def __post_init__(self) -> None:
        require(0 < self.psi < 1, "psi must lie strictly in (0, 1)")
        require(self.g_scale > 0, "g_scale must be positive")

    def hjmin(self, inner_pages: int) -> int:
        """Minimum memory to hash-join against an inner of ``b`` pages."""
        require(inner_pages >= 0, "inner_pages must be non-negative")
        powered = inner_pages ** self.psi.numerator
        return ceil_root(powered, self.psi.denominator)

    def g(self, memory: ExactReal, inner_pages: int) -> Fraction:
        """The partitioning-overhead factor; linear decreasing in memory."""
        numerator, denominator = self._g_ratio(memory, inner_pages, None)
        return Fraction(numerator, denominator)

    def h(
        self,
        memory: ExactReal,
        outer_pages: ExactReal,
        inner_pages: int,
        floor: Optional[int] = None,
    ) -> Fraction:
        """I/O cost of one hybrid hash join (outer streams, inner on disk).

        ``(outer_pages + inner_pages) * g + inner_pages``.  ``floor`` is
        ``hjmin(inner_pages)`` when the caller already has it; the value
        is the same either way.
        """
        numerator, denominator = self._g_ratio(memory, inner_pages, floor)
        outer_den = outer_pages.denominator
        scan = inner_pages * outer_den
        return Fraction(
            (outer_pages.numerator + scan) * numerator + scan * denominator,
            outer_den * denominator,
        )

    def _g_ratio(
        self, memory: ExactReal, inner_pages: int, floor: Optional[int]
    ) -> Tuple[int, int]:
        """``g`` as an unreduced ratio ``(numerator, denominator)``."""
        if floor is None:
            floor = self.hjmin(inner_pages)
        require(memory >= floor, "memory below hjmin: join is infeasible")
        span = inner_pages - floor
        if memory >= inner_pages or span <= 0:
            return 0, 1
        return (
            self.g_scale
            * (inner_pages * memory.denominator - memory.numerator),
            memory.denominator * span,
        )

    def is_feasible(self, memory: ExactReal, inner_pages: int) -> bool:
        """True when ``memory`` satisfies the ``hjmin`` floor."""
        return memory >= self.hjmin(inner_pages)
