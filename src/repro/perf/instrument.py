"""Exact-arithmetic operation counting for the perf tests and probes.

Wall time depends on the machine, but the number of big-int
multiplications per neighbor evaluation does not.
:class:`CountingValue` wraps an exact ``int``/``Fraction`` and forwards
arithmetic to it while ticking an :class:`OpCounter`; wrapping every
statistic of an instance (:func:`counting_qon_instance`) makes both the
reference cost path and the kernel path count themselves, with values
that stay exactly equal to the unwrapped run.  The pinned op-count
tests in ``tests/test_perf_differential.py`` and the
``perf.qon_mults_per_eval`` probe of ``bench/`` count this way.

The proxies set ``exact_proxy = True`` so the compiled kernels treat
them as exact arithmetic (see ``repro.perf.kernels.is_exact_value``)
and take the same incremental shortcuts they would for the raw values.
Only tests and benchmark probes build these; the hot paths never pay
for the indirection.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple, Union

from repro.joinopt.instance import QONInstance

ExactValue = Union[int, Fraction]


class OpCounter:
    """Mutable tally of exact arithmetic operations."""

    __slots__ = ("mults", "divs", "adds")

    def __init__(self) -> None:
        self.mults = 0
        self.divs = 0
        self.adds = 0

    def reset(self) -> None:
        self.mults = 0
        self.divs = 0
        self.adds = 0

    @property
    def multiplicative(self) -> int:
        """Multiplications plus exact divisions (the big-int work)."""
        return self.mults + self.divs

    def snapshot(self) -> Dict[str, int]:
        return {"mults": self.mults, "divs": self.divs, "adds": self.adds}

    def __repr__(self) -> str:
        return (
            f"OpCounter(mults={self.mults}, divs={self.divs}, "
            f"adds={self.adds})"
        )


def _unwrap(value: object) -> object:
    if isinstance(value, CountingValue):
        return value.value
    return value


def _exact_quotient(numerator: ExactValue, denominator: ExactValue) -> ExactValue:
    """Exact division, preserving ``int`` when the quotient is integral."""
    if isinstance(numerator, int) and isinstance(denominator, int):
        quotient, remainder = divmod(numerator, denominator)
        if remainder == 0:
            return quotient
        return Fraction(numerator, denominator)
    result = Fraction(numerator) / Fraction(denominator)
    return result


class CountingValue:
    """An exact number that counts the operations applied to it.

    ``repr`` delegates to the wrapped value so instance fingerprints
    (which hash ``repr`` of the statistics) are unchanged by wrapping.
    """

    __slots__ = ("value", "counter")

    #: Marks the proxy as exact arithmetic for the compiled kernels.
    exact_proxy = True

    def __init__(self, value: ExactValue, counter: OpCounter) -> None:
        if isinstance(value, CountingValue):
            value = value.value
        self.value = value
        self.counter = counter

    # -- arithmetic (counted) ----------------------------------------
    def __mul__(self, other: object) -> "CountingValue":
        self.counter.mults += 1
        return CountingValue(self.value * _unwrap(other), self.counter)

    def __rmul__(self, other: object) -> "CountingValue":
        self.counter.mults += 1
        return CountingValue(_unwrap(other) * self.value, self.counter)

    def __truediv__(self, other: object) -> "CountingValue":
        self.counter.divs += 1
        return CountingValue(
            _exact_quotient(self.value, _unwrap(other)), self.counter
        )

    def __rtruediv__(self, other: object) -> "CountingValue":
        self.counter.divs += 1
        return CountingValue(
            _exact_quotient(_unwrap(other), self.value), self.counter
        )

    def __floordiv__(self, other: object) -> "CountingValue":
        self.counter.divs += 1
        return CountingValue(self.value // _unwrap(other), self.counter)

    def __add__(self, other: object) -> "CountingValue":
        self.counter.adds += 1
        return CountingValue(self.value + _unwrap(other), self.counter)

    def __radd__(self, other: object) -> "CountingValue":
        self.counter.adds += 1
        return CountingValue(_unwrap(other) + self.value, self.counter)

    def __sub__(self, other: object) -> "CountingValue":
        self.counter.adds += 1
        return CountingValue(self.value - _unwrap(other), self.counter)

    def __rsub__(self, other: object) -> "CountingValue":
        self.counter.adds += 1
        return CountingValue(_unwrap(other) - self.value, self.counter)

    # -- comparisons (free, like the reference path's) ---------------
    def __eq__(self, other: object) -> bool:
        return self.value == _unwrap(other)

    def __ne__(self, other: object) -> bool:
        return self.value != _unwrap(other)

    def __lt__(self, other: object) -> bool:
        return self.value < _unwrap(other)

    def __le__(self, other: object) -> bool:
        return self.value <= _unwrap(other)

    def __gt__(self, other: object) -> bool:
        return self.value > _unwrap(other)

    def __ge__(self, other: object) -> bool:
        return self.value >= _unwrap(other)

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __int__(self) -> int:
        return int(self.value)

    def __repr__(self) -> str:
        return repr(self.value)


def counting_qon_instance(
    instance: QONInstance, counter: OpCounter
) -> QONInstance:
    """``instance`` with every statistic wrapped in a counting proxy.

    The wrapped instance evaluates to exactly the same (unwrapped-equal)
    costs; the counter is reset after construction so only the cost
    evaluations performed afterwards are tallied.
    """
    n = instance.num_relations
    graph = instance.graph
    sizes = [CountingValue(instance.size(r), counter) for r in range(n)]
    selectivities: Dict[Tuple[int, int], CountingValue] = {
        edge: CountingValue(instance.selectivity(*edge), counter)
        for edge in graph.edges
    }
    access_costs: Dict[Tuple[int, int], CountingValue] = {}
    for u, v in graph.edges:
        access_costs[(u, v)] = CountingValue(
            instance.access_cost(u, v), counter
        )
        access_costs[(v, u)] = CountingValue(
            instance.access_cost(v, u), counter
        )
    wrapped = QONInstance(
        graph, sizes, selectivities, access_costs, validate=False
    )
    counter.reset()
    return wrapped
