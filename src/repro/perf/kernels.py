"""Compiled per-instance kernels for the hot cost-evaluation loops.

Every optimizer spends its time evaluating ``C(Z)`` (QO_N) or the
decomposition DP (QO_H) over and over, and the reference implementations
pay per *evaluation* for work that only depends on the *instance*:
``instance.selectivity``/``access_cost`` dict lookups behind
``graph.has_edge`` checks, and the ``O(n log n)`` permutation sort in
``check_sequence``.  :func:`compile_qon` / :func:`compile_qoh` hoist all
of it into dense tuples and per-vertex adjacency bitmasks, computed once
per instance:

* ``sizes[v]`` — relation size ``t_v``;
* ``sel[u][v]`` — selectivity ``s_uv`` (``1`` off edges and on the
  diagonal), exactly the values the instance accessors return;
* ``access[u][v]`` — probe cost ``w_uv`` into ``R_v`` (``t_v`` off
  edges; the diagonal is a placeholder and never consulted);
* ``adj[v]`` — bitmask of the vertices ``u`` with ``s_uv != 1``: the
  only selectivity factors the reference cost functions multiply in
  (they skip unit selectivities), so prefix-size products iterate set
  bits instead of scanning the whole prefix through ``has_edge``.

The kernel tables hold the instance's own values: they never round,
convert or reorder them.  ``exact`` records whether every statistic is
``int`` / ``Fraction`` (or an exact counting proxy); the incremental
evaluator only takes algebraic shortcuts when it is True.

Exact integers.  The two QO_N consumers (the subset DP and the prefix
evaluator) carry prefix sizes *demoted*: an integral value is a plain
``int`` instead of a ``Fraction``, because ``int`` arithmetic is ~30x
cheaper and, on the paper's gap instances, every prefix size is
integral.  :func:`demote` and :func:`mul` are the one definition of
that representation.  It is still exact: demotion changes a value's
type, never its value, so sums, products and comparisons come out
equal to the reference ones.  Only the *type* has to be restored where
a value leaves a consumer, and :meth:`CompiledQON.retype` does that
with one rule: a reference product is a ``Fraction`` exactly when a
``Fraction`` factor enters it.  On the prefix-size side that depends
only on the relation set ``X`` (a member's size, or a non-unit
selectivity between two members, is a ``Fraction``), recorded in the
``frac_sizes`` / ``frac_sel`` bitmasks; access costs are never demoted,
so a ``Fraction`` probe types its own term by plain arithmetic.
``LogNumber`` values and counting proxies are neither ``int`` nor
``Fraction``: every helper passes them through plain ``*``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

from repro.observability.metrics import inc as _metric_inc
from repro.utils.validation import require

if TYPE_CHECKING:  # instance classes only for annotations (import cycle)
    from repro.hashjoin.instance import QOHInstance
    from repro.joinopt.instance import QONInstance

_PERMUTATION_MESSAGE = "join sequence must be a permutation of range({n})"


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_exact_value(value: object) -> bool:
    """True for ``int``/``Fraction`` and exact counting proxies."""
    if isinstance(value, (int, Fraction)):
        return True
    return bool(getattr(value, "exact_proxy", False))


def demote(value: object) -> object:
    """``value`` as an ``int`` when it is an integral ``Fraction``."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def mul(size: object, factor: object) -> object:
    """``size * factor``, demoted (see module docs).

    An ``int`` times a ``Fraction`` divides with ``divmod`` and builds
    a ``Fraction`` only when the division leaves a remainder.  Any
    other operands (``LogNumber``, counting proxies) take plain ``*``.
    """
    if type(size) is int:
        if type(factor) is int:
            return size * factor
        if type(factor) is Fraction:
            numerator = size * factor.numerator
            denominator = factor.denominator
            quotient, remainder = divmod(numerator, denominator)
            if remainder:
                return Fraction(numerator, denominator)
            return quotient
    product = size * factor
    if type(product) is Fraction and product.denominator == 1:
        return product.numerator
    return product


class CompiledQON:
    """Dense read-only view of a :class:`QONInstance` (see module docs).

    Besides the tables: ``frac_sizes`` has the bit of every relation
    whose size is a ``Fraction``; ``frac_sel[v]`` the bits of the
    neighbors ``u`` in ``adj[v]`` with a ``Fraction`` selectivity
    ``s_uv``.  ``mixed_ties`` is True when some column of ``access``
    holds equal values of different types (``4`` and ``Fraction(4)``):
    the reference probe is the *first* minimum in prefix order, so
    reordering a prefix can then change a probe's type without changing
    its value, and the evaluator must not reuse probes across orders.
    """

    __slots__ = (
        "instance", "n", "full_mask", "sizes", "sel", "access", "adj",
        "exact", "frac_sizes", "frac_sel", "mixed_ties", "__weakref__",
    )

    def __init__(self, instance: QONInstance) -> None:
        n = instance.num_relations
        graph = instance.graph
        self.instance = instance
        self.n = n
        self.full_mask = (1 << n) - 1
        self.sizes: Tuple = tuple(instance.size(r) for r in range(n))
        sel_rows: List[Tuple] = []
        access_rows: List[Tuple] = []
        adjacency: List[int] = []
        frac_sel: List[int] = []
        exact = all(is_exact_value(t) for t in self.sizes)
        for u in range(n):
            srow: List = []
            arow: List = []
            mask = 0
            frac_mask = 0
            for v in range(n):
                if v == u:
                    srow.append(1)
                    arow.append(self.sizes[u])  # placeholder, never read
                    continue
                selectivity = instance.selectivity(u, v)
                access = instance.access_cost(u, v)
                srow.append(selectivity)
                arow.append(access)
                exact = exact and is_exact_value(access)
                if graph.has_edge(u, v) and selectivity != 1:
                    mask |= 1 << v
                    exact = exact and is_exact_value(selectivity)
                    if isinstance(selectivity, Fraction):
                        frac_mask |= 1 << v
            sel_rows.append(tuple(srow))
            access_rows.append(tuple(arow))
            adjacency.append(mask)
            frac_sel.append(frac_mask)
        self.sel: Tuple[Tuple, ...] = tuple(sel_rows)
        self.access: Tuple[Tuple, ...] = tuple(access_rows)
        self.adj: Tuple[int, ...] = tuple(adjacency)
        self.exact = exact
        self.frac_sizes = sum(
            1 << v
            for v, size in enumerate(self.sizes)
            if isinstance(size, Fraction)
        )
        self.frac_sel: Tuple[int, ...] = tuple(frac_sel)
        self.mixed_ties = exact and _has_mixed_ties(self.access)

    def fraction_typed(self, mask: int) -> bool:
        """True when the reference ``N(X)`` of relation set ``mask`` is a
        ``Fraction``: a member's size or a non-unit selectivity between
        two members is one."""
        if mask & self.frac_sizes:
            return True
        frac_sel = self.frac_sel
        rest = mask
        while rest:
            low = rest & -rest
            if frac_sel[low.bit_length() - 1] & mask:
                return True
            rest ^= low
        return False

    def retype(self, value: object, mask: int) -> object:
        """A demoted ``value`` with its reference type, for a quantity
        whose largest prefix set is ``mask`` (see module docs)."""
        if type(value) is int and self.fraction_typed(mask):
            return Fraction(value)
        return value

    def check_permutation(self, sequence: Sequence[int]) -> None:
        """The ``check_sequence`` contract in O(n) via the bitmask."""
        n = self.n
        mask = 0
        for vertex in sequence:
            if isinstance(vertex, int) and 0 <= vertex < n:
                mask |= 1 << vertex
        require(
            len(sequence) == n and mask == self.full_mask,
            _PERMUTATION_MESSAGE.format(n=n),
        )


def _has_mixed_ties(access: Tuple[Tuple, ...]) -> bool:
    """True if a column holds equal values of different types.

    One dict per column, keyed by value: ``hash(4) == hash(Fraction(4))``
    and the two compare equal, so they land on one key.
    """
    n = len(access)
    for v in range(n):
        seen: Dict[object, object] = {}
        for u in range(n):
            if u == v:
                continue  # the diagonal placeholder is never read
            value = access[u][v]
            if seen.setdefault(value, type(value)) is not type(value):
                return True
    return False


class CompiledQOH:
    """Dense read-only view of a :class:`QOHInstance`.

    QO_H statistics are all ``int``/``Fraction`` by construction, so the
    compiled form is always exact; ``hjmin`` (the per-relation hash
    floor) and the feasibility bitmask are precomputed so sequence
    feasibility is a mask test instead of n model calls.
    """

    __slots__ = (
        "instance", "n", "full_mask", "sizes", "sel", "adj",
        "hjmin", "memory", "feasible_mask", "__weakref__",
    )

    def __init__(self, instance: QOHInstance) -> None:
        n = instance.num_relations
        graph = instance.graph
        self.instance = instance
        self.n = n
        self.full_mask = (1 << n) - 1
        self.sizes: Tuple[int, ...] = tuple(
            instance.size(r) for r in range(n)
        )
        self.memory = instance.memory
        self.hjmin: Tuple[int, ...] = tuple(
            instance.hjmin(r) for r in range(n)
        )
        feasible = 0
        for r in range(n):
            if self.hjmin[r] <= self.memory:
                feasible |= 1 << r
        self.feasible_mask = feasible
        sel_rows: List[Tuple] = []
        adjacency: List[int] = []
        for u in range(n):
            srow: List = []
            mask = 0
            for v in range(n):
                if v == u:
                    srow.append(Fraction(1))
                    continue
                selectivity = instance.selectivity(u, v)
                srow.append(selectivity)
                if graph.has_edge(u, v) and selectivity != 1:
                    mask |= 1 << v
            sel_rows.append(tuple(srow))
            adjacency.append(mask)
        self.sel: Tuple[Tuple, ...] = tuple(sel_rows)
        self.adj: Tuple[int, ...] = tuple(adjacency)

    def check_permutation(self, sequence: Sequence[int]) -> None:
        """The permutation contract in O(n) via the bitmask."""
        n = self.n
        mask = 0
        for vertex in sequence:
            if isinstance(vertex, int) and 0 <= vertex < n:
                mask |= 1 << vertex
        require(
            len(sequence) == n and mask == self.full_mask,
            _PERMUTATION_MESSAGE.format(n=n),
        )

    def is_feasible(self, sequence: Sequence[int]) -> bool:
        """True if every inner relation's hjmin floor fits in memory."""
        feasible = self.feasible_mask
        return all(feasible >> r & 1 for r in sequence[1:])

    def extend_size(self, size: Fraction, mask: int, vertex: int) -> Fraction:
        """``N(X v)`` from ``N(X)`` (``mask`` = bits of ``X``).

        Multiplies the size and the non-unit selectivities into ``X``;
        ``Fraction`` arithmetic is exact, so the result is identical to
        the reference prefix-order product for any iteration order.
        """
        result = size * self.sizes[vertex]
        sel = self.sel[vertex]
        for u in iter_bits(self.adj[vertex] & mask):
            result = result * sel[u]
        return result


# Compiled kernels are memoized per live instance so repeated optimizer
# calls in a sweep share one compilation.  The memo holds the *kernel*
# weakly, keyed by instance id: the kernel strongly references its
# instance, so while any evaluator keeps the kernel alive the id cannot
# be recycled, and when the last evaluator dies both the entry and the
# instance become collectable — the memo never pins either side.  (A
# WeakKeyDictionary would deadlock here: its value referencing its key
# keeps the key alive forever.)
_QON_CACHE: "weakref.WeakValueDictionary[int, CompiledQON]" = (
    weakref.WeakValueDictionary()
)
_QOH_CACHE: "weakref.WeakValueDictionary[int, CompiledQOH]" = (
    weakref.WeakValueDictionary()
)

# The weak memo alone cannot make kernels persist *across* tasks: the
# evaluator is the only strong reference, so when a task's evaluator
# dies the kernel is collected and the next task recompiles it even if
# the instance object itself lived on.  The pin tier fixes that: a
# bounded strong LRU of recently compiled kernels, enabled by the sweep
# executor (workers pin while a registry keeps decoded instances live;
# the serial loop pins for the duration of a sweep).  Pinning is pure
# retention — lookups still go through the weak memo with its identity
# check — so it can never change which kernel a caller sees, only how
# long one stays warm.
#
# The tier is per thread: threads running serial sweeps at once (the
# service daemon's worker threads, when it has no process pool) must
# neither reset one another's limit nor unpin one another's kernels.
# A pool worker, the sweep runner's or the daemon's, runs its
# initializer and its jobs on one thread, so its pins cover them all.
class _PinTier(threading.local):
    def __init__(self) -> None:
        self.limit = 0
        self.kernels: "OrderedDict[int, Union[CompiledQON, CompiledQOH]]" = (
            OrderedDict()
        )


_PINS = _PinTier()


def pin_kernels(limit: int) -> None:
    """Strongly retain up to ``limit`` most-recently-used kernels
    compiled or looked up on the calling thread.

    ``0`` (the default) disables pinning and releases every pinned
    kernel.  A pinned kernel keeps its instance alive, so callers
    should bound ``limit`` by how many distinct instances they expect
    live at once (the executor uses the registry's live-tier bound).
    """
    require(limit >= 0, "kernel pin limit must be >= 0")
    pins = _PINS
    pins.limit = limit
    if limit == 0:
        pins.kernels.clear()
    while len(pins.kernels) > limit:
        pins.kernels.popitem(last=False)


@contextmanager
def pinned_kernels(limit: int) -> Iterator[None]:
    """Scoped :func:`pin_kernels`: restores the calling thread's
    previous limit on exit."""
    previous = _PINS.limit
    pin_kernels(limit)
    try:
        yield
    finally:
        pin_kernels(previous)


def _pin(key: int, kernel: Union[CompiledQON, CompiledQOH]) -> None:
    pins = _PINS
    if pins.limit == 0:
        return
    pinned = pins.kernels
    pinned[key] = kernel
    pinned.move_to_end(key)
    while len(pinned) > pins.limit:
        pinned.popitem(last=False)


def compile_qon(instance: "QONInstance") -> CompiledQON:
    """The compiled kernel for ``instance`` (memoized per live object)."""
    if isinstance(instance, CompiledQON):
        return instance
    kernel = _QON_CACHE.get(id(instance))
    if kernel is None or kernel.instance is not instance:
        kernel = CompiledQON(instance)
        _QON_CACHE[id(instance)] = kernel
        _metric_inc("perf.kernel_compiles")
    _pin(id(instance), kernel)
    return kernel


def compile_qoh(instance: "QOHInstance") -> CompiledQOH:
    """The compiled kernel for ``instance`` (memoized per live object)."""
    if isinstance(instance, CompiledQOH):
        return instance
    kernel = _QOH_CACHE.get(id(instance))
    if kernel is None or kernel.instance is not instance:
        kernel = CompiledQOH(instance)
        _QOH_CACHE[id(instance)] = kernel
        _metric_inc("perf.kernel_compiles")
    _pin(id(instance), kernel)
    return kernel
