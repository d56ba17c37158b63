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

The subset DP's views.  The DP reads a kernel through one of two views
with the same entry points (:meth:`CompiledQON.dp_view`):
:class:`DemotedView` carries the values above, and :class:`IntegerView`
scales every value to an ``int`` by one common denominator, for
kernels whose sizes or access costs are non-integral.  Either way a
value leaves the DP with its reference type.  The greedy optimizers
read the same view when a kernel's statistics let them rank
candidates by its numbers (``repro.joinopt.optimizers.greedy``).
"""

from __future__ import annotations

import threading
import weakref
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


class _TypeRule:
    """The type rule of the module docs, over ``frac_sizes`` (the bits
    of the relations whose size is a ``Fraction``) and ``frac_sel``
    (per relation, the bits of the neighbors in ``adj`` with a
    ``Fraction`` selectivity)."""

    __slots__ = ("frac_sizes", "frac_sel")

    frac_sizes: int
    frac_sel: Tuple[int, ...]

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


class CompiledQON(_TypeRule):
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
        "exact", "mixed_ties", "_dp_view", "__weakref__",
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
            # Off the edges of ``u`` the accessors return ``1`` and
            # ``t_v``; the diagonal holds the same placeholders, which
            # are never read.  Only neighbors need the accessors.
            srow: List = [1] * n
            arow: List = list(self.sizes)
            mask = 0
            frac_mask = 0
            for v in graph.neighbors(u):
                selectivity = instance.selectivity(u, v)
                access = instance.access_cost(u, v)
                srow[v] = selectivity
                arow[v] = access
                exact = exact and is_exact_value(access)
                if selectivity != 1:
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
        self.frac_sel = tuple(frac_sel)
        self.mixed_ties = exact and _has_mixed_ties(self.access)
        self._dp_view: "Union[DemotedView, IntegerView, None]" = None

    def dp_view(self) -> "Union[DemotedView, IntegerView]":
        """The view of this kernel the subset DP and the greedy
        optimizers read, built on the first call:
        the :class:`IntegerView` when every statistic is a plain
        ``int``/``Fraction`` and some size or access cost is a
        ``Fraction``, the :class:`DemotedView` otherwise."""
        view = self._dp_view
        if view is None:
            view = (
                IntegerView(self) if _takes_integer_view(self)
                else DemotedView(self)
            )
            self._dp_view = view
        return view

    def plain(self) -> bool:
        """True when every statistic the views read is a plain ``int``
        or ``Fraction`` (no ``LogNumber``, no counting proxy): the
        access rows, whose diagonal placeholders are the sizes, and the
        non-unit selectivities."""
        types = (int, Fraction)
        sel = self.sel
        return all(
            type(value) in types for row in self.access for value in row
        ) and all(
            type(sel[u][v]) in types
            for u, neighbors in enumerate(self.adj)
            for v in iter_bits(neighbors)
        )

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


class DemotedView(_TypeRule):
    """The subset DP's view on the kernel's own values: sizes demoted,
    probe rows as compiled, a size extended by :func:`mul` over its
    non-unit selectivities in ascending order.  It serves any kernel,
    and is the only view for ``LogNumber`` values and counting proxies,
    whose operation sequence it keeps.

    The entry points, shared with :class:`IntegerView`: ``sizes`` (the
    singleton sizes), ``probes`` (``probes[k][j]`` is the cost of
    probing ``R_j`` from ``R_k``; each mask's row is the element-wise
    minimum over its members), ``adj``, :meth:`extend`, :meth:`select`
    (one selectivity factor, for the greedy size keys), and the two
    exits :meth:`size_exit` (with its inverse :meth:`size_entry`) and
    :meth:`cost_exit`.  Views hold the kernel's tables, never the
    kernel, so the kernel can memoize its view without a cycle.
    """

    __slots__ = ("sizes", "probes", "sel", "adj", "full_mask")

    def __init__(self, kernel: CompiledQON) -> None:
        self.frac_sizes = kernel.frac_sizes
        self.frac_sel = kernel.frac_sel
        self.full_mask = kernel.full_mask
        self.sizes: Tuple = tuple(demote(size) for size in kernel.sizes)
        self.probes: Tuple[Tuple, ...] = kernel.access
        self.sel = kernel.sel
        self.adj = kernel.adj

    def extend(self, size: object, mask: int, vertex: int) -> object:
        """``N(X + vertex)`` from ``N(X)`` (``mask`` = bits of ``X``)."""
        size = mul(size, self.sizes[vertex])
        row = self.sel[vertex]
        for k in iter_bits(self.adj[vertex] & mask):
            size = mul(size, row[k])
        return size

    def select(self, value: object, u: int, v: int) -> object:
        """``value`` times the selectivity ``s_uv``, for ``u`` in
        ``adj[v]``."""
        return mul(value, self.sel[v][u])

    def size_exit(self, size: object, mask: int) -> object:
        """The ``qon-size`` cache entry of relation set ``mask``."""
        return self.retype(size, mask)

    def size_entry(self, value: object) -> object:
        """A ``qon-size`` cache entry as the view carries it."""
        return demote(value)

    def cost_exit(self, cost: object, sequence: Sequence[int]) -> object:
        """The DP's cost of ``sequence``, with its reference type."""
        return self.retype(cost, self.full_mask ^ (1 << sequence[-1]))


class IntegerView(_TypeRule):
    """The subset DP's view with every value an ``int``: the kernel's
    values scaled by one common denominator (docs/performance.md).

    ``size_scale`` ``D_N`` is the product of the size denominators and
    of each non-unit selectivity's denominator, one per edge: a
    multiple of every ``N(X)``'s denominator, so ``sizes`` and every
    extended size ``N(X) * D_N`` are ``int``s.  ``probes[k][j]`` is
    ``w_kj * W``, with ``W`` the lcm of the access-cost denominators.
    Costs then carry ``cost_scale = D_N * W``, so sums and comparisons
    are ``int`` operations in the reference order, with the same
    winners and ties.  A value leaves as one rational: a size as
    ``N' / D_N``, retyped by its mask; the cost as ``C' / D``, typed by
    the parent mask and by the probes of the winning sequence.
    """

    __slots__ = (
        "sizes", "probes", "access", "adj", "full_mask", "size_num",
        "size_den", "sel_num", "sel_den", "size_scale", "cost_scale",
    )

    def __init__(self, kernel: CompiledQON) -> None:
        n = kernel.n
        self.frac_sizes = kernel.frac_sizes
        self.frac_sel = kernel.frac_sel
        self.full_mask = kernel.full_mask
        self.adj = kernel.adj
        self.access = kernel.access
        size_scale = 1
        for size in kernel.sizes:
            size_scale *= size.denominator
        sel_num: List[Tuple[int, ...]] = []
        sel_den: List[Tuple[int, ...]] = []
        for u in range(n):
            nums = [1] * n
            dens = [1] * n
            for v in iter_bits(kernel.adj[u]):
                selectivity = kernel.sel[u][v]
                nums[v] = selectivity.numerator
                dens[v] = selectivity.denominator
                if v > u:
                    size_scale *= dens[v]
            sel_num.append(tuple(nums))
            sel_den.append(tuple(dens))
        probe_scale = 1
        for u, row in enumerate(kernel.access):
            for v, access in enumerate(row):
                if v != u:
                    probe_scale = _lcm(probe_scale, access.denominator)
        self.size_scale = size_scale
        self.cost_scale = size_scale * probe_scale
        self.sizes: Tuple[int, ...] = tuple(
            _scaled(size, size_scale) for size in kernel.sizes
        )
        # The diagonal placeholder is never read; 0 keeps the row int.
        self.probes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                0 if v == u else _scaled(access, probe_scale)
                for v, access in enumerate(row)
            )
            for u, row in enumerate(kernel.access)
        )
        self.size_num = tuple(size.numerator for size in kernel.sizes)
        self.size_den = tuple(size.denominator for size in kernel.sizes)
        self.sel_num = tuple(sel_num)
        self.sel_den = tuple(sel_den)

    def extend(self, size: int, mask: int, vertex: int) -> int:
        """``N'(X + vertex)`` from ``N'(X)`` (``mask`` = bits of ``X``):
        one product of the new factors' numerators and one exact
        division by their denominators (``N'(X + vertex)`` is an
        ``int``)."""
        num = self.size_num[vertex]
        den = self.size_den[vertex]
        nums = self.sel_num[vertex]
        dens = self.sel_den[vertex]
        for k in iter_bits(self.adj[vertex] & mask):
            num *= nums[k]
            den *= dens[k]
        return size * num // den

    def select(self, value: int, u: int, v: int) -> int:
        """``value`` times the selectivity ``s_uv``, for ``u`` in
        ``adj[v]``: exact on ``sizes[v]`` times selectivities of other
        edges into ``v`` (a greedy size key), since ``D_N`` holds each
        edge's denominator once."""
        return value * self.sel_num[v][u] // self.sel_den[v][u]

    def size_exit(self, size: int, mask: int) -> object:
        """The ``qon-size`` cache entry of relation set ``mask``."""
        return self.retype(demote(Fraction(size, self.size_scale)), mask)

    def size_entry(self, value: object) -> int:
        """A ``qon-size`` cache entry scaled back by ``D_N``."""
        return _scaled(value, self.size_scale)

    def cost_exit(self, cost: int, sequence: Sequence[int]) -> object:
        """The DP's cost of ``sequence``, with its reference type: a
        ``Fraction`` when the largest prefix size is ``Fraction``-typed
        or some step probes a ``Fraction``-typed access cost, else an
        ``int`` (a non-integral cost implies one of the two)."""
        value = Fraction(cost, self.cost_scale)
        if self.fraction_typed(
            self.full_mask ^ (1 << sequence[-1])
        ) or self._probes_fraction(sequence):
            return value
        return value.numerator

    def _probes_fraction(self, sequence: Sequence[int]) -> bool:
        """True when a step of ``sequence`` probes a ``Fraction``-typed
        access cost.  A step's probe is the lowest-index minimum over
        its prefix, as the probe rows and the reference ``min`` keep
        it."""
        probes = self.probes
        prefix = 0
        for vertex in sequence:
            if prefix:
                probe = min(
                    iter_bits(prefix), key=lambda k: probes[k][vertex]
                )
                if type(self.access[probe][vertex]) is Fraction:
                    return True
            prefix |= 1 << vertex
        return False


def _takes_integer_view(kernel: CompiledQON) -> bool:
    """The gate of :meth:`CompiledQON.dp_view`: a plain kernel
    (:meth:`CompiledQON.plain`) with a ``Fraction`` size or access
    cost.  The access rows' diagonal placeholders are sizes."""
    return any(
        type(value) is Fraction for row in kernel.access for value in row
    ) and kernel.plain()


def _scaled(value: "Union[int, Fraction]", scale: int) -> int:
    """``value * scale`` for an ``int``/``Fraction`` ``value`` whose
    denominator divides ``scale``."""
    return value.numerator * (scale // value.denominator)


def _lcm(a: int, b: int) -> int:
    """The least common multiple of two positive ``int``s."""
    x, y = a, b
    while y:
        x, y = y, x % y
    return a // x * b


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
# the instance object itself lived on.  A retention scope fixes that:
# while one is open, every kernel compiled or looked up on the calling
# thread stays alive until the scope closes.  The sweep executor opens
# one for each serial sweep and one for each worker process's life, so a
# sweep compiles each distinct instance at most once in each process
# that runs its tasks.  Retention changes only
# how long a kernel stays warm — lookups still go through the weak memo
# with its identity check — never which kernel a caller sees.
#
# Scopes are per thread: threads running serial sweeps at once (the
# service daemon's worker threads, when they have no compute process)
# must not release one another's kernels.  A sweep's worker process
# runs all its jobs on its main thread, inside its one scope.
class _Retained(threading.local):
    def __init__(self) -> None:
        self.depth = 0
        self.kernels: Dict[int, Union[CompiledQON, CompiledQOH]] = {}


_RETAINED = _Retained()


@contextmanager
def retain_kernels() -> Iterator[None]:
    """Keep every kernel compiled or looked up on the calling thread
    alive until the outermost open scope on that thread closes.

    A retained kernel keeps its instance alive too, so open a scope
    only around work whose instances live as long anyway (a sweep's
    tasks, a worker process's shipped instances).
    """
    retained = _RETAINED
    retained.depth += 1
    try:
        yield
    finally:
        retained.depth -= 1
        if retained.depth == 0:
            retained.kernels.clear()


def _retain(key: int, kernel: Union[CompiledQON, CompiledQOH]) -> None:
    retained = _RETAINED
    if retained.depth:
        retained.kernels[key] = kernel


def compile_qon(instance: "QONInstance") -> CompiledQON:
    """The compiled kernel for ``instance`` (memoized per live object)."""
    if isinstance(instance, CompiledQON):
        return instance
    kernel = _QON_CACHE.get(id(instance))
    if kernel is None or kernel.instance is not instance:
        kernel = CompiledQON(instance)
        _QON_CACHE[id(instance)] = kernel
        _metric_inc("perf.kernel_compiles")
    _retain(id(instance), kernel)
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
    _retain(id(instance), kernel)
    return kernel
