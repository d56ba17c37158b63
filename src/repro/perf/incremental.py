"""Incremental (delta) evaluation of QO_N join-sequence costs.

The metaheuristics explore *neighbors*: sequences that differ from a
base by an adjacent swap or a single-relation move.  The reference path
re-walks the whole sequence — ``O(n^2)`` exact multiplications — even
though everything outside a small window is unchanged.
:class:`PrefixEvaluator` checkpoints the base sequence's prefix state
once and re-costs only what a move can touch:

* ``N[p]`` — prefix size through position ``p``;
* ``minw[p]`` — per-candidate running minimum access cost over the
  prefix (folded in prefix order with a strict ``<``, so it selects
  exactly the element the reference ``min()`` generator would);
* ``H[p]`` / ``C[p]`` / ``S[p]`` — per-join costs, their left-fold
  prefix sums (the reference summation order) and suffix sums;
* ``f[p]`` — the position's *entry factor* (size times the non-unit
  selectivities into its prefix), which lets the remove side of a move
  divide a stored ``N`` instead of re-multiplying the whole prefix.

Bit-identity contract.  On exact kernels (``int``/``Fraction``) prefix
sizes and entry factors are carried *demoted* (``int`` while integral,
:func:`~repro.perf.kernels.mul`), and every delta recombines the same
multiset of factors the reference path multiplies, so every value equals
``total_cost``'s.  The ``int``-vs-``Fraction`` type is restored where a
cost leaves the evaluator, by the kernel's rule
(:meth:`~repro.perf.kernels.CompiledQON.retype`) over the largest
prefix whose size enters the cost: every relation but the last.  Probes
are the instance's own values, selected like the reference ``min()``;
a ``Fraction`` probe types its term by plain arithmetic.  Two kinds of
kernel take no algebraic shortcut and replay candidates after the
longest common prefix, in the reference operation order:

* inexact kernels (``LogNumber`` floats), where grouping changes bits;
* kernels with ``mixed_ties`` (a column of ``access`` holding, say,
  ``4`` and ``Fraction(4)``), where the reference probe's type depends
  on the prefix *order*, so probes cannot be reused across orders.

Both also rebuild every checkpoint on an accepted move.  Otherwise an
accepted move rebuilds only the positions it reorders: past them every
prefix *set* is unchanged, and with it ``N``, ``minw`` and ``H``; only
the running sums are refreshed.  Counting proxies take the exact path
through plain ``*``, ``+`` and ``/``.  The Hypothesis differential
suite in ``tests/test_perf_differential.py`` enforces all of this.

Every evaluation flows through the active
:class:`~repro.runtime.costcache.CostCache` under the same
``("qon-cost", sequence)`` key the reference ``total_cost`` uses — the
two paths share cache entries and the ``cost_evaluations`` /
``cost_evaluations_uncached`` trace counters stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.observability.tracer import count as trace_count
from repro.perf.kernels import CompiledQON, compile_qon, demote, mul
from repro.runtime.costcache import active_cache
from repro.utils.rng import Random
from repro.utils.validation import require

if TYPE_CHECKING:  # annotation-only (the optimizers import this module)
    from repro.joinopt.instance import QONInstance


@dataclass(frozen=True)
class AdjacentSwap:
    """Swap positions ``index`` and ``index + 1``."""

    index: int

    def apply(self, sequence: Sequence[int]) -> Tuple[int, ...]:
        i = self.index
        out = list(sequence)
        out[i], out[i + 1] = out[i + 1], out[i]
        return tuple(out)


@dataclass(frozen=True)
class Reinsert:
    """Remove the element at ``source`` and insert it at ``target``."""

    source: int
    target: int

    def apply(self, sequence: Sequence[int]) -> Tuple[int, ...]:
        out = list(sequence)
        out.insert(self.target, out.pop(self.source))
        return tuple(out)


Move = Union[AdjacentSwap, Reinsert]


def sample_moves(n: int, rng: Random, count: int) -> List[Move]:
    """Sample ``count`` neighborhood moves: adjacent swaps and moves.

    Mirrors the historical ``_neighbors`` draw pattern (one coin, then
    index draws) but redraws the insertion target while it equals the
    source — ``Reinsert(i, i)`` is the identity, and such no-ops used
    to inflate the metaheuristics' ``explored`` counts.
    """
    require(n >= 2, "need at least two relations to sample moves")
    moves: List[Move] = []
    for _ in range(count):
        # The historical one-coin draw; not cost arithmetic.
        if rng.random() < 0.5:  # repro: noqa[ANA101]
            moves.append(AdjacentSwap(rng.randrange(n - 1)))
        else:
            source = rng.randrange(n)
            target = rng.randrange(n)
            while target == source:
                target = rng.randrange(n)
            moves.append(Reinsert(source, target))
    return moves


def _exact_divide(  # repro: boundary[exactness]
    numerator: object, divisor: object
) -> object:
    """``numerator / divisor``, demoted.

    The quotient is exact by construction (the divisor's factor multiset
    is a subset of the numerator's), but it need not be integral when
    both sides are, so two ``int``s divide with ``divmod``.
    """
    if type(numerator) is int and type(divisor) is int:
        quotient, remainder = divmod(numerator, divisor)
        if remainder:
            return Fraction(numerator, divisor)
        return quotient
    return demote(numerator / divisor)


class PrefixEvaluator:
    """Checkpointed, cache-integrated QO_N sequence costing.

    Usage: ``rebase(start)`` wherever the reference code evaluated a
    *new current* sequence (counted through the cache exactly like
    ``total_cost``); ``evaluate_neighbors(base, moves)`` /
    ``evaluate_move(move)`` for candidates; ``advance(move)`` when a
    candidate is accepted (pure state update — no cache traffic, just
    like the reference, which never re-evaluates an accepted neighbor).
    """

    def __init__(self, instance: Union[QONInstance, CompiledQON]) -> None:
        kernel = (
            instance
            if isinstance(instance, CompiledQON)
            else compile_qon(instance)
        )
        require(kernel.n >= 2, "need at least two relations to evaluate")
        self.kernel = kernel
        self._sizes = [demote(size) for size in kernel.sizes]
        # Deltas and the windowed advance (see module docs).
        self._deltas = kernel.exact and not kernel.mixed_ties
        self._base: Optional[Tuple[int, ...]] = None
        n = kernel.n
        self._N: List[object] = [None] * n
        self._f: List[object] = [None] * n
        self._H: List[object] = [None] * n
        self._C: List[object] = [None] * n
        self._S: List[object] = [None] * (n + 1)
        self._minw: List[List[object]] = [[] for _ in range(n)]
        self._mask: List[int] = [0] * n
        self._total: object = None

    # -- public API ---------------------------------------------------
    @property
    def base(self) -> Optional[Tuple[int, ...]]:
        return self._base

    @property
    def total(self) -> object:
        """Cost of the current base sequence."""
        base = self._base
        require(base is not None, "no base sequence set; call rebase")
        return self._typed(base, self._total)

    def rebase(self, sequence: Sequence[int]) -> object:
        """Adopt ``sequence`` as the base; returns its (cached) cost.

        Performs one cache lookup, exactly like a ``total_cost`` call —
        use it where the reference code evaluated a new current
        sequence, so ``cost_evaluations`` metrics stay identical.
        """
        key = tuple(sequence)
        self._ensure_base(key)
        return self._cost_through_cache(key, lambda: self._total)

    def evaluate(self, sequence: Sequence[int]) -> object:
        """Cost of an arbitrary permutation (suffix replay after the LCP).

        Bit-identical for every kernel, exact or not: on a cache miss
        the suffix after the longest common prefix with the base is
        recomputed in the reference operation order.
        """
        key = tuple(sequence)
        self.kernel.check_permutation(key)
        require(self._base is not None, "no base sequence set; call rebase")
        return self._cost_through_cache(key, lambda: self._replay(key))

    def evaluate_move(self, move: Move) -> Tuple[Tuple[int, ...], object]:
        """``(neighbor, cost)`` for one move applied to the base."""
        base = self._base
        require(base is not None, "no base sequence set; call rebase")
        self._window(move)
        if isinstance(move, Reinsert):
            require(
                move.source != move.target,
                "no-op move: source equals target",
            )
        key = move.apply(base)
        if self._deltas:
            return key, self._cost_through_cache(
                key, lambda: self._delta(move)
            )
        return key, self._cost_through_cache(key, lambda: self._replay(key))

    def evaluate_neighbors(
        self, base: Sequence[int], moves: Iterable[Move]
    ) -> Iterator[Tuple[Move, Tuple[int, ...], object]]:
        """Lazily cost each move against ``base``.

        Lazy on purpose: consumers break on the first improvement, and
        only the candidates actually pulled are evaluated (and counted)
        — the ``explored`` semantics of the reference loops.  Consume
        before mutating the evaluator (``advance``/``rebase``).
        """
        self._ensure_base(tuple(base))
        for move in moves:
            key, cost = self.evaluate_move(move)
            yield move, key, cost

    def advance(self, move: Move) -> object:
        """Apply an accepted move to the base; returns the new total.

        Pure state update — no cache lookups or trace counts, matching
        the reference loops, which never re-evaluate an accepted
        candidate.  With deltas on, only the positions the move
        reorders are rebuilt; otherwise (inexact or ``mixed_ties``
        kernels, whose checkpoints depend on the prefix order) every
        position is.
        """
        base = self._base
        require(base is not None, "no base sequence set; call rebase")
        lo, hi = self._window(move)
        if not self._deltas:
            lo, hi = 0, self.kernel.n - 1
        self._rebuild(move.apply(base), lo, hi)
        return self.total

    # -- cache integration -------------------------------------------
    def _cost_through_cache(
        self, key: Tuple[int, ...], compute: Callable[[], object]
    ) -> object:
        # Mirrors joinopt.cost.total_cost: same cache kind and key, so
        # the kernel and reference paths share entries; same counter
        # discipline, so sweep metrics stay exact.  Entries hold the
        # reference type.
        def typed() -> object:
            return self._typed(key, compute())

        cache = active_cache()
        if cache is None:
            trace_count("cost_evaluations_uncached")
            return typed()
        return cache.get_or_compute(
            self.kernel.instance, "qon-cost", key, typed  # type: ignore[arg-type]
        )

    def _typed(self, sequence: Tuple[int, ...], cost: object) -> object:
        """``cost`` of ``sequence`` with its reference type."""
        kernel = self.kernel
        return kernel.retype(cost, kernel.full_mask ^ (1 << sequence[-1]))

    # -- state construction ------------------------------------------
    def _window(self, move: Move) -> Tuple[int, int]:
        """Validate ``move``; the first and last positions it reorders."""
        n = self.kernel.n
        if isinstance(move, AdjacentSwap):
            index = move.index
            require(0 <= index < n - 1, f"swap index {index} out of range")
            return index, index + 1
        source, target = move.source, move.target
        require(
            0 <= source < n and 0 <= target < n,
            f"move ({source}, {target}) out of range",
        )
        return min(source, target), max(source, target)

    def _ensure_base(self, sequence: Tuple[int, ...]) -> None:
        if sequence != self._base:
            self.kernel.check_permutation(sequence)
            self._rebuild(sequence, 0, self.kernel.n - 1)

    def _rebuild(self, sequence: Tuple[int, ...], lo: int, hi: int) -> None:
        """Rebuild positions ``lo..hi`` for ``sequence``, then the sums.

        Positions before ``lo`` hold the same prefix, positions after
        ``hi`` the same prefix *set*, so their ``N``, ``minw`` and ``H``
        stand (see module docs); ``C`` changes from ``lo`` on and ``S``
        up to ``hi``.
        """
        for p in range(lo, hi + 1):
            self._set_position(sequence, p)
        n = self.kernel.n
        H, C = self._H, self._C
        for p in range(max(lo, 1), n):
            C[p] = H[p] if p == 1 else C[p - 1] + H[p]
        if self._deltas:
            S = self._S
            for p in range(min(hi, n - 1), 0, -1):
                S[p] = H[p] if p == n - 1 else H[p] + S[p + 1]
        self._total = C[n - 1]
        self._base = sequence

    def _set_position(self, sequence: Tuple[int, ...], p: int) -> None:
        """Recompute position ``p``'s state from the state at ``p - 1``."""
        kernel = self.kernel
        access = kernel.access
        vertex = sequence[p]
        if p == 0:
            head = self._sizes[vertex]
            self._N[0] = head
            self._f[0] = head
            self._H[0] = None
            self._C[0] = None
            self._minw[0] = list(access[vertex])
            self._mask[0] = 1 << vertex
            return
        row = self._minw[p - 1]
        self._H[p] = self._N[p - 1] * row[vertex]
        adjacency = kernel.adj[vertex]
        selv = kernel.sel[vertex]
        if kernel.exact:
            # Entry factor first (its multiset equals the reference
            # per-position factors), then one multiply onto N.
            factor = self._sizes[vertex]
            if adjacency & self._mask[p - 1]:
                for q in range(p):
                    u = sequence[q]
                    if adjacency >> u & 1:
                        factor = mul(factor, selv[u])
            self._f[p] = factor
            self._N[p] = mul(self._N[p - 1], factor)
        else:
            # Inexact (float-log) values: fold exactly as the reference
            # does — size first, then selectivities in prefix order —
            # so checkpoints match it bit for bit.
            current = self._N[p - 1] * kernel.sizes[vertex]
            if adjacency & self._mask[p - 1]:
                for q in range(p):
                    u = sequence[q]
                    if adjacency >> u & 1:
                        current = current * selv[u]
            self._N[p] = current
        new_row = list(row)
        arow = access[vertex]
        for c in range(kernel.n):
            candidate = arow[c]
            if candidate < new_row[c]:
                new_row[c] = candidate
        self._minw[p] = new_row
        self._mask[p] = self._mask[p - 1] | (1 << vertex)

    # -- replay (generic, bit-identical for any kernel) ---------------
    def _replay(self, sequence: Tuple[int, ...]) -> object:
        """Reference-order evaluation reusing the longest common prefix."""
        kernel = self.kernel
        n = kernel.n
        base = self._base
        assert base is not None
        lcp = 0
        while lcp < n and sequence[lcp] == base[lcp]:
            lcp += 1
        if lcp == n:
            return self._total
        sizes, sel, access, adj = (
            self._sizes, kernel.sel, kernel.access, kernel.adj,
        )
        if lcp == 0:
            first = sequence[0]
            current = sizes[first]
            row = list(access[first])
            total: object = None
            start = 1
        else:
            current = self._N[lcp - 1]
            row = list(self._minw[lcp - 1])
            total = self._C[lcp - 1] if lcp >= 2 else None
            start = lcp
        for p in range(start, n):
            vertex = sequence[p]
            joined = current * row[vertex]
            total = joined if total is None else total + joined
            current = mul(current, sizes[vertex])
            adjacency = adj[vertex]
            if adjacency:
                selv = sel[vertex]
                for q in range(p):
                    u = sequence[q]
                    if adjacency >> u & 1:
                        current = mul(current, selv[u])
            arow = access[vertex]
            for c in range(n):
                candidate = arow[c]
                if candidate < row[c]:
                    row[c] = candidate
        return total

    # -- exact deltas --------------------------------------------------
    def _delta(self, move: Move) -> object:
        """Cost of the ``move`` neighbor from the checkpoints."""
        if isinstance(move, AdjacentSwap):
            return self._swap_delta(move.index)
        if move.target < move.source:
            return self._reinsert_earlier(move.source, move.target)
        return self._reinsert_later(move.source, move.target)

    def _swap_delta(self, index: int) -> object:
        """Cost of the adjacent-swap neighbor; O(deg) multiplications."""
        kernel = self.kernel
        n = kernel.n
        base = self._base
        assert base is not None
        a, b = base[index], base[index + 1]
        if index == 0:
            total: object = self._sizes[b] * kernel.access[b][a]
            after = 2
        else:
            n_prev = self._N[index - 1]
            row = self._minw[index - 1]
            joined_b = n_prev * row[b]
            factor = self._sizes[b]
            adjacency = kernel.adj[b]
            selb = kernel.sel[b]
            if adjacency & self._mask[index - 1]:
                for q in range(index):
                    u = base[q]
                    if adjacency >> u & 1:
                        factor = mul(factor, selb[u])
            n_mid = mul(n_prev, factor)
            stored = row[a]
            direct = kernel.access[b][a]
            probe = direct if direct < stored else stored
            joined_a = n_mid * probe
            if index >= 2:
                total = self._C[index - 1] + joined_b + joined_a
            else:
                total = joined_b + joined_a
            after = index + 2
        if after <= n - 1:
            total = total + self._S[after]
        return total

    def _reinsert_earlier(self, source: int, target: int) -> object:
        """Cost of moving ``base[source]`` to an earlier ``target``."""
        kernel = self.kernel
        n = kernel.n
        base = self._base
        assert base is not None
        moved = base[source]
        access = kernel.access
        selv = kernel.sel[moved]
        adjacency = kernel.adj[moved]
        total: object = self._C[target - 1] if target >= 2 else None
        if target == 0:
            gather = self._sizes[moved]
            n_prev: object = gather
        else:
            factor = self._sizes[moved]
            if adjacency & self._mask[target - 1]:
                for q in range(target):
                    u = base[q]
                    if adjacency >> u & 1:
                        factor = mul(factor, selv[u])
            joined_v = self._N[target - 1] * self._minw[target - 1][moved]
            total = joined_v if total is None else total + joined_v
            gather = factor
            n_prev = mul(self._N[target - 1], gather)
        for p in range(target, source):
            u = base[p]
            if p == 0:
                probe = access[moved][u]
            else:
                stored = self._minw[p - 1][u]
                direct = access[moved][u]
                probe = direct if direct < stored else stored
            joined = n_prev * probe
            total = joined if total is None else total + joined
            if adjacency >> u & 1:
                gather = mul(gather, selv[u])
            n_prev = mul(self._N[p], gather)
        if source + 1 <= n - 1:
            total = total + self._S[source + 1]
        return total

    def _reinsert_later(self, source: int, target: int) -> object:
        """Cost of moving ``base[source]`` to a later ``target``."""
        kernel = self.kernel
        n = kernel.n
        base = self._base
        assert base is not None
        moved = base[source]
        access = kernel.access
        selv = kernel.sel[moved]
        adjacency = kernel.adj[moved]
        total: object = self._C[source - 1] if source >= 2 else None
        if source == 0:
            row: Optional[List[object]] = None
            n_prev: object = None
        else:
            row = list(self._minw[source - 1])
            n_prev = self._N[source - 1]
        gather = self._f[source]
        for p in range(source + 1, target + 1):
            u = base[p]
            if row is None:
                # u becomes the new first relation: no join yet.
                if adjacency >> u & 1:
                    gather = mul(gather, selv[u])
                n_prev = _exact_divide(self._N[p], gather)
                row = list(access[u])
                continue
            joined = n_prev * row[u]
            total = joined if total is None else total + joined
            if adjacency >> u & 1:
                gather = mul(gather, selv[u])
            n_prev = _exact_divide(self._N[p], gather)
            arow = access[u]
            for c in range(n):
                candidate = arow[c]
                if candidate < row[c]:
                    row[c] = candidate
        assert row is not None
        joined_v = n_prev * row[moved]
        total = joined_v if total is None else total + joined_v
        if target + 1 <= n - 1:
            total = total + self._S[target + 1]
        return total
