"""Cost-evaluation cache shared by the optimizers.

Every optimizer in this repository ultimately evaluates one of two
order-free quantities over and over:

* the total cost ``C(Z)`` of a full join sequence ``Z`` (metaheuristics
  revisit the same permutations across restarts, generations and
  annealing steps);
* the prefix size ``N(X)`` of a relation *set* ``X`` (the exact
  optimizers — subset DP, branch and bound, pruned exhaustive search —
  all walk the same subset lattice, each recomputing the same big-int
  products).

:class:`CostCache` memoizes both, keyed on ``(instance fingerprint,
kind, subplan key)``, where the subplan key is the sequence tuple for
full-plan costs and the relation bitmask for subset sizes.  The QO_H
search layer reuses the same store for pipeline-decomposition plans
keyed on the sequence.

A cache is installed for the current thread's dynamic extent with
:func:`use_cache`: the sweep runner's ``_CacheScope`` picks each
attempt's cache, and the attempt runs under :func:`use_cache`, in the
serial loop and in every pool worker alike.  When no cache is active
the optimizers run exactly as before — the only overhead is one
thread-local read per optimizer call — except the few whose own
lookups repeat within one call often enough to pay for a memo:
:func:`memoize_call` gives each call of those a fresh cache of its
own.

Three capacity modes:

* ``CostCache()`` — unbounded memoization;
* ``CostCache(maxsize=k)`` — bounded LRU: the least recently touched
  entry is evicted once ``k`` entries are held (``evictions`` counts);
* ``CostCache(maxsize=0)`` — pass-through: nothing is ever stored, so
  every lookup is a miss.  This mode exists so *uncached* baselines
  count their cost evaluations through the same instrumentation
  (``misses`` equals the number of evaluations performed either way).

Determinism: a cached value is returned exactly as it was computed by
the miss path, so with exact arithmetic (``int``/``Fraction``) cached
and uncached runs are bit-identical — a property test enforces this.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.observability.metrics import inc as _metric_inc
from repro.observability.tracer import count as _trace_count

#: The active cache of each thread; holds an entry only while the
#: thread is inside a :func:`use_cache` block, so concurrent threads
#: each consult their own cache.  No entry, or a ``None`` one, means
#: "memoization off".
_TLS = threading.local()

_UNSET = object()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache counters (all monotone except ``size``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    peak_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter movement since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            size=self.size,
            peak_size=self.peak_size,
        )

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Aggregate counters from an independent cache (worker pools)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            size=self.size + other.size,
            peak_size=self.peak_size + other.peak_size,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "peak_size": self.peak_size,
            "hit_rate": self.hit_rate,
        }


def fingerprint(instance: object) -> str:
    """A stable content hash of a problem instance.

    Covers the graph, the sizes and the per-edge statistics through the
    instance's public API, so two structurally equal instances (even
    built independently) share cache entries, while any statistic
    change produces a fresh key space.
    """
    digest = hashlib.sha1()
    digest.update(type(instance).__name__.encode())
    graph = instance.graph
    n = graph.num_vertices
    digest.update(str(n).encode())
    for u, v in sorted(graph.edges):
        digest.update(f"e{u},{v}".encode())
        digest.update(repr(instance.selectivity(u, v)).encode())
    for relation in range(n):
        digest.update(repr(instance.size(relation)).encode())
    access_cost = getattr(instance, "access_cost", None)
    if access_cost is not None:
        for u, v in sorted(graph.edges):
            digest.update(repr(access_cost(u, v)).encode())
            digest.update(repr(access_cost(v, u)).encode())
    memory = getattr(instance, "memory", None)
    if memory is not None:
        digest.update(repr(memory).encode())
    return digest.hexdigest()


class CostCache:
    """Memoization of subplan costs with hit/miss/eviction counters."""

    __slots__ = (
        "_maxsize", "_entries", "_tokens",
        "hits", "misses", "evictions", "peak_size",
    )

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None (unbounded) or >= 0")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        # id(instance) -> (weakref, fingerprint).  The weak reference
        # keeps the hash memo per live instance without pinning the
        # instance itself (a long-lived sweep cache must not leak every
        # instance it ever costed); the callback drops the slot when the
        # instance dies, so a recycled id can never alias a stale hash.
        self._tokens: Dict[int, Tuple["weakref.ref[object]", str]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._entries)

    def token(self, instance: object) -> str:
        """The instance's fingerprint, computed once per live instance.

        Non-weakrefable instances are fingerprinted on every call —
        memoizing them by id would either pin them forever or risk
        id-reuse collisions.
        """
        key = id(instance)
        tokens = self._tokens
        entry = tokens.get(key)
        if entry is not None and entry[0]() is instance:
            return entry[1]
        value = fingerprint(instance)
        try:
            ref = weakref.ref(
                instance,
                lambda _ref, _key=key, _tokens=tokens: _tokens.pop(_key, None),
            )
        except TypeError:
            return value
        tokens[key] = (ref, value)
        return value

    def get_or_compute(
        self, instance: object, kind: str, key: object,
        compute: Callable[[], object],
    ) -> object:
        """Return the memoized value for ``(instance, kind, key)``.

        ``compute`` runs on a miss; its result is stored (unless in
        pass-through mode) and returned unchanged.
        """
        full_key = (self.token(instance), kind, key)
        entries = self._entries
        if full_key in entries:
            self.hits += 1
            _trace_count("cache_hits")
            entries.move_to_end(full_key)
            return entries[full_key]
        self.misses += 1
        # A miss IS a cost evaluation — counting here (and only here)
        # keeps per-span trace counters exactly equal to the sweep
        # metrics totals, whose ``cost_evaluations`` is the miss count.
        # The ``runtime.cost_evaluations`` metric is published from
        # ``misses`` by the cache's owner when its unit of work ends
        # (a sweep, a :func:`memoize_call` call), which keeps the
        # registry's lock and name check off this hot path.
        _trace_count("cost_evaluations")
        value = compute()
        if self._maxsize == 0:
            return value
        entries[full_key] = value
        if self._maxsize is not None and len(entries) > self._maxsize:
            entries.popitem(last=False)
            self.evictions += 1
        if len(entries) > self.peak_size:
            self.peak_size = len(entries)
        return value

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            peak_size=self.peak_size,
        )

    def clear(self) -> None:
        self._entries.clear()
        self._tokens.clear()


def active_cache() -> Optional[CostCache]:
    """The cache of the current thread's innermost :func:`use_cache`
    extent, or None outside any extent."""
    return _TLS.__dict__.get("cache")


@contextmanager
def use_cache(cache: Optional[CostCache]) -> Iterator[Optional[CostCache]]:
    """Install ``cache`` for the dynamic extent of the ``with`` block.

    The installation is scoped to the current thread, so concurrent
    extents in different threads (the service worker pool) each see
    their own cache; ``use_cache(None)`` masks an enclosing extent's
    cache within the block.
    """
    previous = _TLS.__dict__.get("cache", _UNSET)
    _TLS.cache = cache
    try:
        yield cache
    finally:
        if previous is _UNSET:
            del _TLS.cache
        else:
            _TLS.cache = previous


def memoize_call(fn: Callable) -> Callable:
    """Decorator: run each call of ``fn`` under a fresh cache of its
    own when no cache is active.

    For optimizers whose own lookups repeat within one call often
    enough to pay for the memo.  Under an active cache (a sweep's, or a
    caller's :func:`use_cache`) the call runs unchanged against it and
    publishes nothing; a sweep publishes its own caches' counts.
    Otherwise the call owns its memo: when the call ends, whether or
    not it succeeded, it adds the memo's misses and hits to the active
    metrics registry as ``runtime.cost_evaluations`` /
    ``runtime.cache_hits``.
    """

    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> object:
        if active_cache() is not None:
            return fn(*args, **kwargs)
        cache = CostCache()
        try:
            with use_cache(cache):
                return fn(*args, **kwargs)
        finally:
            _metric_inc("runtime.cost_evaluations", cache.misses)
            _metric_inc("runtime.cache_hits", cache.hits)

    return wrapper
