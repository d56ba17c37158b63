"""Content-addressed instance registry (``repro.runtime.registry``).

Sweeping a gap-family grid runs the *same* handful of reduction
instances through many optimizers.  Before this module existed every
parallel task carried its own pickled copy of its instance, every
worker re-decoded it, and the PR-4 compiled kernels — pure functions
of the instance, memoized per *live object* — were rebuilt from
scratch each time because each decode produced a fresh object.

:class:`InstanceRegistry` removes all of that duplicated work with a
two-tier, content-addressed store:

* **payload tier** — ``key -> pickled instance bytes``, one entry per
  *distinct* instance (keyed by :func:`instance_key`, the same codec
  fingerprint the journal and service fingerprints build on).  The
  sweep runner ships this map to each worker exactly once, in the pool
  initializer; tasks then carry an :class:`InstanceRef` instead of a
  payload.  The tier is persistent for the registry's lifetime, so an
  evicted instance can always be *refetched* (re-decoded) from it.
* **live tier** — a bounded LRU of decoded instances.  A hit returns
  the *same object* every time, which is exactly what makes the
  kernel caches in :mod:`repro.perf.kernels` (``WeakValueDictionary``
  keyed by ``id``) persist across tasks within a worker.

The service daemon's keep-alive instance LRU is the same live tier
with externally supplied keys: :meth:`InstanceRegistry.canonical`
deduplicates already-decoded instances without touching the payload
tier, so a long-running daemon's memory stays bounded by ``max_live``.

Determinism: the registry only changes *which object* an optimizer
receives, never its content — two decodes of one payload are
structurally equal, and every optimizer is a pure function of instance
content.  The differential tests in ``tests/test_runtime_registry.py``
pin bit-identical outcomes (value, type, ``repr``) against the serial
runner.

Construction is confined to :mod:`repro.runtime` and
:mod:`repro.service` (lint rule RPR013): everything else goes through
the runner/service APIs, which own worker lifetime and eviction
policy.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.observability.metrics import inc as _metric_inc
from repro.runtime.costcache import fingerprint as _instance_fingerprint
from repro.utils.validation import require


def instance_key(instance: object) -> str:
    """The stable per-instance content token the registry is keyed by.

    The cost-cache fingerprint when the instance exposes a graph, its
    ``repr`` otherwise — SQO-CP instances carry no graph but have a
    complete, deterministic ``repr``.  This is the same token the
    journal's ``task_fingerprint`` builds on, so registry keys and
    journal fingerprints agree about instance identity.
    """
    if hasattr(instance, "graph"):
        return _instance_fingerprint(instance)
    return repr(instance)


def _lru_store(
    live: "OrderedDict[str, object]",
    max_live: Optional[int],
    key: str,
    instance: object,
) -> None:
    """LRU-insert into a live tier, counting what the bound evicts.
    Operates on the dict passed in — the registry calls this with its
    lock held, so the helper itself takes no lock.
    """
    if max_live == 0:
        return
    live[key] = instance
    live.move_to_end(key)
    if max_live is not None and len(live) > max_live:
        evicted = len(live) - max_live
        for _ in range(evicted):
            live.popitem(last=False)
        _metric_inc("runtime.registry_evictions", evicted)


@dataclass(frozen=True)
class InstanceRef:
    """Picklable stand-in for an instance already shipped to workers.

    Tasks dispatched through the registry path carry one of these in
    their ``instance`` slot; the worker swaps it back for the decoded
    instance before execution (``runner._materialize``).
    """

    key: str


class InstanceRegistry:
    """Two-tier content-addressed store of problem instances.

    ``max_live`` bounds the live tier: ``None`` is unbounded, ``k > 0``
    an LRU of ``k`` decoded instances, ``0`` pass-through (nothing is
    kept live — every :meth:`get` decodes and :meth:`canonical`
    returns its argument unchanged, matching the service daemon's
    cache-disabled mode).

    All methods are thread-safe; the daemon calls :meth:`canonical`
    from concurrent connection handlers.
    """

    __slots__ = ("_max_live", "_payloads", "_live", "_lock")

    def __init__(self, max_live: Optional[int] = None) -> None:
        require(
            max_live is None or max_live >= 0,
            "max_live must be None (unbounded) or >= 0",
        )
        self._max_live = max_live
        self._payloads: Dict[str, bytes] = {}
        self._live: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def max_live(self) -> Optional[int]:
        return self._max_live

    def __len__(self) -> int:
        with self._lock:
            return len(self._payloads)

    # -- payload tier --------------------------------------------------

    def register(self, instance: object) -> str:
        """Store ``instance``'s pickled payload; return its content key.

        Idempotent per distinct content: repeated instances (even
        distinct objects with equal content) share one payload entry.
        The parent side of a sweep registers every task's instance,
        then ships :meth:`payloads` to each worker once.
        """
        key = instance_key(instance)
        with self._lock:
            if key not in self._payloads:
                self._payloads[key] = pickle.dumps(instance)
            _lru_store(self._live, self._max_live, key, instance)
        return key

    def payloads(self) -> Dict[str, bytes]:
        """A snapshot of the payload tier (what the runner ships)."""
        with self._lock:
            return dict(self._payloads)

    def payload_bytes(self) -> int:
        """Total pickled bytes held — the per-worker shipping cost."""
        with self._lock:
            return sum(len(blob) for blob in self._payloads.values())

    @classmethod
    def from_payloads(
        cls,
        payloads: Mapping[str, bytes],
        max_live: Optional[int] = None,
    ) -> "InstanceRegistry":
        """Rebuild a registry worker-side from shipped payloads."""
        registry = cls(max_live=max_live)
        registry._payloads.update(payloads)
        return registry

    # -- live tier -----------------------------------------------------

    def get(self, key: str) -> object:
        """The decoded instance for ``key``; decodes on a live miss.

        An instance evicted from the live tier is transparently
        *refetched* — re-decoded from its stored payload — so eviction
        is purely a memory/speed trade, never a correctness event.
        Raises ``KeyError`` for a key that was never registered.
        """
        with self._lock:
            if key in self._live:
                self._live.move_to_end(key)
                _metric_inc("runtime.registry_hits")
                return self._live[key]
            _metric_inc("runtime.registry_misses")
            blob = self._payloads.get(key)
            if blob is None:
                raise KeyError(f"instance key not registered: {key!r}")
            instance = pickle.loads(blob)
            _metric_inc("runtime.registry_decodes")
            _lru_store(self._live, self._max_live, key, instance)
            return instance

    def canonical(self, key: str, instance: object) -> object:
        """Deduplicate an already-decoded ``instance`` under ``key``.

        The service-daemon path: the caller decoded the wire payload
        itself and supplies an arbitrary stable key (the daemon uses
        canonical request JSON).  A live hit returns the previously
        retained object — so repeated requests share cost-cache token
        memoization and compiled kernels — otherwise ``instance``
        itself is retained and returned.  The payload tier is not
        touched: the daemon re-decodes from the wire on a miss anyway,
        and an unbounded pickled-payload map would leak in a
        long-running process.
        """
        if self._max_live == 0:
            return instance
        with self._lock:
            if key in self._live:
                self._live.move_to_end(key)
                _metric_inc("runtime.registry_hits")
                return self._live[key]
            _metric_inc("runtime.registry_misses")
            _lru_store(self._live, self._max_live, key, instance)
            return instance
