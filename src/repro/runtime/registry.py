"""Content-addressed instance registry (``repro.runtime.registry``).

Sweeping a gap-family grid runs the *same* handful of reduction
instances through many optimizers.  Shipping a pickled copy of the
instance with every parallel task would have every worker decode it
once per task, and each decode is a fresh object, so the compiled
kernels of :mod:`repro.perf.kernels` — pure functions of the instance,
memoized per *live object* — would be rebuilt for every task.

:class:`InstanceRegistry` stores one pickled payload per *distinct*
instance, keyed by :func:`instance_key` (the same codec fingerprint
the journal and service fingerprints build on).  The sweep runner
registers every task's instance, ships the payload map to each worker
process once, through the fork that starts it, and dispatches tasks
carrying an :class:`InstanceRef` instead of a payload.  A worker's
registry decodes each payload the first time a task asks for it and
keeps the decoded object for the worker's life, so every task of one
instance gets the
same object and, under the worker's kernel retention scope
(:func:`repro.perf.kernels.retain_kernels`), the same compiled kernel.

Determinism: the registry only changes *which object* an optimizer
receives, never its content — a decode of a payload is structurally
equal to the registered instance, and every optimizer is a pure
function of instance content.  The differential tests in
``tests/test_runtime_registry.py`` pin bit-identical outcomes (value,
type, ``repr``) against the serial runner.

Construction is confined to :mod:`repro.runtime` (lint rule RPR013):
everything else goes through the runner API, which owns worker
lifetime.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.observability.metrics import inc as _metric_inc
from repro.runtime.costcache import fingerprint as _instance_fingerprint


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


@dataclass(frozen=True)
class InstanceRef:
    """Picklable stand-in for an instance already shipped to workers.

    Tasks dispatched through the registry path carry one of these in
    their ``instance`` slot; the worker swaps it back for the decoded
    instance before execution (``runner._run_chunk``).
    """

    key: str


class InstanceRegistry:
    """Content-addressed store of problem instances: one pickled
    payload per distinct instance, each decoded at most once.

    A registry belongs to one thread: the sweep's parent registers and
    ships, a worker process decodes.
    """

    __slots__ = ("_payloads", "_decoded")

    def __init__(self) -> None:
        self._payloads: Dict[str, bytes] = {}
        self._decoded: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._payloads)

    def register(self, instance: object) -> str:
        """Store ``instance``'s pickled payload; return its content key.

        Idempotent per distinct content: repeated instances (even
        distinct objects with equal content) share one payload entry.
        The parent side of a sweep registers every task's instance,
        then ships :meth:`payloads` to each worker once.
        """
        key = instance_key(instance)
        if key not in self._payloads:
            self._payloads[key] = pickle.dumps(instance)
        return key

    def payloads(self) -> Dict[str, bytes]:
        """A snapshot of the stored payloads (what the runner ships)."""
        return dict(self._payloads)

    def payload_bytes(self) -> int:
        """Total pickled bytes held — the per-worker shipping cost."""
        return sum(len(blob) for blob in self._payloads.values())

    @classmethod
    def from_payloads(
        cls, payloads: Mapping[str, bytes]
    ) -> "InstanceRegistry":
        """Rebuild a registry worker-side from shipped payloads."""
        registry = cls()
        registry._payloads.update(payloads)
        return registry

    def get(self, key: str) -> object:
        """The decoded instance for ``key``: decoded on the first call
        (``runtime.registry_misses``), the same object on every later
        one (``runtime.registry_hits``).

        Raises ``KeyError`` for a key that was never registered.
        """
        if key in self._decoded:
            _metric_inc("runtime.registry_hits")
            return self._decoded[key]
        blob = self._payloads.get(key)
        if blob is None:
            raise KeyError(f"instance key not registered: {key!r}")
        _metric_inc("runtime.registry_misses")
        instance = self._decoded[key] = pickle.loads(blob)
        return instance
