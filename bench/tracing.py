"""Spans recorded by the benchmark, and per-layer self time from them.

The benchmark records spans from its own files only, around its calls
into each layer; spans the program records itself (sweep task trees,
server-side request trees, ``optimize.*``) arrive grafted under them.

Self time of a span is its duration minus the part of it that its
children cover.  Three kinds of children cover time differently:

* children on the same clock (recorded by the same tracer) cover the
  union of their ``[start, start + duration]`` intervals;
* a grafted subtree (its root carries an ``origin`` attr) keeps the
  clock of the tracer that recorded it, so its interval cannot be
  placed; it ran while the parent waited, so it covers its duration;
* the children of a span with a ``parallel = k`` attr ran on ``k``
  workers at once (a sweep's pool, the load generator's client
  threads): together they cover the sum of their durations over ``k``,
  and each descendant's self time counts ``1/k`` towards wall time.

A cached or coalesced reply carries the server-side trace of the
*originating* computation.  The benchmark marks such request spans
``reused``; the subtree grafted under them describes another request's
time and is left out.

Layer self times plus the unattributed residual (the self time of the
benchmark's own spans) reconcile with the root span only when no child
overran its parent; :func:`attribute` reports the mismatch.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.observability import Tracer

#: The benchmark's own spans: their self time is the unattributed
#: residual, not a layer of the program.
BENCH = "bench"

LAYERS = ("runtime", "joinopt", "hashjoin", "rpc", "service", "perf",
          "codec", "protocol")


@contextmanager
def span(tracer: Optional[Tracer], name: str) -> Iterator[Dict[str, Any]]:
    """A span on ``tracer`` (no-op when None); yields its attrs dict."""
    if tracer is None:
        yield {}
        return
    with tracer.span(name):
        # The tracer appends a record when a span opens.
        yield tracer.records()[-1].setdefault("attrs", {})


def layer_of(record: Dict[str, Any]) -> str:
    """The layer a span's self time belongs to."""
    name = record["name"]
    if name.startswith("probe."):
        return name.split(".")[1]
    if name.startswith("optimize.qoh_"):
        return "hashjoin"
    if name.startswith("optimize."):
        return "joinopt"
    if name in ("runtime.sweep", "sweep", "task"):
        return "runtime"
    if name == "service.optimize":
        # The client opens one, the server another (grafted, so it
        # carries an origin): round trip minus server time is rpc.
        return "service" if "origin" in record.get("attrs", {}) else "rpc"
    if name.startswith("execute."):
        return "service"
    return BENCH


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def attribute(
    records: List[Dict[str, Any]], root_id: int
) -> Tuple[Dict[str, float], float, float]:
    """``(layer -> seconds, unattributed seconds, error)`` for one root.

    ``error`` is ``|sum(layers) + unattributed - root| / root``; it is
    zero when every child fits inside its parent.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        children.setdefault(record["parent"], []).append(record)
    by_id = {record["id"]: record for record in records}
    layers = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    stack = [(by_id[root_id], 1.0, False)]
    while stack:
        record, weight, reused = stack.pop()
        attrs = record.get("attrs", {})
        reused = reused or bool(attrs.get("reused"))
        kids = [
            kid for kid in children.get(record["id"], [])
            if not (reused and "origin" in kid.get("attrs", {}))
        ]
        workers = attrs.get("parallel", 1)
        if workers > 1:
            covered = sum(kid["duration_s"] for kid in kids) / workers
        else:
            start = record["start_s"]
            stop = start + record["duration_s"]
            local = [
                (max(kid["start_s"], start),
                 min(kid["start_s"] + kid["duration_s"], stop))
                for kid in kids if "origin" not in kid.get("attrs", {})
            ]
            covered = _union([(a, b) for a, b in local if b > a]) + sum(
                kid["duration_s"] for kid in kids
                if "origin" in kid.get("attrs", {})
            )
        own = max(record["duration_s"] - covered, 0.0) * weight
        layer = layer_of(record)
        if layer == BENCH:
            unattributed += own
        else:
            layers[layer] += own
        for kid in kids:
            stack.append((kid, weight / workers, reused))
    root = by_id[root_id]["duration_s"]
    error = abs(sum(layers.values()) + unattributed - root) / root
    return layers, unattributed, error


def concat(*traces: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Several finished traces as one record list with several roots."""
    out: List[Dict[str, Any]] = []
    for records in traces:
        offset = max((record["id"] for record in out), default=-1) + 1
        for record in records:
            moved = dict(record)
            moved["id"] = record["id"] + offset
            if record["parent"] is not None:
                moved["parent"] = record["parent"] + offset
            out.append(moved)
    return out
