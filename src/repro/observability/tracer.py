"""Hierarchical span tracing with per-span counters.

The benchmark layer needs to answer "where did the time go" when a
heuristic is driven across a hardness-gap instance: which reduction
stage dominated, how many cost evaluations each optimizer performed,
how deep the subproblem lattice grew.  A :class:`Tracer` records a tree
of *spans* — named, nested, wall-clocked intervals — each carrying an
integer counter map (``cost_evaluations``, ``cache_hits``,
``plans_explored``, ...).

Design constraints, in order:

1. **Zero-overhead default.**  When no tracer is installed, the
   module-level :func:`span` / :func:`count` helpers cost one global
   read (and, for ``span``, return a shared no-op context manager).
   Instrumented code never checks a flag itself.
2. **Exception safety.**  Spans close via ``with``-block unwinding, so
   a task timeout (:class:`~repro.runtime.runner.SweepTimeout`) or any
   optimizer error still yields a complete, well-nested trace.
   :meth:`Tracer.finish` additionally force-closes anything left open.
3. **Picklability.**  Finished spans are plain dicts, so per-worker
   traces travel back through a multiprocessing pool unchanged and the
   parent can merge them deterministically.

A tracer is installed for the current thread's dynamic extent with
:func:`use_tracer` (mirroring :func:`repro.runtime.costcache.use_cache`).

Span record layout (the in-memory form of one ``repro.trace/1`` line)::

    {"id": int,            # unique within the trace, creation order
     "parent": int | None, # id of the enclosing span (None for roots)
     "name": str,          # e.g. "optimize.dp", "reduce.f_N"
     "start_s": float,     # offset from the trace origin (or, after a
                           #  cross-process merge, from the subtree's
                           #  local origin)
     "duration_s": float,  # wall-clock span length
     "counters": {str: int},
     "attrs": {str: ...}}  # optional, e.g. task label/optimizer
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: The active tracer of each thread; holds an entry only while the
#: thread is inside a :func:`use_tracer` block, so concurrent threads
#: can each trace their own unit of work without clobbering each
#: other.  No entry, or a ``None`` one, means "tracing off".
_TLS = threading.local()

_UNSET = object()


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens ``name`` on enter, closes on exit."""

    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._record: Optional[dict] = None

    def __enter__(self) -> "_SpanHandle":
        self._record = self._tracer._open(self._name)
        return self

    def __exit__(self, *_exc: object) -> None:
        self._tracer._close(self._record)
        self._record = None


class Tracer:
    """Collects a tree of spans; one instance per traced extent.

    A root span (``root_name``) is opened at construction so counters
    reported outside any explicit span still land somewhere.  Call
    :meth:`finish` to close it (and anything an exception left open)
    and obtain the finished records.
    """

    __slots__ = ("_origin", "_records", "_stack", "_next_id", "_finished")

    def __init__(self, root_name: str = "trace") -> None:
        self._origin = time.perf_counter()
        self._records: List[dict] = []
        self._stack: List[dict] = []
        self._next_id = 0
        self._finished = False
        self._open(root_name)

    def _open(self, name: str) -> dict:
        record = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start_s": time.perf_counter() - self._origin,
            "duration_s": 0.0,
            "counters": {},
        }
        self._next_id += 1
        # Appending at open time keeps the record list topologically
        # sorted: every parent precedes its children.
        self._records.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: Optional[dict]) -> None:
        if record is None or not self._stack:
            return
        now = time.perf_counter() - self._origin
        # Unwind to (and including) the given record; intermediate
        # spans can only be left open by an exception that bypassed
        # their __exit__, which cannot happen with `with` blocks, but
        # close them defensively anyway.
        while self._stack:
            top = self._stack.pop()
            top["duration_s"] = now - top["start_s"]
            if top is record:
                break

    def span(self, name: str) -> _SpanHandle:
        """A context manager recording ``name`` as a child of the
        innermost open span."""
        return _SpanHandle(self, name)

    def count(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to ``key`` on the innermost open span."""
        target = self._stack[-1] if self._stack else self._records[0]
        counters = target["counters"]
        counters[key] = counters.get(key, 0) + amount

    @property
    def root(self) -> dict:
        """The root span record (valid before and after finish)."""
        return self._records[0]

    @property
    def current_span_id(self) -> int:
        """Id of the innermost open span (the root when none is)."""
        target = self._stack[-1] if self._stack else self._records[0]
        return int(target["id"])

    def graft(
        self, records: Sequence[dict], origin: Optional[str] = None
    ) -> None:
        """Adopt a finished span subtree under the innermost open span.

        ``records`` must be topologically sorted (every parent precedes
        its children — any finished trace is).  They are renumbered
        into this tracer's id space; roots become children of the
        current span.  This is how a server-side trace returned over
        RPC is stitched into the client's trace.  ``origin``, when
        given, tags each grafted root's attrs so reports can flag the
        clock-domain boundary (grafted ``start_s`` offsets are local to
        the remote origin; durations and counters are exact).
        """
        if not records:
            return
        parent_id = self.current_span_id
        id_map: Dict[int, int] = {}
        for record in records:
            merged = dict(record)
            new_id = self._next_id
            self._next_id += 1
            id_map[record["id"]] = new_id
            merged["id"] = new_id
            old_parent = record["parent"]
            if old_parent is None or old_parent not in id_map:
                merged["parent"] = parent_id
                if origin is not None:
                    attrs = dict(merged.get("attrs", {}))
                    attrs["origin"] = origin
                    merged["attrs"] = attrs
            else:
                merged["parent"] = id_map[old_parent]
            self._records.append(merged)

    def finish(self) -> List[dict]:
        """Close every open span (root included); return the records.

        Idempotent: repeated calls return the same list.
        """
        if not self._finished:
            self._close(self._records[0])
            self._finished = True
        return self._records

    def records(self) -> List[dict]:
        """The records collected so far (finished or not)."""
        return self._records


def active_tracer() -> Optional[Tracer]:
    """The tracer of the current thread's innermost :func:`use_tracer`
    extent, or None outside any extent."""
    return _TLS.__dict__.get("tracer")


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` for the dynamic extent of the ``with`` block.

    The installation is scoped to the current thread, so concurrent
    extents in different threads each see their own tracer;
    ``use_tracer(None)`` masks an enclosing extent's tracer within the
    block.
    """
    previous = _TLS.__dict__.get("tracer", _UNSET)
    _TLS.tracer = tracer
    try:
        yield tracer
    finally:
        if previous is _UNSET:
            del _TLS.tracer
        else:
            _TLS.tracer = previous


def span(name: str) -> object:
    """Open a span on the active tracer; no-op when tracing is off."""
    tracer = _TLS.__dict__.get("tracer")
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def count(key: str, amount: int = 1) -> None:
    """Bump a counter on the active span; no-op when tracing is off."""
    tracer = _TLS.__dict__.get("tracer")
    if tracer is not None:
        tracer.count(key, amount)


def traced(
    name: str, explored_counter: str = "plans_explored"
) -> Callable[[Callable], Callable]:
    """Decorator: run the function under a span named ``name``.

    When the wrapped function returns an object with an integer
    ``explored`` attribute (every optimizer result does), its value is
    recorded on the span as ``explored_counter`` — the per-span "plans
    examined" attribution the benchmarks report.

    With no active tracer the wrapper is a single global read plus one
    call frame; the function behaves exactly as before.
    """
    import functools

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            tracer = _TLS.__dict__.get("tracer")
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
                explored = getattr(result, "explored", None)
                if isinstance(explored, int) and explored > 0:
                    tracer.count(explored_counter, explored)
                return result

        return wrapper

    return decorate


def counter_totals(records: List[dict]) -> Dict[str, int]:
    """Sum every counter over all spans of a trace."""
    totals: Dict[str, int] = {}
    for record in records:
        for key, value in record["counters"].items():
            totals[key] = totals.get(key, 0) + value
    return totals
