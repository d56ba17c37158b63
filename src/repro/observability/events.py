"""Structured operational event log (``repro.events/1`` JSONL).

Metrics (:mod:`repro.observability.metrics`) aggregate; events narrate.
An :class:`EventLog` appends one JSON object per line describing a
discrete thing that happened — a sweep task finishing, the daemon
rejecting a request under load, a worker dying mid-chunk — so an
operator can reconstruct *sequence*, not just totals.

The event taxonomy is pinned in :data:`EVENT_KINDS`:

* ``task.start`` / ``task.finish`` / ``task.retry`` /
  ``task.worker_death`` — sweep-executor lifecycle (emitted on the
  parent side as outcomes/attempts are observed, so one log describes
  one sweep regardless of worker count);
* ``service.admit`` / ``service.reject`` / ``service.coalesce`` /
  ``service.evict`` — daemon admission-control decisions;
* ``service.slow_request`` — a request whose wall time exceeded the
  daemon's ``--slow-ms`` threshold (sampled: every ``sample_every``-th
  slow request is written, so a pathological workload cannot turn the
  event log into a hot path).

Like the tracer and metrics registry, emission is zero-overhead when
no log is installed: the module-level :func:`emit` helper is one
global read.  Writes append under a lock with per-line flush, so a
crashed process leaves a valid (possibly truncated-by-one) JSONL file.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import IO, Iterator, List, Mapping, Optional, Tuple, Union

from repro.utils.validation import require

#: Schema tag stamped on every event line.
EVENTS_SCHEMA = "repro.events/1"

#: The closed event taxonomy; :meth:`EventLog.emit` rejects anything
#: outside it so downstream consumers can switch exhaustively.
EVENT_KINDS: Tuple[str, ...] = (
    "task.start",
    "task.finish",
    "task.retry",
    "task.worker_death",
    "service.admit",
    "service.reject",
    "service.coalesce",
    "service.evict",
    "service.slow_request",
)

#: The active log of each thread, set by :func:`use_event_log`.
_TLS = threading.local()
_UNSET = object()


class EventLog:
    """Thread-safe append-only ``repro.events/1`` writer.

    ``sink`` is a path (opened for append) or an already-open text
    stream (not closed by :meth:`close` — the caller owns it).
    ``slow_ms`` and ``sample_every`` configure
    :meth:`observe_latency`'s slow-request sampling.
    """

    def __init__(
        self,
        sink: Union[str, IO[str]],
        slow_ms: Optional[float] = None,
        sample_every: int = 1,
    ) -> None:
        require(sample_every >= 1, "sample_every must be >= 1")
        require(
            slow_ms is None or slow_ms >= 0,
            "slow_ms must be None or >= 0",
        )
        if isinstance(sink, str):
            self._stream: IO[str] = open(sink, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._lock = threading.Lock()
        self._slow_ms = slow_ms
        self._sample_every = sample_every
        self._slow_seen = 0
        self._emitted = 0
        self._closed = False

    @property
    def emitted(self) -> int:
        """How many events have been written so far."""
        with self._lock:
            return self._emitted

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event line; no-op after :meth:`close`.

        ``fields`` must be JSON-serializable and must not collide with
        the envelope keys (``schema``/``ts``/``kind``).
        """
        require(kind in EVENT_KINDS, f"unknown event kind: {kind!r}")
        for reserved in ("schema", "ts", "kind"):
            require(
                reserved not in fields,
                f"event field {reserved!r} is reserved",
            )
        record = {"schema": EVENTS_SCHEMA, "ts": time.time(), "kind": kind}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._closed:
                return
            self._stream.write(line + "\n")
            self._stream.flush()
            self._emitted += 1

    def replay(self, lines: str) -> None:
        """Append event lines another log wrote — a daemon worker
        process's in-memory log — with their own stamps; no-op after
        :meth:`close`."""
        if not lines:
            return
        with self._lock:
            if self._closed:
                return
            self._stream.write(lines)
            self._stream.flush()
            self._emitted += lines.count("\n")

    def observe_latency(self, wall_time_s: float, **fields: object) -> bool:
        """Emit a sampled ``service.slow_request`` if over threshold.

        Returns True when an event was written.  With no ``slow_ms``
        configured this is a no-op; otherwise every slow request is
        *counted* but only every ``sample_every``-th one is written.
        """
        if self._slow_ms is None:
            return False
        wall_ms = wall_time_s * 1000.0
        if wall_ms < self._slow_ms:
            return False
        with self._lock:
            self._slow_seen += 1
            sampled = (self._slow_seen - 1) % self._sample_every == 0
        if sampled:
            self.emit(
                "service.slow_request",
                wall_ms=wall_ms,
                threshold_ms=self._slow_ms,
                **fields,
            )
        return sampled

    def close(self) -> None:
        """Flush and (if this log opened its file) close the sink."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()


def validate_event(record: Mapping[str, object]) -> List[str]:
    """Schema problems in one ``repro.events/1`` record ([] = ok)."""
    problems: List[str] = []
    if record.get("schema") != EVENTS_SCHEMA:
        problems.append(
            f"schema is {record.get('schema')!r}, want {EVENTS_SCHEMA!r}"
        )
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"unknown event kind: {kind!r}")
    ts = record.get("ts")
    if (
        not isinstance(ts, (int, float))
        or isinstance(ts, bool)
        or not math.isfinite(float(ts))
    ):
        problems.append("ts must be a finite number")
    return problems


def load_events(path: str) -> List[dict]:
    """Read and validate a ``repro.events/1`` JSONL file.

    Raises ``ValueError`` naming the first malformed line; blank lines
    are ignored (a crash mid-write can truncate the final line — that
    surfaces as a JSON error, deliberately, rather than silent loss).
    """
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            problems = validate_event(record)
            if problems:
                raise ValueError(f"{path}:{lineno}: {problems[0]}")
            events.append(record)
    return events


def active_event_log() -> Optional[EventLog]:
    """The log of the current thread's innermost :func:`use_event_log`
    extent, or None outside any extent."""
    return _TLS.__dict__.get("events")


@contextmanager
def use_event_log(log: Optional[EventLog]) -> Iterator[Optional[EventLog]]:
    """Install ``log`` for the current thread's dynamic extent;
    ``use_event_log(None)`` masks an enclosing extent's log."""
    previous = _TLS.__dict__.get("events", _UNSET)
    _TLS.events = log
    try:
        yield log
    finally:
        if previous is _UNSET:
            del _TLS.events
        else:
            _TLS.events = previous


def emit(kind: str, **fields: object) -> None:
    """Emit an event on the active log; no-op when logging is off (a
    single global read)."""
    log = _TLS.__dict__.get("events")
    if log is not None:
        log.emit(kind, **fields)
