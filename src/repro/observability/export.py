"""Telemetry export: periodic ``repro.metrics/1`` snapshots.

A :class:`TelemetryExporter` owns a daemon thread that calls a
snapshot function every ``interval_s`` seconds and appends the
(schema-checked) ``repro.metrics/1`` snapshot as one JSONL line.  The
final snapshot is written unconditionally at :meth:`stop`, so even a
short-lived daemon leaves at least one line — the CI smoke job asserts
its counter identities.

File-level helpers (:func:`load_metrics_file`,
:func:`summarize_metrics`, :func:`diff_metrics`) back the
``repro metrics`` CLI verb.
"""

from __future__ import annotations

import json
import threading
from typing import IO, Callable, Dict, List, Optional, Union

from repro.observability.metrics import METRICS_SCHEMA, validate_metrics
from repro.utils.validation import require


class TelemetryExporter:
    """Background snapshot appender for one telemetry source.

    ``snapshot`` is a zero-argument callable returning a
    ``repro.metrics/1`` dict, such as ``MetricsRegistry.snapshot``.
    ``sink`` is a path (opened for append) or an open text stream (the
    caller keeps ownership).  Snapshots are validated before writing —
    a schema bug fails loudly in the exporter thread's caller via
    :meth:`stop` rather than corrupting the output file.
    """

    def __init__(
        self,
        snapshot: Callable[[], dict],
        sink: Union[str, IO[str]],
        interval_s: float = 1.0,
    ) -> None:
        require(interval_s > 0, "interval_s must be > 0")
        self._snapshot = snapshot
        if isinstance(sink, str):
            self._stream: IO[str] = open(sink, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = sink
            self._owns_stream = False
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    def write_snapshot(self) -> dict:
        """Snapshot, validate, and append one line immediately."""
        snapshot = self._snapshot()
        problems = validate_metrics(snapshot)
        require(not problems, f"invalid metrics snapshot: {problems[:1]}")
        line = json.dumps(snapshot, sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()
        return snapshot

    def start(self) -> None:
        """Start the background thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-exporter", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self.write_snapshot()

    def stop(self) -> dict:
        """Stop the thread, write one final snapshot, close the sink.

        Returns the final snapshot so callers (the daemon's drain path)
        can log closing totals without re-reading the file.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        final = self.write_snapshot()
        if self._owns_stream:
            self._stream.close()
        return final


def load_metrics_file(path: str) -> List[dict]:
    """Read and validate a JSONL file of ``repro.metrics/1`` lines.

    Raises ``ValueError`` naming the first offending line.  Every line
    must carry the ``repro.metrics/1`` tag — a file of another schema
    (a ``repro.trace/1`` trace, say) is a different artifact and is
    rejected here rather than half-parsed.
    """
    snapshots: List[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if record.get("schema") != METRICS_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: schema is {record.get('schema')!r},"
                    f" want {METRICS_SCHEMA!r}"
                )
            problems = validate_metrics(record)
            if problems:
                raise ValueError(f"{path}:{lineno}: {problems[0]}")
            snapshots.append(record)
    if not snapshots:
        raise ValueError(f"{path}: no metrics snapshots")
    return snapshots


def summarize_metrics(snapshots: List[dict]) -> str:
    """Human-readable summary of a snapshot series (final line wins).

    Counters are cumulative so the last snapshot carries the totals;
    the summary reports those plus the series length and time span.
    """
    require(len(snapshots) > 0, "no snapshots to summarize")
    last = snapshots[-1]
    span_s = last["ts"] - snapshots[0]["ts"] if len(snapshots) > 1 else 0.0
    out = [
        f"snapshots: {len(snapshots)}   span: {span_s:.1f}s"
        f"   uptime: {last['uptime_s']:.1f}s",
    ]
    if last["counters"]:
        out.append("counters:")
        for name in sorted(last["counters"]):
            out.append(f"  {name:<40} {last['counters'][name]}")
    if last["gauges"]:
        out.append("gauges:")
        for name in sorted(last["gauges"]):
            out.append(f"  {name:<40} {last['gauges'][name]}")
    for name in sorted(last["histograms"]):
        spec = last["histograms"][name]
        mean = spec["sum"] / spec["count"] if spec["count"] else 0.0
        out.append(
            f"histogram {name}: count={spec['count']} mean={mean:.3f}"
        )
    return "\n".join(out)


def diff_metrics(before: dict, after: dict) -> Dict[str, int]:
    """Counter movement between two snapshots (monotonic deltas).

    Returns ``{name: after - before}`` for every counter present in
    either snapshot; raises ``ValueError`` if any counter moved
    backwards (which would mean the snapshots come from different
    registry lifetimes and the diff is meaningless).
    """
    for snapshot in (before, after):
        problems = validate_metrics(snapshot)
        require(not problems, f"invalid metrics snapshot: {problems[:1]}")
    deltas: Dict[str, int] = {}
    names = set(before["counters"]) | set(after["counters"])
    for name in sorted(names):
        delta = after["counters"].get(name, 0) - before["counters"].get(name, 0)
        if delta < 0:
            raise ValueError(
                f"counter {name!r} moved backwards ({-delta}); snapshots"
                " are from different registry lifetimes"
            )
        deltas[name] = delta
    return deltas
