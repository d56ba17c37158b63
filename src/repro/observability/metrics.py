"""Process-wide live metrics: counters, gauges, exact histograms.

The tracer (:mod:`repro.observability.tracer`) answers "where did the
time go" *after* a run finishes; this module answers "what is the
system doing *right now*".  A :class:`MetricsRegistry` holds three
kinds of instruments, all addressed by dotted, namespaced names
(``service.queue_depth``, ``runtime.cost_evaluations``,
``perf.kernel_compiles``):

* **counters** — monotonic non-negative integers (:meth:`inc`);
* **gauges** — last-write-wins numeric levels (:meth:`set_gauge`);
* **histograms** — fixed-boundary distributions with *exact integer*
  bucket counts (:meth:`observe`): no sampling, no decay, so counter
  identities (``sum of buckets == count``) hold bit-exactly.

Design constraints mirror the tracer, in order:

1. **Zero-overhead default.**  When no registry is installed the
   module-level :func:`inc` / :func:`set_gauge` / :func:`observe`
   helpers cost one global read and return.  Instrumented hot paths
   (cost-cache lookups, registry gets) never check a flag themselves.
2. **Thread safety with exactness.**  Every mutation takes the
   registry lock; N threads performing M increments each always sum to
   exactly N*M.  The lock is held for a dict update only — no I/O.
3. **Snapshot isolation.**  :meth:`snapshot` returns a deep, plain-dict
   ``repro.metrics/1`` record decoupled from live state, safe to hand
   to the exporter thread or serialize over the service RPC.

A registry is installed for the current thread's dynamic extent with
:func:`use_metrics` (mirroring
:func:`~repro.observability.tracer.use_tracer`).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.utils.validation import require

#: Schema tag stamped on every exported metrics snapshot line.
METRICS_SCHEMA = "repro.metrics/1"

#: Default latency histogram boundaries, in milliseconds.  Chosen to
#: bracket the service daemon's observed request range: sub-millisecond
#: cache hits up to multi-second cold sweeps.
LATENCY_BOUNDARIES_MS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)

#: The active registry of each thread; holds an entry only while the
#: thread is inside a :func:`use_metrics` block.  No entry, or a
#: ``None`` one, means "metrics off".
_TLS = threading.local()

_UNSET = object()


class _Histogram:
    """Fixed-boundary histogram with exact integer bucket counts.

    ``boundaries`` are strictly increasing upper bounds; bucket ``i``
    counts observations ``v <= boundaries[i]`` (first match wins) and a
    final overflow bucket counts everything above the last boundary, so
    ``len(buckets) == len(boundaries) + 1`` and ``sum(buckets)``
    always equals ``count``.
    """

    __slots__ = ("boundaries", "buckets", "count", "total")

    def __init__(self, boundaries: Sequence[float]) -> None:
        require(len(boundaries) > 0, "histogram needs at least one boundary")
        previous = None
        for bound in boundaries:
            require(
                math.isfinite(float(bound)),
                "histogram boundaries must be finite",
            )
            require(
                previous is None or float(bound) > previous,
                "histogram boundaries must be strictly increasing",
            )
            previous = float(bound)
        self.boundaries: Tuple[float, ...] = tuple(
            float(bound) for bound in boundaries
        )
        self.buckets: List[int] = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = len(self.boundaries)
        for i, bound in enumerate(self.boundaries):
            if value <= bound:
                index = i
                break
        self.buckets[index] += 1
        self.count += 1
        self.total += value

    def percentile(self, q: int) -> float:
        """Nearest-rank percentile estimated from bucket upper bounds.

        Returns the upper boundary of the bucket containing the q-th
        percentile observation (the last finite boundary for overflow),
        or 0.0 when nothing has been observed.
        """
        require(0 < q <= 100, "percentile out of range")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for i, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= rank:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.boundaries[-1]
        return self.boundaries[-1]


# Metric names are dotted identifiers: `namespace.metric`.
def _valid_name(name: str) -> bool:
    if not name or "." not in name:
        return False
    for part in name.split("."):
        if not part or not part.replace("_", "a").isalnum():
            return False
        if part[0].isdigit():
            return False
    return True


class MetricsRegistry:
    """Thread-safe process-wide registry of live instruments.

    One instance per telemetry domain (the service daemon owns one for
    its lifetime; tests build throwaways).  All three instrument kinds
    share a single lock: contention is negligible because the critical
    sections are single dict updates, and a single lock makes
    :meth:`snapshot` a consistent cut across every instrument.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms", "_start", "_seq")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._start = time.time()
        self._seq = 0

    # -- instruments ---------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (a non-negative int) to counter ``name``."""
        require(_valid_name(name), f"bad metric name: {name!r}")
        require(
            isinstance(amount, int) and not isinstance(amount, bool)
            and amount >= 0,
            "counter increments must be non-negative ints",
        )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        require(_valid_name(name), f"bad metric name: {name!r}")
        require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(float(value)),
            "gauge values must be finite numbers",
        )
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        boundaries: Sequence[float] = LATENCY_BOUNDARIES_MS,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        The histogram is created with ``boundaries`` on first touch;
        later calls ignore the argument (the first declaration pins the
        buckets for the registry's lifetime).
        """
        require(_valid_name(name), f"bad metric name: {name!r}")
        require(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(float(value)),
            "histogram observations must be finite numbers",
        )
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = _Histogram(boundaries)
                self._histograms[name] = histogram
            histogram.observe(float(value))

    # -- reading -------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A consistent ``repro.metrics/1`` cut of every instrument.

        ``seq`` increments per snapshot so exported lines are totally
        ordered even if the wall clock steps backwards.
        """
        now = time.time()
        with self._lock:
            self._seq += 1
            return {
                "schema": METRICS_SCHEMA,
                "seq": self._seq,
                "ts": now,
                "uptime_s": max(0.0, now - self._start),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "boundaries": list(histogram.boundaries),
                        "buckets": list(histogram.buckets),
                        "count": histogram.count,
                        "sum": histogram.total,
                    }
                    for name, histogram in self._histograms.items()
                },
            }


def validate_metrics(snapshot: Mapping[str, object]) -> List[str]:
    """Schema problems in one ``repro.metrics/1`` snapshot ([] = ok)."""
    problems: List[str] = []
    if snapshot.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema is {snapshot.get('schema')!r}, want {METRICS_SCHEMA!r}"
        )
    seq = snapshot.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
        problems.append("seq must be a positive int")
    for field in ("ts", "uptime_s"):
        value = snapshot.get(field)
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not math.isfinite(float(value))
        ):
            problems.append(f"{field} must be a finite number")
    counters = snapshot.get("counters")
    if not isinstance(counters, Mapping):
        problems.append("counters must be a mapping")
    else:
        for name, value in counters.items():
            if not isinstance(name, str) or not _valid_name(name):
                problems.append(f"bad counter name: {name!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"counter {name!r} must be a non-negative int")
    gauges = snapshot.get("gauges")
    if not isinstance(gauges, Mapping):
        problems.append("gauges must be a mapping")
    else:
        for name, value in gauges.items():
            if not isinstance(name, str) or not _valid_name(name):
                problems.append(f"bad gauge name: {name!r}")
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(float(value))
            ):
                problems.append(f"gauge {name!r} must be a finite number")
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, Mapping):
        problems.append("histograms must be a mapping")
    else:
        for name, spec in histograms.items():
            if not isinstance(name, str) or not _valid_name(name):
                problems.append(f"bad histogram name: {name!r}")
            if not isinstance(spec, Mapping):
                problems.append(f"histogram {name!r} must be a mapping")
                continue
            boundaries = spec.get("boundaries")
            buckets = spec.get("buckets")
            count = spec.get("count")
            if not isinstance(boundaries, list) or not boundaries:
                problems.append(f"histogram {name!r} boundaries must be a list")
                continue
            if not isinstance(buckets, list) or len(buckets) != len(boundaries) + 1:
                problems.append(
                    f"histogram {name!r} needs len(boundaries)+1 buckets"
                )
                continue
            if any(
                not isinstance(b, int) or isinstance(b, bool) or b < 0
                for b in buckets
            ):
                problems.append(
                    f"histogram {name!r} buckets must be non-negative ints"
                )
                continue
            if not isinstance(count, int) or sum(buckets) != count:
                problems.append(
                    f"histogram {name!r} bucket sum must equal count"
                )
    return problems


def snapshot_percentile(
    histogram: Mapping[str, object], q: int
) -> float:
    """Nearest-rank percentile from one snapshot histogram payload.

    ``histogram`` is one value of a snapshot's ``histograms`` mapping
    (``repro top`` feeds the daemon's ``service.latency_ms`` here).
    """
    boundaries = histogram.get("boundaries")
    buckets = histogram.get("buckets")
    require(
        isinstance(boundaries, (list, tuple))
        and isinstance(buckets, (list, tuple)),
        "histogram payload needs boundaries and buckets lists",
    )
    assert isinstance(boundaries, (list, tuple))
    assert isinstance(buckets, (list, tuple))
    hist = _Histogram([float(b) for b in boundaries])
    hist.buckets = [int(b) for b in buckets]
    hist.count = sum(hist.buckets)
    return hist.percentile(q)


def active_metrics() -> Optional[MetricsRegistry]:
    """The registry of the current thread's innermost
    :func:`use_metrics` extent, or None outside any extent."""
    return _TLS.__dict__.get("metrics")


@contextmanager
def use_metrics(
    registry: Optional[MetricsRegistry],
) -> Iterator[Optional[MetricsRegistry]]:
    """Install ``registry`` for the dynamic extent of the ``with``
    block, scoped to the current thread; ``use_metrics(None)`` masks
    an enclosing extent's registry within the block."""
    previous = _TLS.__dict__.get("metrics", _UNSET)
    _TLS.metrics = registry
    try:
        yield registry
    finally:
        if previous is _UNSET:
            del _TLS.metrics
        else:
            _TLS.metrics = previous


def inc(name: str, amount: int = 1) -> None:
    """Bump a counter on the active registry; no-op when metrics are
    off (a single global read)."""
    registry = _TLS.__dict__.get("metrics")
    if registry is not None:
        registry.inc(name, amount)
