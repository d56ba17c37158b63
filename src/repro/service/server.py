"""The optimization service daemon (``repro serve``).

A long-running server speaking ``repro.rpc/1`` (newline-delimited JSON
frames, :mod:`repro.service.protocol`) over a local socket — AF_UNIX
when given a filesystem path, TCP on localhost otherwise.  One reader
thread per connection parses and validates frames; compute operations
pass through admission control into a bounded queue consumed by a
fixed worker pool; everything else (handshake, metrics, shutdown) is
answered inline.

What the admission path guarantees, in order:

1. **Result cache** — a request whose fingerprint was computed before
   is answered immediately from the bounded LRU result cache,
   bit-identically to the original computation (the cache stores the
   decoded reply object; the codec layer guarantees value/type/repr
   equality).  ``no_cache`` on the request bypasses this (and dedup)
   but still refreshes the cache.
2. **Dedup** — a request identical to one currently queued or running
   coalesces onto it: no second computation, one reply per requester
   when the shared computation finishes (``coalesced`` is set on the
   piggybacked replies).
3. **Backpressure** — when the pending queue is full (or the server is
   draining) the request is *rejected with an explicit retry-after
   reply*; nothing is ever silently dropped.

Workers run each computation through :func:`repro.api.execute_request`
— the only optimization entry point this package may touch (lint rule
RPR011) — under a per-worker-thread
:class:`~repro.runtime.costcache.CostCache` and a per-request
:class:`~repro.observability.tracer.Tracer`, so replies carry span
counter totals and optional span trees.  Decoded instances are kept in
a bounded keep-alive cache keyed by their wire payload, so repeated
requests against the same instance reuse the per-instance compiled
cost kernels (which are memoized per *live* object).

SIGTERM/SIGINT (or the ``shutdown`` op) triggers a graceful drain:
the listener closes, late requests get retry-after rejections, queued
work finishes, workers exit, and :meth:`OptimizationServer.shutdown`
returns the final ``repro.metrics/1`` snapshot — whose ``service.*``
admission counters sum to exactly the number of compute requests
received.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro import api
from repro.observability.events import EventLog, use_event_log
from repro.observability.export import TelemetryExporter
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracer import Tracer, counter_totals, use_tracer
from repro.service import protocol
from repro.utils.validation import ValidationError, require

Address = Union[str, Tuple[str, int]]

RequestLike = Union[api.OptimizeRequest, api.SweepSpec]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`OptimizationServer`.

    ``address`` — AF_UNIX socket path (str) or ``(host, port)`` tuple;
    ``port 0`` picks a free port (read it back from
    :attr:`OptimizationServer.address`).
    ``workers`` — worker threads = max in-flight computations.
    ``max_queue`` — pending requests admitted beyond the in-flight
    ones; the backpressure bound.
    ``retry_after_s`` — the hint attached to rejection replies.
    ``result_cache_size`` — result-cache entries (0 disables caching
    *and* dedup-by-cache, not dedup-by-inflight).
    ``instance_cache_size`` — decoded instances kept alive for
    compiled-kernel reuse.
    ``metrics_out`` — append ``repro.metrics/1`` snapshot lines here
    every ``metrics_interval_s`` seconds (None disables the exporter;
    the live registry and the ``metrics`` RPC op work either way).
    ``events_out`` — append ``repro.events/1`` lines here (None
    disables the event log).
    ``slow_ms`` — requests slower than this emit a sampled
    ``service.slow_request`` event (requires ``events_out``).
    """

    address: Address = ("127.0.0.1", 0)
    workers: int = 2
    max_queue: int = 32
    retry_after_s: float = 0.05
    result_cache_size: int = 256
    instance_cache_size: int = 64
    metrics_out: Optional[str] = None
    metrics_interval_s: float = 1.0
    events_out: Optional[str] = None
    slow_ms: Optional[float] = None


class _Job:
    """One admitted computation plus everyone waiting on it."""

    __slots__ = ("op", "request", "fingerprint", "waiters", "done")

    def __init__(
        self, op: str, request: RequestLike, fingerprint: str,
    ) -> None:
        self.op = op
        self.request = request
        self.fingerprint = fingerprint
        #: ``(connection, frame_id, coalesced)`` per requester.
        self.waiters: List[Tuple["_Connection", int, bool]] = []
        self.done = False


class _Connection:
    """One accepted socket with a write lock (readers never share)."""

    __slots__ = ("sock", "_write_lock", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._write_lock = threading.Lock()
        self.closed = False

    def send_frame(self, frame: Dict[str, Any]) -> None:
        """Write one frame; a dead peer marks the connection closed
        (the reply is undeliverable, not droppable — the peer left)."""
        data = protocol.encode_frame(frame)
        with self._write_lock:
            if self.closed:
                return
            try:
                self.sock.sendall(data)
            except OSError:
                self.closed = True

    def close(self) -> None:
        with self._write_lock:
            self.closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class OptimizationServer:
    """The daemon behind ``repro serve``; see the module docstring."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        require(self.config.workers >= 1, "need at least one worker")
        require(self.config.max_queue >= 1, "need a queue of at least 1")
        # The daemon's only telemetry store, one per server lifetime.
        # Each request's admission outcome is counted once, where it is
        # decided, so ``received == computed + cache_hits + coalesced +
        # rejected + errors`` holds in every snapshot at quiescence.
        self.metrics = MetricsRegistry()
        self._event_log: Optional[EventLog] = (
            EventLog(self.config.events_out, slow_ms=self.config.slow_ms)
            if self.config.events_out is not None else None
        )
        self._exporter: Optional[TelemetryExporter] = None
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: Deque[_Job] = deque()
        self._inflight: Dict[str, _Job] = {}
        self._running_count = 0
        self._results: "OrderedDict[str, api.ServiceReply]" = OrderedDict()
        # Keep-alive instance LRU, shared machinery with the sweep
        # runner: the live tier of the runtime's content-addressed
        # registry (internally locked; max_live=0 is pass-through).
        self._registry = api.InstanceRegistry(
            max_live=max(self.config.instance_cache_size, 0)
        )
        self._connections: List[_Connection] = []
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self._address: Optional[Address] = None
        self._stop_event = threading.Event()
        self._drained = threading.Condition(self._lock)
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    @property
    def address(self) -> Address:
        """Where clients connect (valid after :meth:`start`)."""
        require(self._address is not None, "server is not started")
        assert self._address is not None
        return self._address

    def start(self) -> Address:
        """Bind, listen, and launch the accept + worker threads."""
        require(not self._started, "server already started")
        self._started = True
        address = self.config.address
        if isinstance(address, str):
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(address)
            self._unix_path = address
            self._address = address
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            self._address = listener.getsockname()[:2]
        listener.listen(128)
        self._listener = listener
        if self.config.metrics_out is not None:
            self._exporter = TelemetryExporter(
                self.metrics_snapshot,
                self.config.metrics_out,
                interval_s=self.config.metrics_interval_s,
            )
            self._exporter.start()
        accept = threading.Thread(
            target=self._accept_loop, name="repro-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        return self._address

    def request_stop(self) -> None:
        """Ask the server to drain and stop (signal-handler safe)."""
        self._stop_event.set()
        with self._lock:
            self._work_ready.notify_all()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until a stop was requested (signal, shutdown op)."""
        return self._stop_event.wait(timeout)

    def shutdown(self, drain_timeout: float = 60.0) -> Dict[str, Any]:
        """Gracefully drain and stop; returns the final
        ``repro.metrics/1`` snapshot.

        Closes the listener (no new connections), lets admission
        reject late arrivals with retry-after, waits for every queued
        and running computation to finish and its replies to be sent,
        then stops the workers and closes the remaining connections.
        """
        self._stop_event.set()
        if self._listener is not None:
            try:
                # Wake the accept loop's blocked accept() before closing.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        deadline = time.monotonic() + drain_timeout
        with self._drained:
            while self._pending or self._running_count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._drained.wait(remaining)
            self._closed = True
            self._work_ready.notify_all()
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        if self._exporter is not None:
            # Final snapshot line: drained counters, settled identity.
            final = self._exporter.stop()
            self._exporter = None
        else:
            final = self.metrics_snapshot()
        if self._event_log is not None:
            self._event_log.close()
        return final

    def serve_forever(self) -> Dict[str, Any]:
        """Start (unless already started), handle SIGTERM/SIGINT as
        graceful drain, and block until stopped; returns the final
        ``repro.metrics/1`` snapshot."""
        if not self._started:
            self.start()
        try:
            signal.signal(signal.SIGTERM, lambda *_: self.request_stop())
            signal.signal(signal.SIGINT, lambda *_: self.request_stop())
        except ValueError:
            pass  # not the main thread; rely on request_stop()/shutdown op
        self._stop_event.wait()
        return self.shutdown()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The current ``repro.metrics/1`` payload: the only reader of
        the registry, behind the ``metrics`` op (which ``repro top``
        polls), the exporter's lines and the final drain snapshot.

        The daemon gauges are set here, at snapshot time, so every
        reader sees them and the request path never writes them.
        """
        with self._lock:
            queue_depth = len(self._pending)
            in_flight = self._running_count
        self.metrics.set_gauge("service.queue_depth", queue_depth)
        self.metrics.set_gauge("service.in_flight", in_flight)
        self.metrics.set_gauge("service.workers", self.config.workers)
        if self._event_log is not None:
            self.metrics.set_gauge(
                "service.events_logged", float(self._event_log.emitted)
            )
        return self.metrics.snapshot()

    # -- accept / read ------------------------------------------------

    def _accept_loop(self) -> None:
        # Keep accepting until the listener closes, even once a stop is
        # requested: a client that connected before the close must get
        # its "server draining" reject, not wait for ever.
        listener = self._listener
        assert listener is not None
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return  # listener closed: drain in progress
            connection = _Connection(sock)
            with self._lock:
                self._connections.append(connection)
            reader = threading.Thread(
                target=self._reader_loop,
                args=(connection,),
                name="repro-reader",
                daemon=True,
            )
            reader.start()

    def _reader_loop(self, connection: _Connection) -> None:
        stream = connection.sock.makefile(
            "rb", buffering=protocol.MAX_FRAME_BYTES
        )
        try:
            for line in stream:
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_line(line)
                except ValidationError:
                    return  # not even a JSON object: hang up
                self._handle_frame(connection, frame)
        except (OSError, ValueError):
            pass
        finally:
            stream.close()
            connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _handle_frame(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        frame_id = frame.get("id")
        if not isinstance(frame_id, int) or isinstance(frame_id, bool):
            frame_id = -1
        try:
            protocol.validate_request_frame(frame)
        except ValidationError as exc:
            self._send_reply(
                connection, frame_id,
                api.ServiceReply(op="error", status="error", error=str(exc)),
            )
            return
        op = frame["op"]
        if op == "hello":
            self._send_reply(
                connection, frame_id,
                api.ServiceReply(op="hello", result=api.capabilities()),
            )
        elif op == "metrics":
            self._send_reply(
                connection, frame_id,
                api.ServiceReply(
                    op="metrics", result=self.metrics_snapshot()
                ),
            )
        elif op == "shutdown":
            self._send_reply(
                connection, frame_id, api.ServiceReply(op="shutdown")
            )
            self.request_stop()
        else:
            self._admit(connection, frame_id, op, frame["payload"])

    # -- admission control --------------------------------------------

    def _decode_request(
        self, op: str, payload: Dict[str, Any]
    ) -> RequestLike:
        if op == "optimize":
            request = api.OptimizeRequest.from_dict(payload)
            return dataclasses.replace(
                request,
                instance=self._canonical_instance(
                    payload["instance"], request.instance
                ),
            )
        spec = api.SweepSpec.from_dict(payload)
        return dataclasses.replace(
            spec,
            instances=tuple(
                (label, self._canonical_instance(encoded, instance))
                for (label, instance), (_label, encoded)
                in zip(spec.instances, payload["instances"])
            ),
        )

    def _canonical_instance(
        self, encoded: Dict[str, Any], decoded: Any
    ) -> Any:
        """One live object per distinct instance payload.

        The compiled cost kernels are memoized per live instance, so
        serving repeated requests from the same decoded object makes
        every request after the first reuse the compiled kernel
        instead of recompiling it.  The LRU itself lives in
        :mod:`repro.runtime.registry` (via the :mod:`repro.api`
        facade) — the same live tier the chunked sweep runner's
        workers use — keyed here by the canonical request JSON.
        """
        if self.config.instance_cache_size <= 0:
            return decoded
        key = json.dumps(encoded, sort_keys=True)
        return self._registry.canonical(key, decoded)

    def _admit(
        self,
        connection: _Connection,
        frame_id: int,
        op: str,
        payload: Dict[str, Any],
    ) -> None:
        self.metrics.inc("service.received")
        try:
            request = self._decode_request(op, payload)
            fingerprint = request.fingerprint()
        except (ValidationError, KeyError, TypeError, ValueError) as exc:
            self.metrics.inc("service.errors")
            self._send_reply(
                connection, frame_id,
                api.ServiceReply(op=op, status="error", error=str(exc)),
            )
            return
        bypass = bool(request.no_cache)
        reply: Optional[api.ServiceReply] = None
        decision = "admit"
        with self._lock:
            if not bypass:
                cached = self._results.get(fingerprint)
                if cached is not None:
                    self._results.move_to_end(fingerprint)
                    self.metrics.inc("service.cache_hits")
                    reply = dataclasses.replace(cached, cached=True)
                else:
                    running = self._inflight.get(fingerprint)
                    if running is not None and not running.done:
                        running.waiters.append(
                            (connection, frame_id, True)
                        )
                        self.metrics.inc("service.coalesced")
                        decision = "coalesce"
            if reply is None and decision == "admit":
                if (
                    self._stop_event.is_set()
                    or len(self._pending) >= self.config.max_queue
                ):
                    self.metrics.inc("service.rejected")
                    decision = "reject"
                    reply = api.ServiceReply(
                        op=op,
                        status="rejected",
                        error=(
                            "server draining"
                            if self._stop_event.is_set()
                            else "queue full"
                        ),
                        retry_after=self.config.retry_after_s,
                        fingerprint=fingerprint,
                    )
                else:
                    job = _Job(op, request, fingerprint)
                    job.waiters.append((connection, frame_id, False))
                    if not bypass:
                        self._inflight[fingerprint] = job
                    self._pending.append(job)
                    self._work_ready.notify()
        # Event I/O stays outside the admission lock.
        if self._event_log is not None and decision != "admit":
            self._event_log.emit(
                f"service.{decision}", op=op, fingerprint=fingerprint
            )
        elif self._event_log is not None and reply is None:
            self._event_log.emit(
                "service.admit", op=op, fingerprint=fingerprint
            )
        if reply is not None:
            self._send_reply(connection, frame_id, reply)

    # -- workers ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._work_ready.wait()
                if self._closed and not self._pending:
                    return
                job = self._pending.popleft()
                self._running_count += 1
            # _run_job handles every exception itself, so the
            # bookkeeping below always runs with a reply in hand.
            reply = self._run_job(job)
            evicted: List[str] = []
            with self._lock:
                self._running_count -= 1
                job.done = True
                self._inflight.pop(job.fingerprint, None)
                if (
                    reply.status == "ok"
                    and self.config.result_cache_size > 0
                ):
                    self._results[job.fingerprint] = reply
                    self._results.move_to_end(job.fingerprint)
                    while (
                        len(self._results) > self.config.result_cache_size
                    ):
                        dropped, _ = self._results.popitem(last=False)
                        evicted.append(dropped)
                waiters = list(job.waiters)
                if not self._pending and not self._running_count:
                    self._drained.notify_all()
            if evicted:
                self.metrics.inc("service.result_evictions", len(evicted))
                if self._event_log is not None:
                    for dropped in evicted:
                        self._event_log.emit(
                            "service.evict", fingerprint=dropped
                        )
            for connection, frame_id, coalesced in waiters:
                self._send_reply(
                    connection, frame_id,
                    dataclasses.replace(reply, coalesced=coalesced),
                )

    def _run_job(self, job: _Job) -> api.ServiceReply:
        trace_id = getattr(job.request, "trace_id", None)
        # A request-supplied trace context implies the caller is
        # reconstructing a distributed trace, so the server-side spans
        # always travel back with the reply in that case.
        wants_trace = (
            bool(getattr(job.request, "trace", False))
            or trace_id is not None
        )
        tracer = Tracer(root_name=f"service.{job.op}")
        if trace_id is not None:
            tracer.root["attrs"] = {
                "trace_id": trace_id,
                "parent_span": getattr(job.request, "parent_span", None),
            }
        started = time.perf_counter()
        try:
            # The worker thread's dynamic extent reports into the
            # server's registry: cost evaluations/cache hits emitted by
            # the cost cache during this request land in the same
            # ``runtime.*`` counters the exporter snapshots.  Each job
            # gets a fresh cost cache, so a worker retains nothing
            # between requests (the result cache answers repeats).
            with use_metrics(self.metrics), \
                    use_event_log(self._event_log), \
                    use_tracer(tracer), api.use_cache(api.CostCache()):
                with tracer.span(f"execute.{job.fingerprint[:12]}"):
                    result = api.execute_request(job.request)
        except Exception as exc:
            self.metrics.inc("service.errors")
            records = tracer.finish()
            return api.ServiceReply(
                op=job.op,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                fingerprint=job.fingerprint,
                wall_time_s=time.perf_counter() - started,
                counters=tuple(sorted(counter_totals(records).items())),
                trace_records=(
                    tuple(records) if wants_trace else None
                ),
            )
        self.metrics.inc("service.computed")
        elapsed = time.perf_counter() - started
        self.metrics.observe("service.latency_ms", elapsed * 1000.0)
        if self._event_log is not None:
            self._event_log.observe_latency(
                elapsed, op=job.op, fingerprint=job.fingerprint
            )
        records = tracer.finish()
        return api.ServiceReply(
            op=job.op,
            result=result,
            fingerprint=job.fingerprint,
            wall_time_s=elapsed,
            counters=tuple(sorted(counter_totals(records).items())),
            trace_records=tuple(records) if wants_trace else None,
        )

    # -- replies ------------------------------------------------------

    def _send_reply(
        self,
        connection: _Connection,
        frame_id: int,
        reply: "api.ServiceReply",
    ) -> None:
        try:
            payload = reply.to_dict()
        except Exception:
            payload = api.ServiceReply(
                op=reply.op,
                status="error",
                error="reply serialization failed:\n"
                + traceback.format_exc(limit=3),
            ).to_dict()
        connection.send_frame(protocol.reply_frame(frame_id, payload))


def serve(config: Optional[ServerConfig] = None) -> Dict[str, Any]:
    """Run a server until SIGTERM/SIGINT; returns the final
    ``repro.metrics/1`` snapshot."""
    return OptimizationServer(config).serve_forever()


__all__ = ["OptimizationServer", "ServerConfig", "serve"]
