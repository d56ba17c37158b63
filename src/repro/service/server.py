"""The optimization service daemon (``repro serve``).

A long-running server speaking ``repro.rpc/1`` (newline-delimited JSON
frames, :mod:`repro.service.protocol`) over a local socket — AF_UNIX
when given a filesystem path, TCP on localhost otherwise.  One reader
thread per connection parses and validates frames; compute operations
pass through admission control into a bounded queue consumed by a
fixed set of worker threads; everything else (handshake, metrics, shutdown) is
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

Computation runs in compute processes, so requests compute in
parallel instead of taking turns on one interpreter lock.  Each of
``config.workers`` worker threads owns one compute process and reaches
it over its own ``multiprocessing.Pipe``: the thread takes an admitted
job off the queue, sends ``(op, request, fingerprint)`` down the pipe
and blocks until the :class:`_Computed` comes back, so a job passes
through no executor thread.  ``start()`` forks the processes before it
binds the listener or starts a thread, so none inherits a socket or a
lock held by another thread; each closes every daemon-side pipe end it
inherited.  On the process's main thread :func:`_compute` runs the job
through :func:`repro.api.execute_request` — the only optimization
entry point this package may touch (lint rule RPR011) — with no cost
cache active, exactly as a direct call, under a fresh
:class:`~repro.observability.tracer.Tracer` and metrics registry, and
returns the result or error with everything those recorded.  The
thread publishes the counters into the daemon's registry and builds
the reply, so replies carry span counter totals and optional span
trees.  A compute process that dies fails only the job it was
computing (an error reply); its thread forks a successor before its
next job (``service.worker_recoveries``).  A thread whose process
cannot be started runs :func:`_compute` itself.

A job computes on the instance decoded from its request, so that
instance and its compiled kernels live as long as the job: nothing but
the result cache outlives a request, and a served request compiles the
kernels a direct call in a fresh process compiles.

SIGTERM/SIGINT (or the ``shutdown`` op) triggers a graceful drain:
the listener closes, late requests get retry-after rejections, queued
work finishes, compute processes exit, and :meth:`OptimizationServer.shutdown`
returns the final ``repro.metrics/1`` snapshot — whose ``service.*``
admission counters sum to exactly the number of compute requests
received.  Compute processes ignore both signals, so one sent to the
whole process group (Ctrl-C in a terminal) starts the drain in the
parent without killing a job mid-flight.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.util
import os
import signal
import socket
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro import api
from repro.observability.export import TelemetryExporter
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracer import Tracer, counter_totals, use_tracer
from repro.service import protocol
from repro.utils.process import exit_with_parent
from repro.utils.validation import ValidationError, require

Address = Union[str, Tuple[str, int]]

RequestLike = Union[api.OptimizeRequest, api.SweepSpec]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`OptimizationServer`.

    ``address`` — AF_UNIX socket path (str) or ``(host, port)`` tuple;
    ``port 0`` picks a free port (read it back from
    :attr:`OptimizationServer.address`).
    ``workers`` — compute processes (each fed by one worker thread) =
    max in-flight computations.
    ``max_queue`` — pending requests admitted beyond the in-flight
    ones; the backpressure bound.
    ``retry_after_s`` — the hint attached to rejection replies.
    ``result_cache_size`` — result-cache entries (0 disables caching
    *and* dedup-by-cache, not dedup-by-inflight).
    ``metrics_out`` — append ``repro.metrics/1`` snapshot lines here
    every ``metrics_interval_s`` seconds (None disables the exporter;
    the live registry and the ``metrics`` RPC op work either way).
    """

    address: Address = ("127.0.0.1", 0)
    workers: int = 2
    max_queue: int = 32
    retry_after_s: float = 0.05
    result_cache_size: int = 256
    metrics_out: Optional[str] = None
    metrics_interval_s: float = 1.0


class _Job:
    """One admitted computation plus everyone waiting on it."""

    __slots__ = ("op", "request", "fingerprint", "waiters", "done")

    def __init__(
        self, op: str, request: RequestLike, fingerprint: str
    ) -> None:
        self.op = op
        self.request = request
        self.fingerprint = fingerprint
        #: ``(connection, frame_id, coalesced)`` per requester.
        self.waiters: List[Tuple["_Connection", int, bool]] = []
        self.done = False


# -- compute side (a compute process) -----------------------------------


@dataclass(frozen=True)
class _Computed:
    """What one computation produced and recorded, shipped back.

    ``wall_time_s`` is the time around ``api.execute_request``;
    ``counters`` what the job counted (kernel compiles, the counts a
    memoizing optimizer publishes, a sweep's tally).
    """

    result: Any = None
    error: Optional[str] = None
    wall_time_s: float = 0.0
    records: Tuple[Dict[str, Any], ...] = ()
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)


def _init_worker() -> None:
    """Set up a compute process before its first job.

    SIGINT and SIGTERM are the parent's: its drain lets a running job
    finish, so a signal sent to the whole process group must not kill
    the process.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # A daemon killed outright never closes the pipes, and these
    # processes ignore SIGTERM.
    exit_with_parent()


def _compute(op: str, request: RequestLike, fingerprint: str) -> _Computed:
    """Compute one job: in a compute process, or on a worker thread
    that has none.

    Everything the job counts and traces goes to stores made for this
    job alone and travels back in the :class:`_Computed`, the
    pattern of the sweep runner's pool chunks.  The job runs with no
    cost cache active, as a direct call in a fresh process does, so it
    does the same work and records the same span counters: a sweep
    brings its own caches, and the optimizers that memoize their own
    call publish their memo's counts themselves.  Nothing is retained
    between requests (the result cache answers repeats).
    """
    trace_id = getattr(request, "trace_id", None)
    tracer = Tracer(root_name=f"service.{op}")
    if trace_id is not None:
        tracer.root["attrs"] = {
            "trace_id": trace_id,
            "parent_span": getattr(request, "parent_span", None),
        }
    counters = MetricsRegistry()
    result: Any = None
    error: Optional[str] = None
    with use_metrics(counters), use_tracer(tracer), api.use_cache(None):
        started = time.perf_counter()
        try:
            with tracer.span(f"execute.{fingerprint[:12]}"):
                result = api.execute_request(request)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
    return _Computed(
        result=result,
        error=error,
        wall_time_s=wall,
        records=tuple(tracer.finish()),
        counters=counters.snapshot()["counters"],
    )


def _serve_jobs(jobs: Connection, inherited: Sequence[Connection]) -> None:
    """A compute process's life: compute each ``(op, request,
    fingerprint)`` the daemon sends on ``jobs`` on this main thread and
    send back its :class:`_Computed`, until the daemon closes the pipe.

    ``inherited`` holds every daemon-side pipe end the fork copied,
    this process's own included: it closes them all, or closing one of
    those pipes at drain would never reach its process.
    """
    _init_worker()
    for end in inherited:
        end.close()
    while True:
        try:
            job = jobs.recv()
        except EOFError:
            return  # the daemon closed the pipe: drained
        computed = _compute(*job)
        try:
            jobs.send(computed)
        except OSError:
            return  # the daemon is gone
        except Exception as exc:  # a result that cannot pickle
            jobs.send(_Computed(
                error=f"{type(exc).__name__}: {exc}",
                wall_time_s=computed.wall_time_s,
            ))


@dataclass(frozen=True)
class _Worker:
    """One compute process and the daemon's end of its pipe."""

    process: BaseProcess
    conn: Connection


def _spawn_worker(inherited: Sequence[Connection]) -> Optional[_Worker]:
    """Fork one compute process, or None when none can be started (no
    ``fork``, no file descriptors, a sandbox).

    Not daemonic: a served sweep with ``workers > 1`` forks its own
    pool inside it.  Should the daemon's interpreter exit without
    :meth:`OptimizationServer.shutdown`, the pipe closes before
    ``multiprocessing`` joins its children, so the process ends.
    """
    try:
        context = multiprocessing.get_context("fork")
        conn, child_conn = context.Pipe()
    except Exception:
        return None
    try:
        process = context.Process(
            target=_serve_jobs,
            args=(child_conn, (*inherited, conn)),
            name="repro-compute",
        )
        process.start()
    except Exception:
        conn.close()
        return None
    finally:
        child_conn.close()
    worker = _Worker(process, conn)
    multiprocessing.util.Finalize(worker, conn.close, exitpriority=0)
    return worker


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
        self._exporter: Optional[TelemetryExporter] = None
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._pending: Deque[_Job] = deque()
        self._inflight: Dict[str, _Job] = {}
        self._running_count = 0
        self._results: "OrderedDict[str, api.ServiceReply]" = OrderedDict()
        # Worker thread i computes on compute process _workers[i]; None
        # before start(), after shutdown() and when none can be started
        # (then the thread computes itself).  Only thread i replaces
        # entry i, under _spawn_lock, so each fork sees every pipe end
        # it must close.
        self._workers: List[Optional[_Worker]] = [None] * self.config.workers
        self._spawn_lock = threading.Lock()
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
        """Fork the compute processes, then bind, listen, and launch the
        accept + worker threads."""
        require(not self._started, "server already started")
        self._started = True
        # Fork first, while no thread of this server runs and no socket
        # is open: the compute processes inherit neither.
        for slot in range(self.config.workers):
            self._spawn(slot)
        address = self.config.address
        try:
            if isinstance(address, str):
                listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                listener.bind(address)
                self._unix_path = address
                self._address = address
            else:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                listener.bind(address)
                self._address = listener.getsockname()[:2]
            listener.listen(128)
        except OSError:
            self._stop_workers(drained=True)  # nothing was admitted
            raise
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
        for slot in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"repro-worker-{slot}",
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
        The compute processes exit before this returns; a job still
        running when ``drain_timeout`` expires has its process killed.
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
            drained = not (self._pending or self._running_count)
            self._closed = True
            self._work_ready.notify_all()
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self._stop_workers(drained)
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
            while True:
                # One byte past the cap at most: an endless line is
                # refused at the cap, never buffered whole.
                line = stream.readline(protocol.MAX_FRAME_BYTES + 1)
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_line(line)
                except ValidationError:
                    return  # over the cap or not a JSON object: hang up
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
            return api.OptimizeRequest.from_dict(payload)
        return api.SweepSpec.from_dict(payload)

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
                        return  # the shared computation replies
            if reply is None:
                if (
                    self._stop_event.is_set()
                    or len(self._pending) >= self.config.max_queue
                ):
                    self.metrics.inc("service.rejected")
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
        if reply is not None:
            self._send_reply(connection, frame_id, reply)

    # -- workers ------------------------------------------------------

    def _worker_loop(self, slot: int) -> None:
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
            reply = self._run_job(slot, job)
            evictions = 0
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
                        self._results.popitem(last=False)
                        evictions += 1
                waiters = list(job.waiters)
                if not self._pending and not self._running_count:
                    self._drained.notify_all()
            if evictions:
                self.metrics.inc("service.result_evictions", evictions)
            for connection, frame_id, coalesced in waiters:
                self._send_reply(
                    connection, frame_id,
                    dataclasses.replace(reply, coalesced=coalesced),
                )

    def _run_job(self, slot: int, job: _Job) -> api.ServiceReply:
        computed = self._compute_job(slot, job)
        # What the job counted where it ran reaches the daemon's one
        # registry here.
        for name, value in computed.counters.items():
            self.metrics.inc(name, value)
        # A request-supplied trace context implies the caller is
        # reconstructing a distributed trace, so the server-side spans
        # always travel back with the reply in that case.
        wants_trace = (
            bool(getattr(job.request, "trace", False))
            or getattr(job.request, "trace_id", None) is not None
        )
        reply = api.ServiceReply(
            op=job.op,
            fingerprint=job.fingerprint,
            wall_time_s=computed.wall_time_s,
            counters=tuple(sorted(
                counter_totals(list(computed.records)).items()
            )),
            trace_records=computed.records if wants_trace else None,
        )
        if computed.error is not None:
            self.metrics.inc("service.errors")
            return dataclasses.replace(
                reply, status="error", error=computed.error
            )
        self.metrics.inc("service.computed")
        self.metrics.observe(
            "service.latency_ms", computed.wall_time_s * 1000.0
        )
        return dataclasses.replace(reply, result=computed.result)

    def _compute_job(self, slot: int, job: _Job) -> _Computed:
        """Run ``job`` on this thread's compute process, or on this
        thread when it has none; every failure comes back as a
        :class:`_Computed` error."""
        # The waiters hold sockets: only what computing needs travels.
        args = (job.op, job.request, job.fingerprint)
        with self._spawn_lock:
            worker = self._workers[slot]
        if worker is not None and not worker.process.is_alive():
            worker = self._replace(slot, worker)  # it died between jobs
        if worker is None:
            return _compute(*args)
        started = time.perf_counter()
        try:
            worker.conn.send(args)
            return worker.conn.recv()
        except (EOFError, OSError):
            pass  # the process died with the job
        except Exception as exc:  # a job or result the pipe cannot carry
            return _Computed(
                error=f"{type(exc).__name__}: {exc}",
                wall_time_s=time.perf_counter() - started,
            )
        self._replace(slot, worker)
        return _Computed(
            error=f"compute process {worker.process.pid} died (exit code "
            f"{worker.process.exitcode}) while this job was in flight",
            wall_time_s=time.perf_counter() - started,
        )

    def _replace(self, slot: int, dead: _Worker) -> Optional[_Worker]:
        """Reap slot ``slot``'s dead compute process and fork its
        successor."""
        dead.process.kill()  # in case it is only wedged
        dead.process.join()
        dead.conn.close()
        return self._spawn(slot, replacing=True)

    def _spawn(self, slot: int, replacing: bool = False) -> Optional[_Worker]:
        """Fork slot ``slot``'s compute process; None when none can be
        started or the server is stopping.  A replacement counts one
        ``service.worker_recoveries``."""
        with self._spawn_lock:
            if self._closed:
                return None  # _stop_workers empties the slots
            if replacing:
                self.metrics.inc("service.worker_recoveries")
            worker = _spawn_worker([
                other.conn for other in self._workers if other is not None
            ])
            self._workers[slot] = worker
        return worker

    def _stop_workers(self, drained: bool) -> None:
        """End every compute process: a drained one exits when its pipe
        closes; one that outlived the drain is killed (it ignores
        SIGTERM), and its thread, woken by the death, closes the pipe."""
        with self._spawn_lock:
            workers = [w for w in self._workers if w is not None]
            self._workers = [None] * len(self._workers)
        for worker in workers:
            if drained:
                worker.conn.close()
            else:
                worker.process.kill()
        for worker in workers:
            worker.process.join()

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
