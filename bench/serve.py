"""The daemon, the closed-loop load generator, and service metrics."""

from __future__ import annotations

import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import workloads
from measure import Outcome, percentile, vmhwm_kb
from tracing import span
from workloads import CLIENTS, ROOT, WORKERS, Refs

from repro.observability import Tracer, use_tracer
from repro.service import ServiceClient, ServiceError, ServiceUnavailable

#: Daemon starts timed for ``setup_s`` (the last one serves the run).
SETUP_SAMPLES = 3

#: How long a daemon may take to print its address.
START_TIMEOUT_S = 60.0

#: The admission counters whose sum must equal ``service.received``.
OUTCOME_COUNTERS = ("computed", "cache_hits", "coalesced", "rejected",
                    "errors")

#: A client's requests, as ``(key, request)`` pairs.
Source = Iterator[Tuple[Any, Any]]


class Daemon:
    """``python -m repro serve`` on a loopback port, started and
    handshaken; ``setup_s`` is spawn-to-handshake time."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", "127.0.0.1:0", "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        try:
            ready, _, _ = select.select(
                [self.process.stdout], [], [], START_TIMEOUT_S
            )
            line = self.process.stdout.readline() if ready else ""
            match = re.search(r"listening on (\S+):(\d+) ", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.address = (match.group(1), int(match.group(2)))
            with ServiceClient(self.address):
                pass
        except BaseException:
            self.process.kill()
            self.process.communicate()
            raise
        self.setup_s = time.perf_counter() - started

    def peak_kb(self) -> int:
        return vmhwm_kb(self.process.pid)

    def stop(self) -> None:
        """Drain and stop; kill if it does not exit."""
        try:
            with ServiceClient(self.address) as client:
                client.shutdown_server()
        except (OSError, ServiceError):
            pass
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()


def start_daemon(samples: int) -> Tuple[Daemon, float]:
    """Start ``samples`` daemons one after another; keep the last.

    Returns it with the median set-up time.
    """
    times = []
    for _ in range(samples - 1):
        with Daemon() as daemon:
            times.append(daemon.setup_s)
    daemon = Daemon()
    times.append(daemon.setup_s)
    return daemon, statistics.median(times)


@dataclass(slots=True)
class Sample:
    """One request as the client saw it.

    The reply itself is not kept, so memory does not grow with the
    number of requests served; its result is kept only when it is to
    be checked after the run (``kept``).
    """

    key: Any
    rtt: float
    error: Optional[str] = None
    cached: bool = False
    coalesced: bool = False
    wall_time_s: float = 0.0
    kept: bool = False
    result: Any = None


def record(key: Any, rtt: float, reply: Any, refs: Optional[Refs] = None,
           keep: Optional[Callable[[Any], bool]] = None) -> Sample:
    """A sample of one reply, checked against ``refs`` when they hold
    its key; its result is kept when ``keep(key)``."""
    if not reply.ok:
        return Sample(key, rtt, error=f"{reply.status}: {reply.error}")
    error = None
    if refs and key in refs and not workloads.same_result(
        refs[key][0], reply.result
    ):
        error = "reply differs from the direct reference"
    kept = keep is not None and keep(key)
    return Sample(key, rtt, error, reply.cached, reply.coalesced,
                  reply.wall_time_s, kept, reply.result if kept else None)


def closed_loop(
    address: Tuple[str, int],
    sources: List[Source],
    seconds: Optional[float],
    refs: Optional[Refs] = None,
    keep: Optional[Callable[[Any], bool]] = None,
    traced: bool = False,
) -> Tuple[List[Sample], float, List[Dict[str, Any]]]:
    """One client thread per source, each sending its next request only
    after the previous reply, until its source is exhausted or
    ``seconds`` pass.  Replies are recorded with :func:`record`.

    Returns every sample, the window (first send to last reply) and,
    when ``traced``, each client's finished span records.
    """
    barrier = threading.Barrier(len(sources) + 1)
    samples: List[List[Sample]] = [[] for _ in sources]
    traces: List[List[Dict[str, Any]]] = [[] for _ in sources]
    crashed: List[BaseException] = []

    def client_main(index: int) -> None:
        tracer = Tracer("bench.client") if traced else None
        try:
            with ServiceClient(address) as client, use_tracer(tracer):
                barrier.wait()
                deadline = (time.perf_counter() + seconds
                            if seconds is not None else float("inf"))
                while time.perf_counter() < deadline:
                    item = next(sources[index], None)
                    if item is None:
                        break
                    key, request = item
                    with span(tracer, "bench.request") as attrs:
                        started = time.perf_counter()
                        try:
                            reply = client.optimize(request)
                        except ServiceUnavailable as exc:
                            samples[index].append(Sample(
                                key, time.perf_counter() - started,
                                error=str(exc),
                            ))
                            continue
                        rtt = time.perf_counter() - started
                        attrs["reused"] = reply.cached or reply.coalesced
                    samples[index].append(
                        record(key, rtt, reply, refs, keep)
                    )
        except BaseException as exc:  # reported by the main thread
            crashed.append(exc)
            barrier.abort()
        finally:
            if tracer is not None:
                traces[index] = tracer.finish()

    threads = [threading.Thread(target=client_main, args=(index,))
               for index in range(len(sources))]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - started
    if crashed:
        raise crashed[0]
    return [s for per_client in samples for s in per_client], window, traces


def check_replies(samples: List[Sample], refs: Refs,
                  outcome: Outcome) -> None:
    """Count every request; fail the bad ones, including kept results
    that differ from ``refs``."""
    for sample in samples:
        outcome.attempted += 1
        if sample.error is not None:
            outcome.fail(f"request {sample.key}: {sample.error}")
        elif sample.kept and not workloads.same_result(
            refs[sample.key][0], sample.result
        ):
            outcome.fail(f"request {sample.key}: reply differs from the "
                         "direct reference")


def split_reply_times(
    samples: List[Sample],
) -> Tuple[List[float], List[float]]:
    """``(compute, overhead)`` seconds, attributed per reply kind.

    A cached or coalesced reply carries the ``wall_time_s`` of the
    computation that originally produced it, not its own: a cache hit
    did no compute, so its whole round trip is overhead; a coalesced
    reply waited on another request's computation for an unknown part
    of it, so it enters neither list.  Only computed replies give a
    compute time, and overhead = round trip - compute.
    """
    compute: List[float] = []
    overhead: List[float] = []
    for sample in samples:
        if sample.error is not None or sample.coalesced:
            continue
        if sample.cached:
            overhead.append(sample.rtt)
        else:
            compute.append(sample.wall_time_s)
            overhead.append(sample.rtt - sample.wall_time_s)
    return compute, overhead


def counter_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    """``service.*`` counter movement between two metrics snapshots."""
    names = ("received",) + OUTCOME_COUNTERS
    return {
        name: after["counters"].get(f"service.{name}", 0)
        - before["counters"].get(f"service.{name}", 0)
        for name in names
    }


def service_metrics(
    session: List[Sample],
    window: List[Sample],
    delta: Dict[str, int],
    refs: Refs,
    outcome: Outcome,
) -> None:
    """The ``service.*`` and ``client.*`` per-layer metrics.

    ``session`` is every reply of the daemon's life (the split by
    reply kind needs the computed ones); ``window`` the timed ones;
    ``delta`` the admission counters over the session.
    """
    compute, overhead = split_reply_times(session)
    inflation = [
        sample.wall_time_s / refs[sample.key][1]
        for sample in session
        if sample.error is None and sample.key in refs
        and not (sample.cached or sample.coalesced)
    ]
    outcome.add("service.compute_ms_p50", statistics.median(compute) * 1e3,
                "ms")
    outcome.add("service.overhead_ms_p50",
                statistics.median(overhead) * 1e3, "ms")
    outcome.add("service.compute_inflation", statistics.median(inflation),
                "ratio")
    outcome.add("service.cache_hit_ratio",
                delta["cache_hits"] / delta["received"], "ratio")
    for name in ("coalesced", "rejected", "errors"):
        outcome.add(f"service.{name}", delta[name], "count")
    rtts = [sample.rtt * 1e3 for sample in window if sample.error is None]
    outcome.add("client.latency_p90_ms", percentile(rtts, 90), "ms")
    outcome.add("client.latency_p99_ms", percentile(rtts, 99), "ms")
    outcome.add("client.samples", len(rtts), "count")


def check_identity(delta: Dict[str, int], outcome: Outcome) -> None:
    """Every received request ended in exactly one admission outcome."""
    outcome.check(
        delta["received"] == sum(delta[name] for name in OUTCOME_COUNTERS),
        f"counter identity broken: {delta}",
    )


def metrics(address: Tuple[str, int]) -> Dict[str, Any]:
    """A metrics snapshot over a connection of its own, so no extra
    connection stays open while the clients run."""
    with ServiceClient(address) as client:
        return client.metrics()


def send_each(address: Tuple[str, int], items: List[Tuple[Any, Any]],
              refs: Optional[Refs] = None,
              keep: Optional[Callable[[Any], bool]] = None) -> List[Sample]:
    """Send requests one after another over one short-lived connection."""
    samples = []
    with ServiceClient(address) as client:
        for key, request in items:
            started = time.perf_counter()
            reply = client.optimize(request)
            samples.append(record(key, time.perf_counter() - started, reply,
                                  refs, keep))
    return samples


def probe(
    cells: List[Tuple[Any, Any]],
    refs: Refs,
    outcome: Outcome,
) -> None:
    """``service.*`` for a sweep workload: its distinct cells served
    twice over, computed and then cached, by the load generator's
    clients (each client sends its own half of the cells)."""
    with Daemon() as daemon:
        before = metrics(daemon.address)
        sources = [iter(cells[index::CLIENTS] * 2)
                   for index in range(CLIENTS)]
        samples, _, _ = closed_loop(daemon.address, sources, None, refs)
        delta = counter_delta(before, metrics(daemon.address))
    check_replies(samples, refs, outcome)
    check_identity(delta, outcome)
    service_metrics(samples, samples, delta, refs, outcome)


def end_to_end(window: List[Sample], seconds: float,
               outcome: Outcome) -> None:
    """Client round trips and completed requests per second."""
    rtts = [sample.rtt * 1e3 for sample in window if sample.error is None]
    outcome.add("latency_p50_ms", statistics.median(rtts), "ms")
    outcome.add("latency_p90_ms", percentile(rtts, 90), "ms")
    outcome.add("throughput_per_s", len(rtts) / seconds, "1/s")
    outcome.add("latency_samples", len(rtts), "count")
