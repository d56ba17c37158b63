"""Tests for the optimization service daemon (``repro.service``).

Covers, per ISSUE requirements:

* cache bit-identity — a cached reply equals a freshly computed one
  (and a direct ``repro.api`` call) in value, type and repr;
* a served optimize request does a direct call's work: for every
  registered optimizer, the same result, span counters, published
  cost counts and kernel compiles as the call run with no cost cache
  on a freshly decoded instance;
* request dedup — N identical concurrent requests coalesce into one
  computation, every requester gets the shared reply;
* the ``no_cache`` bypass flag recomputes but still refreshes;
* backpressure — a full queue rejects with an explicit retry-after,
  never a silent drop, and waiting clients eventually succeed;
* the admission counters in the daemon's metrics registry, whose
  identity holds in the final ``repro.metrics/1`` snapshot (the
  retired ``stats`` op gets the unknown-op error reply);
* graceful drain on shutdown, also when a signal reaches the whole
  process group, and a drain timeout that ends a stuck worker;
* the compute processes: counters that cross the process boundary, a
  death that fails only its own job and is replaced, a process found
  dead between jobs, the no-process fallback, a served parallel sweep,
  processes that exit with a killed daemon or an interpreter that
  never shut the server down;
* malformed instance payloads answered with error replies;
* the 16 MiB frame cap, enforced while a line is read;
* a 64-client concurrent mixed optimize/sweep workload whose replies
  are bit-identical to direct ``repro.api`` calls with nonzero
  dedup/cache hits and zero drops — the acceptance smoke, in-process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro import api
from repro.core.results import PlanResult
from repro.hashjoin.instance import QOHInstance
from repro.joinopt.instance import Graph
from repro.observability import (
    MetricsRegistry,
    Tracer,
    counter_totals,
    use_metrics,
    use_tracer,
    validate_metrics,
    validate_trace,
)
from repro.runtime.runner import OPTIMIZERS
from repro.service import (
    OptimizationServer,
    ServerConfig,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    protocol,
)
from repro.service import server as server_module
from tests.test_runtime_runner import RANDOMIZED, instance_for

REPO_ROOT = Path(__file__).resolve().parents[1]

DRAIN_TIMEOUT = 30.0

#: Every admission outcome; their counters sum to ``service.received``.
OUTCOMES = ("computed", "cache_hits", "coalesced", "rejected", "errors")


def answered(counters):
    """Requests that ended in some admission outcome."""
    return sum(counters.get(f"service.{name}", 0) for name in OUTCOMES)


def assert_bit_identical(left, right):
    assert left == right
    assert type(left) is type(right)
    assert repr(left) == repr(right)


@pytest.fixture
def make_server():
    """Factory for loopback-TCP servers, drained at teardown."""
    servers = []

    def factory(**overrides):
        config = ServerConfig(address=("127.0.0.1", 0), **overrides)
        server = OptimizationServer(config)
        address = server.start()
        servers.append(server)
        return server, tuple(address)

    yield factory
    for server in servers:
        server.request_stop()
        server.shutdown(drain_timeout=DRAIN_TIMEOUT)


@pytest.fixture
def slow_optimizer():
    """A registered optimizer that blocks until the test releases it.

    It runs in the daemon's forked worker processes, so the release
    event and the call counter are process-shared; register it before
    the server starts, so the workers inherit it.
    """
    context = multiprocessing.get_context("fork")
    release = context.Event()
    calls = context.Value("i", 0)

    def slow(instance, tag=0):
        with calls.get_lock():
            calls.value += 1
        release.wait(DRAIN_TIMEOUT)
        return PlanResult(
            cost=17, sequence=(0, 1), optimizer="slow",
            explored=1, is_exact=False,
        )

    OPTIMIZERS["slow"] = slow
    yield release, calls
    release.set()
    del OPTIMIZERS["slow"]


@pytest.fixture
def qon_instance():
    return api.generate("chain", 5, seed=1)


@pytest.fixture
def qoh_instance():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    return QOHInstance(
        graph,
        [64, 32, 128, 16],
        {(0, 1): Fraction(1, 8), (1, 2): Fraction(1, 16),
         (2, 3): Fraction(1, 4)},
        memory=64,
    )


#: Four optimizers that each compile the QO_N kernel of their instance.
KERNEL_ALGORITHMS = ("sampling", "greedy-cost", "iterative", "annealing")


def wait_until(predicate, timeout=DRAIN_TIMEOUT):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.005)


# ---------------------------------------------------------------------
# Handshake and inline ops
# ---------------------------------------------------------------------


class TestHandshake:
    def test_hello_returns_capabilities(self, make_server):
        _server, address = make_server()
        with ServiceClient(address) as client:
            assert client.capabilities is not None
            assert client.capabilities["api_version"] == api.API_VERSION
            assert "repro.rpc/1" in client.capabilities["rpc_schemas"]

    def test_unknown_op_gets_an_error_reply(self, make_server):
        _server, address = make_server()
        # "stats" was the retired second counters op; metrics replaced it.
        for frame_id, op in enumerate(("banana", "stats")):
            with ServiceClient(address) as client:
                frame = {"rpc": "repro.rpc/1", "id": frame_id, "op": op,
                         "payload": None}
                client._sock.sendall(protocol.encode_frame(frame))
                line = client._stream.readline()
                reply_frame = protocol.decode_line(line)
            assert reply_frame["id"] == frame_id
            reply = api.ServiceReply.from_dict(reply_frame["reply"])
            assert reply.status == "error"
            assert "unknown op" in (reply.error or "")


# ---------------------------------------------------------------------
# Cache bit-identity
# ---------------------------------------------------------------------


class TestResultCache:
    def test_cached_reply_is_bit_identical(self, make_server, qoh_instance):
        server, address = make_server()
        request = api.OptimizeRequest.build(qoh_instance, "qoh-exhaustive")
        direct = api.execute_request(request)
        with ServiceClient(address) as client:
            fresh = client.optimize(request)
            cached = client.optimize(request)
        assert fresh.ok and not fresh.cached
        assert cached.ok and cached.cached
        assert_bit_identical(fresh.result, direct)
        assert_bit_identical(cached.result, direct)
        assert_bit_identical(cached.result.cost, direct.cost)
        assert_bit_identical(cached.result.plan, direct.plan)
        assert cached.fingerprint == fresh.fingerprint
        assert server.metrics.counter_value("service.computed") == 1
        assert server.metrics.counter_value("service.cache_hits") == 1

    def test_no_cache_flag_bypasses_but_refreshes(
        self, make_server, qon_instance
    ):
        server, address = make_server()
        request = api.OptimizeRequest.build(qon_instance, "dp")
        bypass = api.OptimizeRequest.build(qon_instance, "dp", no_cache=True)
        with ServiceClient(address) as client:
            first = client.optimize(request)
            second = client.optimize(bypass)
            third = client.optimize(request)
        assert not first.cached and not second.cached
        assert third.cached
        assert server.metrics.counter_value("service.computed") == 2
        assert server.metrics.counter_value("service.cache_hits") == 1
        assert_bit_identical(second.result, first.result)

    def test_each_request_gets_a_fresh_cost_cache(self, make_server):
        _server, address = make_server(workers=1)
        instance = api.generate("chain", 8, seed=2)
        request = api.OptimizeRequest.build(instance, "bnb", no_cache=True)
        tracer = Tracer("direct")
        with use_tracer(tracer), api.use_cache(None):
            direct = api.execute_request(request)
        want = counter_totals(tracer.finish())
        with ServiceClient(address) as client:
            first = client.optimize(request)
            second = client.optimize(request)
        assert first.ok and second.ok and not second.cached
        # The one worker served both: a cache kept across requests
        # would answer the second from the first's entries.  ``bnb``
        # memoizes its own call, so the direct call counts misses.
        assert want["cost_evaluations"] > 0
        assert dict(first.counters) == want
        assert dict(second.counters) == want
        assert_bit_identical(second.result, direct)


# ---------------------------------------------------------------------
# A served request does the work of a direct call
# ---------------------------------------------------------------------


class TestServedEqualsDirect:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_served_reply_equals_the_direct_call(self, make_server, name):
        """The daemon computes a job with no cost cache, as a direct
        call in a fresh process: the same result, the same span
        counters, the cost counts the call published itself, and the
        kernels it compiled (none outlive a request)."""
        kwargs = {"rng": 0} if name in RANDOMIZED else {}
        request = api.OptimizeRequest.build(
            instance_for(name), name, **kwargs
        )
        # A fresh decode, as a fresh process would hold: no kernel of
        # it is compiled yet.
        fresh = api.OptimizeRequest.from_dict(request.to_dict())
        tracer = Tracer("direct")
        counted = MetricsRegistry()
        with use_metrics(counted), use_tracer(tracer), api.use_cache(None):
            direct = api.execute_request(fresh)
        want = counter_totals(tracer.finish())
        _server, address = make_server(workers=1)
        with ServiceClient(address) as client:
            before = client.metrics()["counters"]
            reply = client.optimize(request)
            after = client.metrics()["counters"]
        assert reply.ok and not reply.cached
        assert dict(reply.counters) == want
        assert_bit_identical(reply.result, direct)
        assert_bit_identical(reply.result.cost, direct.cost)
        for metric, counter in (
            ("runtime.cost_evaluations", "cost_evaluations"),
            ("runtime.cache_hits", "cache_hits"),
        ):
            moved = after.get(metric, 0) - before.get(metric, 0)
            assert moved == dict(reply.counters).get(counter, 0)
        compiles = "perf.kernel_compiles"
        assert after.get(compiles, 0) - before.get(compiles, 0) == (
            counted.counter_value(compiles)
        )


# ---------------------------------------------------------------------
# Dedup / coalescing
# ---------------------------------------------------------------------


class TestDedup:
    def test_identical_concurrent_requests_coalesce(
        self, make_server, slow_optimizer, qon_instance
    ):
        release, calls = slow_optimizer
        server, address = make_server(workers=1, max_queue=16)
        request = api.OptimizeRequest.build(qon_instance, "slow")
        replies = []

        def submit():
            with ServiceClient(address, handshake=False) as client:
                replies.append(client.optimize(request))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        # Hold the computation until every request has been admitted.
        wait_until(
            lambda: server.metrics.counter_value("service.received") == 6
        )
        wait_until(
            lambda: server.metrics.counter_value("service.coalesced") == 5
        )
        release.set()
        for thread in threads:
            thread.join(DRAIN_TIMEOUT)
        assert calls.value == 1  # exactly one computation ran
        assert len(replies) == 6
        assert all(reply.ok for reply in replies)
        assert sum(reply.coalesced for reply in replies) == 5
        first = replies[0].result
        for reply in replies[1:]:
            assert_bit_identical(reply.result, first)
        assert server.metrics.counter_value("service.computed") == 1
        assert server.metrics.counter_value("service.coalesced") == 5


# ---------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(
        self, make_server, slow_optimizer, qon_instance
    ):
        release, _calls = slow_optimizer
        server, address = make_server(
            workers=1, max_queue=1, retry_after_s=0.02,
        )
        requests = [
            api.OptimizeRequest.build(qon_instance, "slow", tag=tag)
            for tag in range(4)
        ]

        def submit(request):
            with ServiceClient(address, handshake=False) as background:
                background.optimize(request, max_wait_s=DRAIN_TIMEOUT)

        with ServiceClient(address, handshake=False) as client:
            # First occupies the worker, second fills the queue...
            busy = threading.Thread(target=submit, args=(requests[0],))
            busy.start()
            wait_until(lambda: _calls.value == 1)
            queued = threading.Thread(target=submit, args=(requests[1],))
            queued.start()
            wait_until(lambda: len(server._pending) == 1)
            # ...so a distinct third is rejected, never dropped.
            rejected = client.optimize(requests[2], wait=False)
            assert rejected.rejected
            assert rejected.error == "queue full"
            assert rejected.retry_after == 0.02
            # A waiting client with a short patience gets a clean error.
            with pytest.raises(ServiceUnavailable):
                client.optimize(requests[3], wait=True, max_wait_s=0.05)
            release.set()
            # Once drained, the same request is admitted and served.
            final = client.optimize(requests[2], max_wait_s=DRAIN_TIMEOUT)
            assert final.ok
        busy.join(DRAIN_TIMEOUT)
        queued.join(DRAIN_TIMEOUT)
        assert server.metrics.counter_value("service.rejected") >= 2
        counters = server.metrics.snapshot()["counters"]
        assert counters["service.received"] == answered(counters)


# ---------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------


class TestErrors:
    def test_bad_params_produce_an_error_reply(
        self, make_server, qon_instance
    ):
        server, address = make_server()
        request = api.OptimizeRequest.build(qon_instance, "dp", bogus=1)
        with ServiceClient(address) as client:
            reply = client.optimize(request)
        assert reply.status == "error"
        assert "bogus" in (reply.error or "")
        assert server.metrics.counter_value("service.errors") == 1
        assert server.metrics.counter_value("service.computed") == 0

    def test_malformed_payload_is_rejected_with_a_message(
        self, make_server
    ):
        server, address = make_server()
        with ServiceClient(address) as client:
            reply = client.call("optimize", {"schema": "nope"})
        assert reply.status == "error"
        assert "schema" in (reply.error or "")
        assert server.metrics.counter_value("service.errors") == 1


    def test_malformed_instance_payloads_get_error_replies(
        self, make_server, qon_instance
    ):
        def corrupt(change):
            payload = api.OptimizeRequest.build(qon_instance).to_dict()
            change(payload)
            return payload

        payloads = [
            corrupt(lambda p: p["instance"].update(selectivities=[])),
            corrupt(lambda p: p["instance"].update(access_costs=[])),
            corrupt(lambda p: p["instance"].update(graph="chain")),
            corrupt(lambda p: p["instance"]["sizes"].__setitem__(0, 7)),
            corrupt(lambda p: p["instance"]["sizes"].__setitem__(0, "1/0")),
            corrupt(lambda p: p.update(
                params=[["rng", {"$kind": "fraction", "value": 5}]]
            )),
        ]
        server, address = make_server()
        with ServiceClient(address) as client:
            replies = [client.call("optimize", p) for p in payloads]
            counters = client.metrics()["counters"]
        assert [reply.status for reply in replies] == ["error"] * 6
        assert [reply.error for reply in replies[:3]] == [
            "qon.selectivities: expected <class 'dict'>, got list",
            "qon.access_costs: expected <class 'dict'>, got list",
            "qon.graph: expected <class 'dict'>, got str",
        ]
        assert counters["service.errors"] == 6
        assert counters["service.received"] == answered(counters) == 6


# ---------------------------------------------------------------------
# Sweeps through the service
# ---------------------------------------------------------------------


class TestSweepService:
    def test_sweep_reply_matches_direct_execution(
        self, make_server, qon_instance
    ):
        _server, address = make_server()
        spec = api.SweepSpec.build(
            ["dp", "greedy-cost"], [("q5", qon_instance)], workers=1,
        )
        direct = api.execute_request(spec)
        with ServiceClient(address) as client:
            reply = client.sweep(spec)
        assert reply.ok
        served = reply.result
        assert len(served) == len(direct)
        for got, want in zip(served, direct):
            assert got.ok and want.ok
            assert_bit_identical(got.result, want.result)
            assert_bit_identical(got.result.cost, want.result.cost)

    def test_served_parallel_sweep_matches_direct_execution(
        self, make_server, qon_instance
    ):
        # A compute process is not daemonic, so the sweep forks its own
        # pool inside it.
        spec = api.SweepSpec.build(
            ["dp", "greedy-cost", "iterative"],
            [("q5", qon_instance), ("c6", api.generate("cycle", 6, seed=2))],
            workers=2,
        )
        direct = api.execute_request(spec)
        _server, address = make_server()
        with ServiceClient(address) as client:
            reply = client.sweep(spec)
        assert reply.ok
        assert direct.mode == reply.result.mode == "parallel"
        assert len(reply.result) == len(direct) == 6
        for got, want in zip(reply.result, direct):
            assert got.ok and want.ok
            assert (got.optimizer, got.label) == (want.optimizer, want.label)
            assert_bit_identical(got.result, want.result)
            assert_bit_identical(got.result.cost, want.result.cost)

    def test_served_sweep_timeout_holds_as_in_a_direct_sweep(
        self, make_server
    ):
        # The worker process runs the job on its main thread, where the
        # runner's alarm works; on a daemon thread it had none.
        spec = api.SweepSpec.build(
            ["exhaustive"], [("c9", api.generate("chain", 9, seed=1))],
            workers=1, timeout=0.02,
        )
        (want,) = api.execute_request(spec)
        _server, address = make_server()
        with ServiceClient(address) as client:
            reply = client.sweep(spec)
        assert reply.ok
        (got,) = reply.result
        assert want.timed_out and want.failure == "timeout"
        assert got.timed_out and got.failure == "timeout"
        assert got.result == want.result

    def test_traced_sweep_returns_span_records(
        self, make_server, qon_instance
    ):
        _server, address = make_server()
        spec = api.SweepSpec.build(
            ["dp"], [("q5", qon_instance)], workers=1, trace=True,
        )
        with ServiceClient(address) as client:
            reply = client.sweep(spec)
        assert reply.ok
        assert reply.trace_records
        names = [record["name"] for record in reply.trace_records]
        assert any(name.startswith("service.sweep") for name in names)


# ---------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------


class TestShutdown:
    def test_drain_finishes_queued_work_and_rejects_late(
        self, make_server, slow_optimizer, qon_instance
    ):
        release, _calls = slow_optimizer
        server, address = make_server(workers=1)
        request = api.OptimizeRequest.build(qon_instance, "slow")
        early_client = ServiceClient(address, handshake=False)
        late_client = ServiceClient(address, handshake=False)
        replies = []
        early = threading.Thread(
            target=lambda: replies.append(early_client.optimize(request))
        )
        early.start()
        wait_until(
            lambda: server.metrics.counter_value("service.received") == 1
        )
        server.request_stop()
        late = late_client.optimize(
            api.OptimizeRequest.build(qon_instance, "slow", tag=9),
            wait=False,
        )
        assert late.rejected
        assert late.error == "server draining"
        release.set()
        final = server.shutdown(drain_timeout=DRAIN_TIMEOUT)
        early.join(DRAIN_TIMEOUT)
        assert replies and replies[0].ok  # in-flight work was not lost
        assert validate_metrics(final) == []
        counters = final["counters"]
        assert counters["service.received"] == answered(counters) == 2
        assert counters["service.computed"] == 1
        assert counters["service.rejected"] == 1
        assert final["gauges"]["service.queue_depth"] == 0
        assert final["gauges"]["service.in_flight"] == 0
        early_client.close()
        late_client.close()

    def test_drain_timeout_ends_a_stuck_worker(
        self, make_server, monkeypatch, qon_instance
    ):
        # No multiprocessing.Event here: a waiter killed inside its
        # condition would leave the event unable to ever set.
        calls = multiprocessing.get_context("fork").Value("i", 0)

        def stuck(instance):
            with calls.get_lock():
                calls.value += 1
            time.sleep(DRAIN_TIMEOUT)

        monkeypatch.setitem(OPTIMIZERS, "stuck", stuck)
        server, address = make_server(workers=1)
        workers = compute_pids(server)
        assert len(workers) == 1
        request = api.OptimizeRequest.build(qon_instance, "stuck")

        def submit():
            with ServiceClient(address, handshake=False) as client:
                try:
                    client.optimize(request)
                except ServiceError:
                    pass  # the drain gave up on it and hung up

        waiting = threading.Thread(target=submit)
        waiting.start()
        wait_until(lambda: calls.value == 1)
        started = time.monotonic()
        server.shutdown(drain_timeout=0.2)
        # The job would hold its worker for DRAIN_TIMEOUT seconds.
        assert time.monotonic() - started < DRAIN_TIMEOUT / 2
        assert all(exited(pid) for pid in workers)
        waiting.join(DRAIN_TIMEOUT)

    def test_shutdown_op_stops_the_server(self, make_server, qon_instance):
        server, address = make_server()
        with ServiceClient(address) as client:
            assert client.optimize(
                api.OptimizeRequest.build(qon_instance, "dp")
            ).ok
            assert client.shutdown_server().ok
        assert server.wait_stopped(DRAIN_TIMEOUT)
        final = server.shutdown(drain_timeout=DRAIN_TIMEOUT)
        assert final["counters"]["service.received"] == 1


# ---------------------------------------------------------------------
# The acceptance smoke, in process: 64 concurrent mixed clients
# ---------------------------------------------------------------------


class TestConcurrentMixedWorkload:
    def test_64_clients_bit_identical_with_dedup(self):
        instances = [
            api.generate("chain", 5, seed=seed) for seed in range(4)
        ]
        optimize_requests = [
            api.OptimizeRequest.build(instance, algorithm)
            for instance in instances
            for algorithm in ("dp", "greedy-cost")
        ]
        sweep_specs = [
            api.SweepSpec.build(
                ["dp"], [(f"s{seed}", instances[seed])], workers=1,
            )
            for seed in range(2)
        ]
        # 48 optimize + 16 sweep submissions over 10 distinct requests.
        workload = [
            ("optimize", optimize_requests[i % len(optimize_requests)])
            for i in range(48)
        ] + [
            ("sweep", sweep_specs[i % len(sweep_specs)])
            for i in range(16)
        ]
        direct = {
            api.request_fingerprint(request): api.execute_request(request)
            for _kind, request in workload
        }
        assert len(direct) == 10

        config = ServerConfig(
            address=("127.0.0.1", 0), workers=4, max_queue=64,
        )
        server = OptimizationServer(config)
        address = tuple(server.start())
        replies = []
        lock = threading.Lock()

        def submit(kind, request):
            with ServiceClient(address, handshake=False) as client:
                if kind == "optimize":
                    reply = client.optimize(
                        request, max_wait_s=DRAIN_TIMEOUT
                    )
                else:
                    reply = client.sweep(request, max_wait_s=DRAIN_TIMEOUT)
            with lock:
                replies.append((request, reply))

        threads = [
            threading.Thread(target=submit, args=entry)
            for entry in workload
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DRAIN_TIMEOUT)
        server.request_stop()
        final = server.shutdown(drain_timeout=DRAIN_TIMEOUT)

        # Zero silent drops: every submission produced an ok reply.
        assert len(replies) == 64
        assert all(reply.ok for _request, reply in replies)

        # Bit-identical to direct repro.api calls.
        for request, reply in replies:
            want = direct[api.request_fingerprint(request)]
            if isinstance(reply.result, PlanResult):
                assert_bit_identical(reply.result, want)
            else:
                for got_outcome, want_outcome in zip(reply.result, want):
                    assert_bit_identical(
                        got_outcome.result, want_outcome.result
                    )

        counters = {
            name: final["counters"].get(f"service.{name}", 0)
            for name in ("received",) + OUTCOMES
        }
        assert counters["received"] == 64
        assert counters["errors"] == 0
        assert counters["computed"] + counters["cache_hits"] + \
            counters["coalesced"] + counters["rejected"] == 64
        # Ten distinct fingerprints: everything beyond them was served
        # by the cache or dedup.
        assert counters["computed"] == 10
        assert counters["cache_hits"] + counters["coalesced"] == 54
        assert counters["cache_hits"] > 0 or counters["coalesced"] > 0
        assert final["gauges"]["service.queue_depth"] == 0
        assert final["gauges"]["service.in_flight"] == 0


# ---------------------------------------------------------------------
# Frame cap, enforced while reading
# ---------------------------------------------------------------------


class TestFrameCap:
    def test_over_cap_line_closes_the_connection(
        self, make_server, qon_instance
    ):
        _server, address = make_server()
        with socket.create_connection(address, timeout=10.0) as sock:
            sock.sendall(b"x" * (protocol.MAX_FRAME_BYTES + 1))
            try:
                tail = sock.recv(1)
            except ConnectionResetError:
                tail = b""
            assert tail == b""  # the daemon hung up without a newline
        with ServiceClient(address) as client:
            assert client.optimize(
                api.OptimizeRequest.build(qon_instance, "dp")
            ).ok

    def test_client_refuses_an_over_cap_reply(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_too_long():
            conn, _peer = listener.accept()
            with conn:
                conn.settimeout(10.0)
                conn.makefile("rb").readline()
                conn.sendall(b"x" * (protocol.MAX_FRAME_BYTES + 1))
                try:
                    conn.recv(1)  # until the client hangs up
                except OSError:
                    pass

        peer = threading.Thread(target=answer_too_long)
        peer.start()
        try:
            client = ServiceClient(
                listener.getsockname()[:2], handshake=False
            )
            with pytest.raises(ServiceError, match="frame cap"):
                client.call("hello")
        finally:
            peer.join(DRAIN_TIMEOUT)
            listener.close()


# ---------------------------------------------------------------------
# Compute processes: death, telemetry parity, the no-process fallback
# ---------------------------------------------------------------------

_TEST_PID = os.getpid()


def _die_in_worker(instance, **_kwargs):
    """An optimizer whose worker process dies mid-job."""
    if os.getpid() == _TEST_PID:
        raise RuntimeError("computing in the test process, not a worker")
    os._exit(3)


def _unpicklable_result(instance, **_kwargs):
    """An optimizer whose result cannot travel back over the pipe."""
    return PlanResult(
        cost=1, sequence=(0,), optimizer="unpicklable", explored=1,
        is_exact=False, trace={"hook": lambda: None},
    )


class TestWorkerProcesses:
    def test_a_result_that_cannot_pickle_gets_an_error_reply(
        self, make_server, monkeypatch, qon_instance
    ):
        monkeypatch.setitem(OPTIMIZERS, "unpicklable", _unpicklable_result)
        server, address = make_server(workers=1)
        (pid,) = compute_pids(server)
        with ServiceClient(address) as client:
            failed = client.optimize(
                api.OptimizeRequest.build(qon_instance, "unpicklable")
            )
            after = client.optimize(
                api.OptimizeRequest.build(qon_instance, "dp")
            )
            counters = client.metrics()["counters"]
        assert failed.status == "error" and "pickle" in (failed.error or "")
        assert after.ok
        # The process survived: no death, no replacement.
        assert compute_pids(server) == [pid]
        assert "service.worker_recoveries" not in counters
        assert counters["service.received"] == answered(counters) == 2

    def test_dead_worker_gives_an_error_reply_and_a_fresh_process(
        self, make_server, monkeypatch, qon_instance
    ):
        monkeypatch.setitem(OPTIMIZERS, "die", _die_in_worker)
        server, address = make_server(workers=1)
        (dead_pid,) = compute_pids(server)
        request = api.OptimizeRequest.build(qon_instance, "dp")
        with ServiceClient(address) as client:
            died = client.optimize(
                api.OptimizeRequest.build(qon_instance, "die")
            )
            after = client.optimize(request)
            counters = client.metrics()["counters"]
        assert died.status == "error"
        assert (died.error or "").startswith(
            f"compute process {dead_pid} died (exit code 3)"
        )
        assert after.ok and not after.cached
        assert_bit_identical(after.result, api.execute_request(request))
        assert counters["service.errors"] == 1
        assert counters["service.computed"] == 1
        assert counters["service.worker_recoveries"] == 1
        assert counters["service.received"] == answered(counters) == 2
        (fresh_pid,) = compute_pids(server)
        assert fresh_pid != dead_pid and exited(dead_pid)

    def test_a_process_dead_between_jobs_fails_no_job(
        self, make_server, qon_instance
    ):
        server, address = make_server(workers=1)
        (dead_pid,) = compute_pids(server)
        os.kill(dead_pid, signal.SIGKILL)
        wait_until(lambda: exited(dead_pid))
        request = api.OptimizeRequest.build(qon_instance, "dp")
        with ServiceClient(address) as client:
            reply = client.optimize(request)
            counters = client.metrics()["counters"]
        assert reply.ok
        assert_bit_identical(reply.result, api.execute_request(request))
        assert counters["service.worker_recoveries"] == 1
        assert counters["service.computed"] == 1
        assert counters["service.received"] == answered(counters) == 1
        (fresh_pid,) = compute_pids(server)
        assert fresh_pid != dead_pid

    def test_a_death_fails_only_its_own_job(
        self, make_server, monkeypatch
    ):
        # About a second of dp on one compute process while the job on
        # the other kills its process.
        slow = api.OptimizeRequest.build(
            api.generate("random", 16, seed=3), "dp"
        )
        monkeypatch.setitem(OPTIMIZERS, "die", _die_in_worker)
        server, address = make_server(workers=2)
        replies = []

        def submit():
            with ServiceClient(address, handshake=False) as client:
                replies.append(client.optimize(slow))

        submitter = threading.Thread(target=submit)
        submitter.start()
        with ServiceClient(address) as client:
            wait_until(
                lambda: client.metrics()["gauges"]["service.in_flight"] == 1
            )
            died = client.optimize(api.OptimizeRequest.build(
                api.generate("chain", 5, seed=1), "die"
            ))
            # The dp was in flight when its neighbour died.
            assert client.metrics()["gauges"]["service.in_flight"] == 1
            submitter.join(DRAIN_TIMEOUT)
            counters = client.metrics()["counters"]
        assert died.status == "error" and "died" in (died.error or "")
        assert len(replies) == 1 and replies[0].ok
        assert_bit_identical(replies[0].result, api.execute_request(slow))
        assert counters["service.errors"] == 1
        assert counters["service.worker_recoveries"] == 1
        assert counters["service.computed"] == 1
        assert counters["service.received"] == answered(counters) == 2

    def test_worker_counters_equal_in_process_counts(
        self, make_server, monkeypatch
    ):
        instance = api.generate("chain", 9, seed=1)
        requests = [
            api.OptimizeRequest.build(instance, algorithm)
            for algorithm in KERNEL_ALGORITHMS
        ] + [
            api.SweepSpec.build(
                ["dp", "greedy-cost"], [("c9", instance)], workers=1,
            )
        ]
        names = (
            "perf.kernel_compiles",
            "runtime.cost_evaluations",
            "runtime.cache_hits",
        )

        def serve_all(server, address):
            with ServiceClient(address) as client:
                replies = [
                    client.optimize(request)
                    if isinstance(request, api.OptimizeRequest)
                    else client.sweep(request)
                    for request in requests
                ]
            assert all(reply.ok for reply in replies)
            counted = server.metrics.snapshot()["counters"]
            # The daemon keeps no instance registry.
            assert not [
                name for name in counted
                if name.startswith("runtime.registry_")
            ]
            counts = {name: counted.get(name, 0) for name in names}
            return [reply.result for reply in replies], counts

        forked, forked_counts = serve_all(*make_server(workers=1))
        # No compute process can be started: the worker thread computes
        # in the daemon's own process, through the same job function.
        monkeypatch.setattr(server_module, "_spawn_worker", lambda *_: None)
        threaded_server, address = make_server(workers=1)
        assert compute_pids(threaded_server) == []
        threaded, threaded_counts = serve_all(threaded_server, address)

        assert forked_counts == threaded_counts
        # No instance or kernel outlives its request: each optimize
        # request compiles the chain's kernel, and the sweep compiles
        # it once for its two tasks.
        assert forked_counts["perf.kernel_compiles"] == 5
        direct_evaluations = 0
        for request, got_forked, got_threaded in zip(
            requests, forked, threaded
        ):
            # As the daemon computes a job: with no cost cache.
            with api.use_cache(None):
                want = api.execute_request(request)
            if isinstance(want, PlanResult):
                assert_bit_identical(got_forked, want)
                assert_bit_identical(got_threaded, want)
                continue
            direct_evaluations += want.evaluations
            for forked_outcome, threaded_outcome, want_outcome in zip(
                got_forked, got_threaded, want
            ):
                assert_bit_identical(
                    forked_outcome.result, want_outcome.result
                )
                assert_bit_identical(
                    threaded_outcome.result, want_outcome.result
                )
        assert forked_counts["runtime.cost_evaluations"] == (
            direct_evaluations
        )

    @pytest.mark.skipif(
        not os.path.isdir(f"/proc/{os.getpid()}/fd"),
        reason="reads open files from /proc",
    )
    def test_no_compute_process_holds_a_daemon_pipe_end(self, make_server):
        # A later fork inherits the daemon's ends of the earlier pipes;
        # one still open there would keep that pipe from closing.
        server, _address = make_server(workers=3)
        ends = {
            os.fstat(worker.conn.fileno()).st_ino
            for worker in server._workers
        }

        def sockets_held(pid):
            held = set()
            for fd in os.listdir(f"/proc/{pid}/fd"):
                try:
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                except OSError:
                    continue  # closed while listed
                if target.startswith("socket:["):
                    held.add(int(target[len("socket:["):-1]))
            return held

        assert len(ends) == 3
        for pid in compute_pids(server):
            wait_until(lambda: not sockets_held(pid) & ends, 10.0)

    def test_interpreter_exit_without_shutdown_ends_them(self, tmp_path):
        # Compute processes are not daemonic: multiprocessing joins them
        # at interpreter exit, so their pipes must close first.
        script = (
            "from repro import api\n"
            "from repro.service import OptimizationServer, ServerConfig, "
            "ServiceClient\n"
            "server = OptimizationServer(ServerConfig(workers=2))\n"
            "with ServiceClient(server.start()) as client:\n"
            "    assert client.optimize(api.OptimizeRequest.build(\n"
            "        api.generate('chain', 5, seed=1), 'dp')).ok\n"
        )
        finished = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
            timeout=DRAIN_TIMEOUT,
        )
        assert finished.returncode == 0

    def test_served_sweep_counts_reach_the_daemon_metrics(
        self, make_server, qon_instance
    ):
        server, address = make_server()
        spec = api.SweepSpec.build(
            ["dp", "greedy-cost"], [("q5", qon_instance)], workers=1,
        )
        with ServiceClient(address) as client:
            reply = client.sweep(spec)
        assert reply.ok
        finished = {
            (outcome.optimizer, outcome.label, outcome.ok)
            for outcome in reply.result.outcomes
        }
        assert finished == {("dp", "q5", True), ("greedy-cost", "q5", True)}
        # The sweep's tally, counted in a worker process, reaches the
        # daemon's registry with the request's own admission outcome.
        counters = server.metrics_snapshot()["counters"]
        assert counters["runtime.tasks_completed"] == 2
        assert counters["service.computed"] == 1

    def test_traced_replies_stitch_across_the_process_boundary(
        self, make_server, qon_instance
    ):
        _server, address = make_server()
        tracer = Tracer("client")
        with use_tracer(tracer), ServiceClient(address) as client:
            reply = client.optimize(
                api.OptimizeRequest.build(qon_instance, "bnb")
            )
        assert reply.ok
        records = tracer.finish()
        validate_trace(records)
        by_id = {record["id"]: record for record in records}
        (grafted,) = [
            record for record in records
            if "origin" in record.get("attrs", {})
        ]
        # The root the worker process recorded hangs under the client's
        # own span and names that span and the trace it belongs to.
        client_span = by_id[grafted["parent"]]
        assert client_span["name"] == grafted["name"] == "service.optimize"
        attrs = grafted["attrs"]
        assert attrs["parent_span"] == client_span["id"]
        assert attrs["origin"] == "service-" + attrs["trace_id"][:8]
        assert counter_totals(records) == dict(reply.counters)
        assert dict(reply.counters)["cost_evaluations"] > 0


# ---------------------------------------------------------------------
# Ctrl-C: a signal to the whole process group still drains
# ---------------------------------------------------------------------


def start_daemon(tmp_path, *flags):
    """``python -m repro serve`` in a session of its own, and its
    address."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", "127.0.0.1:0", *flags],
        stdout=subprocess.PIPE, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        start_new_session=True,
    )
    match = re.search(
        r"listening on (\S+):(\d+) ", process.stdout.readline()
    )
    if match is None:
        kill_daemon(process)
        raise AssertionError("the daemon did not start")
    return process, (match.group(1), int(match.group(2)))


def kill_daemon(process):
    """SIGKILL the daemon; its stdout is not read to EOF, since worker
    processes share the pipe."""
    process.kill()
    process.wait()
    process.stdout.close()


def compute_pids(server):
    """The pids of ``server``'s live compute processes."""
    return [
        worker.process.pid for worker in server._workers
        if worker is not None
    ]


def exited(pid):
    """Whether process ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestSignals:
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/task"),
        reason="reads child pids from /proc",
    )
    def test_workers_exit_when_the_daemon_is_killed(self, tmp_path):
        process, _address = start_daemon(tmp_path, "--workers", "2")
        try:
            with open(
                f"/proc/{process.pid}/task/{process.pid}/children"
            ) as children:
                workers = [int(pid) for pid in children.read().split()]
        finally:
            kill_daemon(process)
        assert len(workers) == 2
        # They ignore SIGTERM, and nobody is left to close their pipes.
        wait_until(lambda: all(exited(pid) for pid in workers), 10.0)

    def test_sigint_to_the_process_group_drains(self, tmp_path):
        request = api.OptimizeRequest.build(
            api.generate("random", 13, seed=3), "dp"
        )
        process, address = start_daemon(tmp_path, "--workers", "2")
        replies = []
        try:

            def submit():
                with ServiceClient(address) as client:
                    replies.append(client.optimize(request))

            submitter = threading.Thread(target=submit)
            submitter.start()
            with ServiceClient(address) as monitor:
                wait_until(
                    lambda: monitor.metrics()["gauges"]["service.in_flight"]
                    == 1
                )
            os.killpg(os.getpgid(process.pid), signal.SIGINT)
            submitter.join(DRAIN_TIMEOUT)
            # EOF on stdout also means no worker still holds the pipe.
            out, _ = process.communicate(timeout=DRAIN_TIMEOUT)
        finally:
            if process.poll() is None:
                kill_daemon(process)
        assert process.returncode == 0
        assert len(replies) == 1 and replies[0].ok
        assert_bit_identical(replies[0].result, api.execute_request(request))
        final = json.loads(out.strip().splitlines()[-1])
        assert validate_metrics(final) == []
        counters = final["counters"]
        assert counters["service.received"] == answered(counters) == 1
        assert counters["service.computed"] == 1
        assert final["gauges"]["service.in_flight"] == 0
