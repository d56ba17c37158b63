"""Tests for the optimization service daemon (``repro.service``).

Covers, per ISSUE requirements:

* cache bit-identity — a cached reply equals a freshly computed one
  (and a direct ``repro.api`` call) in value, type and repr;
* request dedup — N identical concurrent requests coalesce into one
  computation, every requester gets the shared reply;
* the ``no_cache`` bypass flag recomputes but still refreshes;
* backpressure — a full queue rejects with an explicit retry-after,
  never a silent drop, and waiting clients eventually succeed;
* the admission counters in the daemon's metrics registry, whose
  identity holds in the final ``repro.metrics/1`` snapshot (the
  retired ``stats`` op gets the unknown-op error reply);
* graceful drain on shutdown;
* a 64-client concurrent mixed optimize/sweep workload whose replies
  are bit-identical to direct ``repro.api`` calls with nonzero
  dedup/cache hits and zero drops — the acceptance smoke, in-process.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

import pytest

from repro import api
from repro.core.results import PlanResult
from repro.hashjoin.instance import QOHInstance
from repro.joinopt.instance import Graph
from repro.observability import validate_metrics
from repro.runtime.runner import OPTIMIZERS
from repro.service import (
    OptimizationServer,
    ServerConfig,
    ServiceClient,
    ServiceUnavailable,
    protocol,
)

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
    """A registered optimizer that blocks until the test releases it."""
    release = threading.Event()
    calls = []

    def slow(instance, tag=0):
        calls.append(tag)
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
        request = api.OptimizeRequest.build(instance, "dp", no_cache=True)
        local_cache = api.CostCache()
        with api.use_cache(local_cache):
            direct = api.execute_request(request)
        with ServiceClient(address) as client:
            first = client.optimize(request)
            second = client.optimize(request)
        assert first.ok and second.ok and not second.cached
        # The one worker served both: a cache kept across requests
        # would answer the second from the first's entries.
        evaluations = local_cache.stats().misses
        assert evaluations > 0
        counters = dict(second.counters)
        assert counters.get("cost_evaluations", 0) == evaluations
        assert_bit_identical(second.result, direct)

    def test_instance_objects_are_reused_across_requests(
        self, make_server, qon_instance
    ):
        server, address = make_server()
        sampling = api.OptimizeRequest.build(
            qon_instance, "sampling", samples=10, rng=1,
        )
        greedy = api.OptimizeRequest.build(qon_instance, "greedy-cost")
        with ServiceClient(address) as client:
            assert client.optimize(sampling).ok
            assert client.optimize(greedy).ok
        # One distinct wire payload -> one live decoded instance in the
        # daemon's registry live tier (repro.runtime.registry).
        registry_stats = server._registry.stats()
        assert registry_stats.live == 1
        # The second request reused the first decode instead of
        # retaining a duplicate object.
        assert registry_stats.hits >= 1


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
        assert len(calls) == 1  # exactly one computation ran
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
            wait_until(lambda: len(_calls) == 1)
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
