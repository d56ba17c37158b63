"""Tests for the live telemetry layer (metrics, export, top).

Covers, per ISSUE requirements:

* concurrent-registry exactness — N threads x M increments sum
  exactly (integer counters, no lost updates);
* histogram bucket boundary pins (first-match-wins bucketing, the
  overflow bucket, ``sum(buckets) == count``, nearest-rank
  percentiles);
* exporter snapshot schema round-trip (write -> load -> validate,
  summarize/diff);
* client-side distributed-trace stitching whose span counters are
  bit-identical to a local run of the same request;
* ``repro top`` / ``repro metrics`` CLI exit codes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.cli import main
from repro.observability import (
    LATENCY_BOUNDARIES_MS,
    MetricsRegistry,
    TelemetryExporter,
    Tracer,
    active_metrics,
    counter_totals,
    diff_metrics,
    load_metrics_file,
    metric_inc,
    snapshot_percentile,
    summarize_metrics,
    use_metrics,
    use_tracer,
    validate_metrics,
    validate_trace,
)
from repro.runtime.runner import grid_tasks, run_sweep
from repro.service import OptimizationServer, ServerConfig, ServiceClient
from repro.utils.validation import ValidationError
from repro.workloads import chain_query, random_query

DRAIN_TIMEOUT = 30.0


# ---------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------


class TestMetricsRegistry:
    def test_concurrent_increments_sum_exactly(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2500

        def hammer():
            for _ in range(per_thread):
                registry.inc("test.hits")
                registry.observe("test.lat_ms", 3.0)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.counter_value("test.hits") == threads * per_thread
        snapshot = registry.snapshot()
        hist = snapshot["histograms"]["test.lat_ms"]
        assert hist["count"] == threads * per_thread
        assert sum(hist["buckets"]) == hist["count"]

    def test_counter_rejects_bad_input(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.inc("test.hits", -1)
        with pytest.raises(ValidationError):
            registry.inc("nodots")
        with pytest.raises(ValidationError):
            registry.inc("9leading.digit")

    def test_histogram_bucket_boundaries_pin(self):
        registry = MetricsRegistry()
        bounds = (10.0, 20.0, 50.0)
        for value in (1.0, 10.0, 10.5, 20.0, 49.0, 50.0, 51.0, 1e9):
            registry.observe("test.h", value, boundaries=bounds)
        hist = registry.snapshot()["histograms"]["test.h"]
        assert hist["boundaries"] == [10.0, 20.0, 50.0]
        # v <= 10 -> bucket 0; 10 < v <= 20 -> bucket 1;
        # 20 < v <= 50 -> bucket 2; rest overflow.
        assert hist["buckets"] == [2, 2, 2, 2]
        assert sum(hist["buckets"]) == hist["count"] == 8

    def test_histogram_percentile_nearest_rank(self):
        registry = MetricsRegistry()
        bounds = (1.0, 5.0, 10.0)
        for value in [0.5] * 50 + [4.0] * 45 + [9.0] * 5:
            registry.observe("test.h", value, boundaries=bounds)
        hist = registry.snapshot()["histograms"]["test.h"]
        assert snapshot_percentile(hist, 50) == 1.0
        assert snapshot_percentile(hist, 90) == 5.0
        assert snapshot_percentile(hist, 99) == 10.0

    def test_histogram_boundary_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.declare_histogram("test.h", (1.0, 2.0))
        registry.declare_histogram("test.h", (1.0, 2.0))  # idempotent
        with pytest.raises(ValidationError):
            registry.declare_histogram("test.h", (1.0, 3.0))

    def test_snapshot_validates_and_seq_increments(self):
        registry = MetricsRegistry()
        registry.inc("test.hits")
        first = registry.snapshot()
        second = registry.snapshot()
        assert validate_metrics(first) == []
        assert validate_metrics(second) == []
        assert second["seq"] == first["seq"] + 1
        assert json.loads(json.dumps(first)) == first

    def test_default_latency_boundaries_pin(self):
        assert LATENCY_BOUNDARIES_MS == (
            1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
            1000.0, 2500.0, 5000.0,
        )


class TestNoOpDefault:
    def test_module_helpers_are_noops_without_registry(self):
        assert active_metrics() is None
        metric_inc("test.hits")  # must not raise

    def test_use_metrics_scopes_to_thread(self):
        registry = MetricsRegistry()
        seen = []

        def other_thread():
            seen.append(active_metrics())

        with use_metrics(registry):
            assert active_metrics() is registry
            metric_inc("test.hits")
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert active_metrics() is None
        assert seen == [None]
        assert registry.counter_value("test.hits") == 1


# ---------------------------------------------------------------------
# Exporter round-trip
# ---------------------------------------------------------------------


class TestExporter:
    def test_snapshot_file_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        registry = MetricsRegistry()
        registry.inc("test.hits", 7)
        registry.observe("test.lat_ms", 12.0)
        exporter = TelemetryExporter(
            registry.snapshot, path, interval_s=60.0
        )
        exporter.start()
        registry.inc("test.hits", 3)
        final = exporter.stop()
        snapshots = load_metrics_file(path)
        assert snapshots  # final snapshot always written on stop
        assert snapshots[-1]["counters"]["test.hits"] == 10
        assert snapshots[-1]["counters"] == final["counters"]
        for snapshot in snapshots:
            assert validate_metrics(snapshot) == []

    def test_summarize_and_diff(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("test.hits", 5)
        before = registry.snapshot()
        registry.inc("test.hits", 3)
        registry.inc("test.misses", 1)
        after = registry.snapshot()
        assert "test.hits" in summarize_metrics([before, after])
        deltas = diff_metrics(before, after)
        assert deltas == {"test.hits": 3, "test.misses": 1}
        with pytest.raises(ValueError):
            diff_metrics(after, before)  # backwards movement


# ---------------------------------------------------------------------
# Service integration: metrics op, identity, distributed traces
# ---------------------------------------------------------------------


@pytest.fixture
def make_server():
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


class TestServiceTelemetry:
    def test_metrics_op_and_counter_identity(self, make_server):
        _server, address = make_server(workers=2)
        instance = chain_query(5, rng=3)
        with ServiceClient(address) as client:
            for _ in range(3):
                reply = client.optimize(api.OptimizeRequest.build(
                    instance, "dp"
                ))
                assert reply.ok
            snapshot = client.metrics()
        assert validate_metrics(snapshot) == []
        counters = snapshot["counters"]
        assert counters["service.received"] == 3
        assert counters["service.received"] == (
            counters.get("service.computed", 0)
            + counters.get("service.cache_hits", 0)
            + counters.get("service.coalesced", 0)
            + counters.get("service.rejected", 0)
            + counters.get("service.errors", 0)
        )
        assert counters["service.computed"] == 1
        assert counters["service.cache_hits"] == 2
        hist = snapshot["histograms"]["service.latency_ms"]
        assert hist["count"] == 1  # cache hits skip the compute path
        assert snapshot["gauges"]["service.workers"] == 2.0

    def test_stitched_trace_matches_local_run(self, make_server):
        _server, address = make_server(workers=1)
        instance = chain_query(6, rng=7)
        request = api.OptimizeRequest.build(instance, "bnb")

        # Local reference run: no cache (bnb memoizes its own call, as
        # it does in the daemon), own tracer.
        local_tracer = Tracer("local")
        with use_tracer(local_tracer), api.use_cache(None):
            local_result = api.execute_request(request)
        local = counter_totals(local_tracer.finish())

        remote_tracer = Tracer("client")
        with use_tracer(remote_tracer):
            with ServiceClient(address) as client:
                before = client.metrics()
                reply = client.optimize(request)
                after = client.metrics()
        assert reply.ok
        stitched_records = remote_tracer.finish()
        validate_trace(stitched_records)  # raises on malformed grafts
        stitched = counter_totals(stitched_records)

        # Bit-identical span counters vs the local run.
        assert stitched["cost_evaluations"] == local["cost_evaluations"]
        assert reply.result == local_result

        # ... and the stitched totals equal the server-side metrics
        # delta exactly (the acceptance criterion).
        delta = diff_metrics(before, after)
        assert delta["runtime.cost_evaluations"] == (
            stitched["cost_evaluations"]
        )

        # The grafted subtree is marked with its remote origin.
        origins = [
            record["attrs"]["origin"]
            for record in stitched_records
            if record.get("attrs", {}).get("origin")
        ]
        assert len(origins) == 1 and origins[0].startswith("service-")

    def test_trace_context_travels_without_client_tracer(self, make_server):
        _server, address = make_server(workers=1)
        request = api.OptimizeRequest.build(
            chain_query(5, rng=1), "dp", trace_id="abc123", parent_span=4
        )
        with ServiceClient(address) as client:
            reply = client.optimize(request)
        assert reply.ok
        assert reply.trace_records  # trace_id alone forces span return
        root = reply.trace_records[0]
        assert root["attrs"]["trace_id"] == "abc123"
        assert root["attrs"]["parent_span"] == 4

    def test_metrics_file(self, tmp_path):
        metrics_out = str(tmp_path / "metrics.jsonl")
        server = OptimizationServer(ServerConfig(
            address=("127.0.0.1", 0),
            workers=1,
            metrics_out=metrics_out,
            metrics_interval_s=60.0,
        ))
        address = tuple(server.start())
        with ServiceClient(address) as client:
            assert client.optimize(api.OptimizeRequest.build(
                chain_query(5, rng=2), "dp"
            )).ok
        server.request_stop()
        server.shutdown(drain_timeout=DRAIN_TIMEOUT)
        snapshots = load_metrics_file(metrics_out)
        assert snapshots[-1]["counters"]["service.received"] == 1

    def test_exported_snapshot_carries_the_daemon_gauges(self, tmp_path):
        # No client polls the metrics op: the exporter's own snapshots
        # must still set the daemon gauges.
        metrics_out = str(tmp_path / "metrics.jsonl")
        server = OptimizationServer(ServerConfig(
            address=("127.0.0.1", 0),
            workers=2,
            metrics_out=metrics_out,
            metrics_interval_s=60.0,
        ))
        address = tuple(server.start())
        request = api.OptimizeRequest.build(chain_query(5, rng=4), "dp")
        with ServiceClient(address) as client:
            assert not client.optimize(request).cached
            assert client.optimize(request).cached
        server.request_stop()
        final = server.shutdown(drain_timeout=DRAIN_TIMEOUT)
        last = load_metrics_file(metrics_out)[-1]
        assert last["gauges"]["service.queue_depth"] == 0
        assert last["gauges"]["service.in_flight"] == 0
        assert last["gauges"]["service.workers"] == 2
        counters = last["counters"]
        assert counters["service.received"] == 2
        assert counters["service.received"] == (
            counters["service.computed"] + counters["service.cache_hits"]
        )
        # shutdown() returns that same final line.
        assert final == last


# ---------------------------------------------------------------------
# Sweep-side telemetry
# ---------------------------------------------------------------------


class TestSweepTelemetry:
    def test_run_sweep_publishes_counters(self):
        registry = MetricsRegistry()
        instance = chain_query(5, rng=5)
        spec = api.SweepSpec.build(
            ["dp", "greedy-cost"], [("chain5", instance)]
        )
        with use_metrics(registry):
            result = api.sweep(spec)
        assert registry.counter_value("runtime.tasks_completed") == len(
            result.outcomes
        )
        assert registry.counter_value("runtime.cost_evaluations") > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_published_counters_equal_the_sweep_totals(self, workers):
        tasks = grid_tasks(
            ["dp", "greedy-cost", "iterative"],
            [(f"r{seed}", random_query(6, rng=seed)) for seed in range(3)],
        )
        reference = run_sweep(tasks, workers=1, cache=False)
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = run_sweep(tasks, workers=workers, cache=False)
        if workers > 1 and result.mode != "parallel":
            pytest.skip("no process pool available here")
        counted = registry.counter_value
        totals = result.cache_totals()
        assert counted("runtime.cost_evaluations") == totals.misses
        assert counted("runtime.cache_hits") == totals.hits
        executor = result.executor
        assert counted("perf.kernel_compiles") == executor.kernels_compiled
        assert counted("runtime.registry_hits") == executor.registry_hits
        assert counted("runtime.ship_bytes") == executor.ship_bytes
        assert counted("runtime.sweep_chunks") == executor.chunks
        assert counted("runtime.tasks_completed") == sum(
            1 for outcome in result if outcome.ok
        ) == len(tasks)
        # cache=False makes cost evaluations schedule-independent.
        assert counted("runtime.cost_evaluations") == reference.evaluations


# ---------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------


class TestCLI:
    def test_metrics_summarize_ok(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        registry = MetricsRegistry()
        registry.inc("test.hits", 2)
        exporter = TelemetryExporter(
            registry.snapshot, path, interval_s=60.0
        )
        exporter.start()
        exporter.stop()
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "test.hits" in out

    def test_metrics_diff_ok(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.inc("test.hits", 2)
        first = str(tmp_path / "a.jsonl")
        TelemetryExporter(
            registry.snapshot, first, interval_s=60.0
        ).write_snapshot()
        registry.inc("test.hits", 3)
        second = str(tmp_path / "b.jsonl")
        TelemetryExporter(
            registry.snapshot, second, interval_s=60.0
        ).write_snapshot()
        assert main(["metrics", first, "--diff", second]) == 0
        assert "test.hits +3" in capsys.readouterr().out
        # Backwards diff fails loudly.
        assert main(["metrics", second, "--diff", first]) == 1

    def test_metrics_missing_file_fails(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot load" in capsys.readouterr().err

    def test_metrics_rejects_wrong_schema_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema": "repro.trace/1", "meta": {}}\n')
        assert main(["metrics", str(path)]) == 1

    def test_top_once_against_live_server(self, capsys):
        server = OptimizationServer(ServerConfig(
            address=("127.0.0.1", 0), workers=1
        ))
        host, port = tuple(server.start())
        try:
            with ServiceClient((host, port)) as client:
                assert client.optimize(api.OptimizeRequest.build(
                    chain_query(5, rng=2), "dp"
                )).ok
            assert main([
                "top", "--connect", f"{host}:{port}", "--once"
            ]) == 0
            out = capsys.readouterr().out
            assert "repro top" in out
            assert "received  1" in out
        finally:
            server.request_stop()
            server.shutdown(drain_timeout=DRAIN_TIMEOUT)

    def test_top_dead_daemon_exit_code(self, tmp_path, capsys):
        assert main([
            "top", "--connect", str(tmp_path / "nope.sock"), "--once"
        ]) == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_top_bad_flags_exit_code(self, tmp_path, capsys):
        assert main([
            "top", "--connect", "127.0.0.1:1", "--interval", "0"
        ]) == 2
        assert main([
            "top", "--connect", "127.0.0.1:1", "--iterations", "-1"
        ]) == 2

    def test_serve_bad_telemetry_flags_exit_code(self, capsys):
        assert main([
            "serve", "--metrics-interval", "0"
        ]) == 2
        # The retired event-log flags are unknown arguments now.
        for flag in ("--events-out", "--slow-ms"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", flag, "x"])
            assert exit_info.value.code == 2
