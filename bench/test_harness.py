"""Tests of the benchmark's own logic: ``python -m pytest bench``."""

from __future__ import annotations

import pytest

import run
import serve
import workloads
from measure import Outcome
from tracing import attribute, concat

from repro import api
from repro.service import ServiceClient


def _span(id_, parent, name, start, duration, **attrs):
    record = {"id": id_, "parent": parent, "name": name, "start_s": start,
              "duration_s": duration, "counters": {}}
    if attrs:
        record["attrs"] = attrs
    return record


def _reply(wall_time_s, cached=False, coalesced=False):
    return api.ServiceReply(op="optimize", cached=cached,
                            coalesced=coalesced, wall_time_s=wall_time_s)


class TestReplyTimeAttribution:
    def test_cached_reply_is_all_overhead(self):
        # A cache hit answered in 1.4 ms carries the 30 ms wall time of
        # the computation that originally filled the cache entry.
        samples = [serve.record(0, 0.0014, _reply(0.030, cached=True))]
        compute, overhead = serve.split_reply_times(samples)
        assert compute == []
        assert overhead == [0.0014]

    def test_computed_reply_splits_round_trip(self):
        samples = [serve.record(0, 0.050, _reply(0.040))]
        compute, overhead = serve.split_reply_times(samples)
        assert compute == [0.040]
        assert overhead == [pytest.approx(0.010)]

    def test_coalesced_and_failed_replies_are_left_out(self):
        samples = [
            serve.record(0, 0.020, _reply(0.030, coalesced=True)),
            serve.Sample(1, 0.020, error="unavailable"),
            serve.record(2, 0.020, api.ServiceReply(op="optimize",
                                                    status="error")),
        ]
        assert serve.split_reply_times(samples) == ([], [])

    def test_live_daemon_cache_hit(self):
        request = api.OptimizeRequest.build(
            api.generate("random", 9, seed=1), "dp"
        )
        with serve.Daemon() as daemon, \
                ServiceClient(daemon.address) as client:
            computed = client.optimize(request)
            cached = client.optimize(request)
        assert cached.cached and not computed.cached
        # The field the split must not trust: a hit reports the
        # originating computation's time, not its own.
        assert cached.wall_time_s == computed.wall_time_s
        compute, overhead = serve.split_reply_times([
            serve.record(0, 0.5, computed), serve.record(0, 0.001, cached),
        ])
        assert compute == [computed.wall_time_s]
        assert overhead[1] == 0.001

    def test_wrong_result_fails_the_sample(self):
        request = api.OptimizeRequest.build(
            api.generate("chain", 6, seed=2), "dp"
        )
        other = api.OptimizeRequest.build(
            api.generate("chain", 6, seed=3), "dp"
        )
        refs = workloads.references([(0, request)])
        reply = api.ServiceReply(op="optimize",
                                 result=api.execute_request(other))
        assert serve.record(0, 0.001, reply, refs).error is not None
        reply = api.ServiceReply(op="optimize",
                                 result=api.execute_request(request))
        assert serve.record(0, 0.001, reply, refs).error is None


class TestAttribution:
    def test_nested_spans_reconcile(self):
        records = [
            _span(0, None, "bench.w", 0.0, 10.0),
            _span(1, 0, "runtime.sweep", 1.0, 6.0),
            _span(2, 1, "optimize.dp", 2.0, 4.0),
        ]
        layers, unattributed, error = attribute(records, 0)
        assert layers["runtime"] == pytest.approx(2.0)
        assert layers["joinopt"] == pytest.approx(4.0)
        assert unattributed == pytest.approx(4.0)
        assert error == pytest.approx(0.0)

    def test_parallel_children_count_per_worker(self):
        records = [
            _span(0, None, "bench.w", 0.0, 10.0),
            _span(1, 0, "sweep", 0.0, 8.0, parallel=2, origin="sweep"),
            _span(2, 1, "task", 0.0, 6.0, origin="task-0"),
            _span(3, 2, "optimize.dp", 0.0, 5.0),
            _span(4, 1, "task", 0.0, 6.0, origin="task-1"),
            _span(5, 4, "optimize.dp", 0.0, 5.0),
        ]
        layers, unattributed, error = attribute(records, 0)
        # sweep: 8 - (6 + 6) / 2 = 2; tasks: 2 x 1 / 2; dp: 2 x 5 / 2.
        assert layers["runtime"] == pytest.approx(3.0)
        assert layers["joinopt"] == pytest.approx(5.0)
        assert unattributed == pytest.approx(2.0)
        assert error == pytest.approx(0.0)

    def test_overrunning_child_shows_as_error(self):
        records = [
            _span(0, None, "bench.w", 0.0, 1.0),
            _span(1, 0, "service.optimize", 0.0, 1.0),
            _span(2, 1, "service.optimize", 0.0, 3.0, origin="service-x"),
        ]
        _, _, error = attribute(records, 0)
        assert error == pytest.approx(2.0)

    def test_reused_reply_graft_is_left_out(self):
        # A cached reply's grafted server trace is the originating
        # request's; counting it would overrun the 1 ms request span.
        records = [
            _span(0, None, "bench.client", 0.0, 1.0),
            _span(1, 0, "bench.request", 0.0, 0.001, reused=True),
            _span(2, 1, "service.optimize", 0.0, 0.001),
            _span(3, 2, "service.optimize", 0.0, 0.030, origin="service-x"),
            _span(4, 3, "optimize.dp", 0.0, 0.029),
        ]
        layers, _, error = attribute(records, 0)
        assert layers["rpc"] == pytest.approx(0.001)
        assert layers["joinopt"] == 0.0
        assert error == pytest.approx(0.0)

    def test_concat_keeps_roots_apart(self):
        first = [_span(0, None, "bench.w", 0.0, 1.0),
                 _span(1, 0, "runtime.sweep", 0.0, 1.0)]
        second = [_span(0, None, "bench.probes", 0.0, 2.0),
                  _span(1, 0, "probe.perf.compile", 0.0, 1.0)]
        records = concat(first, second)
        assert [r["id"] for r in records] == [0, 1, 2, 3]
        assert [r["parent"] for r in records] == [None, 0, None, 2]
        assert attribute(records, 2)[0]["perf"] == pytest.approx(1.0)


class TestCompare:
    @staticmethod
    def _summary(median):
        entry = {"unit": "ms", "n": 3, "median": median, "q1": median,
                 "q3": median, "values": [median] * 3}
        return {"workloads": {"serve-hot": {"latency_p50_ms": entry}}}

    def test_within_bound(self):
        assert run.compare(self._summary(1.0), self._summary(1.05))

    def test_worse_than_bound(self):
        assert not run.compare(self._summary(1.0), self._summary(1.5))

    def test_better_is_fine(self):
        assert run.compare(self._summary(1.0), self._summary(0.5))


def test_counter_identity_check():
    balanced = {"received": 3, "computed": 1, "cache_hits": 2,
                "coalesced": 0, "rejected": 0, "errors": 0}
    outcome = Outcome()
    serve.check_identity(balanced, outcome)
    assert outcome.correct
    serve.check_identity(dict(balanced, received=4), outcome)
    assert not outcome.correct


def test_cold_sample_is_one_in_four_over_every_type():
    sampled = [k for k in range(64) if workloads.cold_sampled(k)]
    assert len(sampled) == 16
    assert {k % len(workloads.COLD_MIX) for k in sampled} == {0, 1, 2, 3}


def test_inputs_depend_only_on_the_seed():
    first = workloads.cold_request(7, 5)
    again = workloads.cold_request(7, 5)
    other = workloads.cold_request(8, 5)
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()
    specs = workloads.sweep_specs("sweep-dispatch", 3)
    assert specs[0].fingerprint() == (
        workloads.sweep_specs("sweep-dispatch", 3)[0].fingerprint()
    )
