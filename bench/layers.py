"""Per-layer probes: timed calls into each layer's public functions.

The kernel and optimizer probes run on the Theorem 9 NO instance at
n = 13 and the Theorem 15 NO instance at n = 9 (n = 6 for QO_H
annealing, as in the EXP grid); the codec and protocol probes run on
the workload's own requests.  Every probe runs under a
``probe.<layer>.<what>`` span.  Rates repeat a call with fresh ``rng``
seeds until :data:`MIN_PROBE_S` has passed, so short calls still give
steady numbers.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import workloads
from measure import Outcome
from tracing import span
from workloads import Refs

from repro import api
from repro.hashjoin import allocation, pipeline
from repro.hashjoin.annealing import qoh_simulated_annealing
from repro.hashjoin.search import qoh_beam_search
from repro.joinopt.optimizers import (
    dp_optimal,
    iterative_improvement,
    simulated_annealing,
)
from repro.observability import Tracer
from repro.perf import CompiledQOH, CompiledQON, PrefixEvaluator, sample_moves
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.service import protocol

MIN_PROBE_S = 0.3

#: Instance sizes: DP rate, DP multiplication count (counting proxies
#: are slow, so a smaller n), QO_H search.
DP_N = 13
DP_MULTS_N = 10
QOH_N = 9

#: Neighborhood moves per incremental-evaluation probe.
MOVES = 200

#: Timed calls per request and codec operation.
CODEC_REPEATS = 10


def _rate(run: Callable[[int], Any], rng: random.Random) -> float:
    """``explored`` per second over repeated seeded calls."""
    explored = 0
    elapsed = 0.0
    while elapsed < MIN_PROBE_S:
        seed = rng.randrange(2**31)
        started = time.perf_counter()
        result = run(seed)
        elapsed += time.perf_counter() - started
        explored += result.explored
    return explored / elapsed


def _median_us(run: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


@contextmanager
def _counting_lp_solves() -> Iterator[List[int]]:
    """Count allocation-LP solves (``allocate_memory`` calls) by every
    name the hash-join layer calls it through."""
    calls = [0]
    original = allocation.allocate_memory

    def counted(*args: Any, **kwargs: Any) -> Any:
        calls[0] += 1
        return original(*args, **kwargs)

    allocation.allocate_memory = counted
    pipeline.allocate_memory = counted
    try:
        yield calls
    finally:
        allocation.allocate_memory = original
        pipeline.allocate_memory = original


def kernel_probes(seed: int, tracer: Optional[Tracer],
                  outcome: Outcome) -> None:
    """The ``joinopt.*``, ``hashjoin.*`` and ``perf.*`` metrics.

    The rates draw their ``rng`` seeds from one stream; the counts use
    streams of their own, so they repeat exactly for a given seed.
    """
    rng = random.Random(f"probes:{seed}")
    qon = workloads.t9_pair(DP_N).no_reduction.instance
    qoh = workloads.t15_no(QOH_N)

    with span(tracer, "probe.joinopt.dp"):
        started = time.perf_counter()
        result = dp_optimal(qon)
        wall = time.perf_counter() - started
    outcome.add("joinopt.dp_ms", wall * 1e3, "ms")
    outcome.add("joinopt.dp_evals_per_s", result.explored / wall, "1/s")
    with span(tracer, "probe.joinopt.dp_mults"):
        counter = OpCounter()
        small = workloads.t9_pair(DP_MULTS_N).no_reduction.instance
        dp_optimal(counting_qon_instance(small, counter))
    outcome.add("joinopt.dp_mults", counter.multiplicative, "count")
    with span(tracer, "probe.joinopt.iterative"):
        outcome.add("joinopt.iterative_evals_per_s", _rate(
            lambda r: iterative_improvement(qon, rng=r), rng), "1/s")
    with span(tracer, "probe.joinopt.annealing"):
        outcome.add("joinopt.annealing_evals_per_s", _rate(
            lambda r: simulated_annealing(qon, rng=r), rng), "1/s")

    with span(tracer, "probe.hashjoin.beam"):
        outcome.add("hashjoin.beam_plans_per_s", _rate(
            lambda r: qoh_beam_search(qoh, beam_width=8, rng=r), rng), "1/s")
    with span(tracer, "probe.hashjoin.annealing"):
        small_qoh = workloads.t15_no(6)
        outcome.add("hashjoin.annealing_evals_per_s", _rate(
            lambda r: qoh_simulated_annealing(
                small_qoh, steps_per_temperature=4, rng=r), rng), "1/s")
    with span(tracer, "probe.hashjoin.lp_solves"), \
            _counting_lp_solves() as calls:
        qoh_beam_search(qoh, beam_width=8, rng=seed)
    outcome.add("hashjoin.lp_solves", calls[0], "count")

    with span(tracer, "probe.perf.compile"):
        outcome.add("perf.compile_qon_us",
                    _median_us(lambda: CompiledQON(qon), 20), "us")
        outcome.add("perf.compile_qoh_us",
                    _median_us(lambda: CompiledQOH(qoh), 20), "us")
    moves_rng = random.Random(f"probe-moves:{seed}")
    order = list(range(DP_N))
    moves_rng.shuffle(order)
    base = tuple(order)
    moves = sample_moves(DP_N, moves_rng, MOVES)
    with span(tracer, "probe.perf.neighbors"):
        evaluations = 0
        elapsed = 0.0
        while elapsed < MIN_PROBE_S:
            started = time.perf_counter()
            evaluator = PrefixEvaluator(qon)
            evaluator.rebase(base)
            for _ in evaluator.evaluate_neighbors(base, moves):
                pass
            elapsed += time.perf_counter() - started
            evaluations += len(moves) + 1
    outcome.add("perf.qon_neighbor_evals_per_s", evaluations / elapsed,
                "1/s")
    with span(tracer, "probe.perf.mults"):
        counter = OpCounter()
        evaluator = PrefixEvaluator(counting_qon_instance(qon, counter))
        evaluator.rebase(base)
        counter.reset()
        for _ in evaluator.evaluate_neighbors(base, moves):
            pass
    outcome.add("perf.qon_mults_per_eval", counter.multiplicative / MOVES,
                "count")


def codec_probes(
    cells: List[Tuple[Any, Any]],
    refs: Refs,
    tracer: Optional[Tracer],
    outcome: Outcome,
) -> None:
    """The ``codec.*`` and ``protocol.*`` metrics on the workload's own
    requests and their replies, as the client and daemon handle them."""
    timings: Dict[str, List[float]] = {}
    sizes: Dict[str, List[float]] = {"request": [], "reply": []}

    def time_us(name: str, run: Callable[[], Any]) -> None:
        timings.setdefault(name, []).append(_median_us(run, CODEC_REPEATS))

    for key, request in cells:
        with span(tracer, "probe.codec.request"):
            payload = request.to_dict()
            time_us("codec.request_encode_us", request.to_dict)
            time_us("codec.request_decode_us",
                    lambda: api.OptimizeRequest.from_dict(payload))
            time_us("codec.fingerprint_us", request.fingerprint)
        reply = api.ServiceReply(op="optimize", result=refs[key][0],
                                 fingerprint=request.fingerprint())
        with span(tracer, "probe.codec.reply"):
            reply_payload = reply.to_dict()
            time_us("codec.reply_encode_us", reply.to_dict)
            time_us("codec.reply_decode_us",
                    lambda: api.ServiceReply.from_dict(reply_payload))
        frame = protocol.request_frame("optimize", 0, payload)
        with span(tracer, "probe.protocol.frames"):
            line = protocol.encode_frame(frame)
            time_us("protocol.encode_frame_us",
                    lambda: protocol.encode_frame(frame))
            time_us("protocol.decode_line_us",
                    lambda: protocol.decode_line(line))
        sizes["request"].append(len(line))
        sizes["reply"].append(len(protocol.encode_frame(
            protocol.reply_frame(0, reply_payload)
        )))
    for name, samples in timings.items():
        outcome.add(name, statistics.median(samples), "us")
    for kind, samples in sizes.items():
        outcome.add(f"codec.{kind}_bytes", statistics.median(samples),
                    "bytes")
