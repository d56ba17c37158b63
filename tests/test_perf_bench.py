"""Gates of the perf kernels on the smallest gap-family cases.

Each family is run once per module, both paths on the same draws
(seed 0): the Theorem 9 NO instance at n = 12 with 60 sampled moves,
through :class:`~repro.perf.incremental.PrefixEvaluator` and
:func:`~repro.joinopt.cost.total_cost`, and the Theorem 15 NO instance
at n = 6 with 12 moves, through :class:`~repro.perf.qoh.QOHEvaluator`
and :func:`~repro.hashjoin.optimizer.best_decomposition`.  The tests
assert that both paths agree on every sequence, that the kernel does
at least 5x fewer exact multiplications per neighbor, and that the
QO_H evaluator reuses fragments and solves fewer allocation LPs.
``tests/test_perf_differential.py`` pins the exact counts over the
whole grid.
"""

import pytest

from repro.hashjoin import allocation, pipeline
from repro.hashjoin.optimizer import best_decomposition
from repro.joinopt.cost import total_cost
from repro.perf.incremental import PrefixEvaluator, sample_moves
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.perf.qoh import QOHEvaluator
from repro.runtime.costcache import use_cache
from repro.utils.rng import make_rng
from tests.test_perf_differential import (
    _assert_identical,
    _feasible_base,
    _shuffled,
    _t15_no_instance,
    _t9_no_instance,
)

#: Reference-path multiplications (plus divisions) per neighbor must be
#: at least this many times the kernel's.
MULT_REDUCTION_TARGET = 5


@pytest.fixture(scope="module")
def qon_case():
    n, move_count = 12, 60
    instance = _t9_no_instance(n)
    rng = make_rng(0)
    base = _shuffled(n, rng)
    moves = sample_moves(n, rng, move_count)
    neighbors = [move.apply(base) for move in moves]
    counter = OpCounter()
    counting = counting_qon_instance(instance, counter)
    with use_cache(None):
        reference = [total_cost(instance, base)]
        reference.extend(total_cost(instance, key) for key in neighbors)
        evaluator = PrefixEvaluator(instance)
        kernel = [evaluator.rebase(base)]
        kernel.extend(
            cost for _, _, cost in evaluator.evaluate_neighbors(base, moves)
        )

        for neighbor in neighbors:
            total_cost(counting, neighbor)
        reference_mults = counter.multiplicative
        counting_evaluator = PrefixEvaluator(counting)
        counting_evaluator.rebase(base)
        counter.reset()
        for _ in counting_evaluator.evaluate_neighbors(base, moves):
            pass
        kernel_mults = counter.multiplicative
    return {
        "reference": reference,
        "kernel": kernel,
        "reference_mults": reference_mults,
        "kernel_mults": kernel_mults,
    }


@pytest.fixture(scope="module")
def qoh_case():
    instance = _t15_no_instance(6)
    rng = make_rng(0)
    base = _feasible_base(instance, rng)
    moves = sample_moves(instance.num_relations, rng, 12)
    sequences = [base] + [move.apply(base) for move in moves]
    calls = [0]
    original = allocation.allocate_memory

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, use_cache(None):
        patch.setattr(allocation, "allocate_memory", counted)
        patch.setattr(pipeline, "allocate_memory", counted)
        reference = [
            best_decomposition(instance, sequence) for sequence in sequences
        ]
        reference_solves = calls[0]
        calls[0] = 0
        evaluator = QOHEvaluator(instance)
        kernel = [evaluator.best_plan(sequence) for sequence in sequences]
        kernel_solves = calls[0]
    return {
        "reference": reference,
        "kernel": kernel,
        "reference_solves": reference_solves,
        "kernel_solves": kernel_solves,
        "evaluator": evaluator,
    }


class TestRunBench:
    def test_both_paths_identical_on_every_case(self, qon_case, qoh_case):
        assert len(qon_case["kernel"]) == len(qon_case["reference"]) == 61
        for kernel, reference in zip(qon_case["kernel"], qon_case["reference"]):
            _assert_identical(kernel, reference)
        assert len(qoh_case["reference"]) == 13
        assert qoh_case["kernel"] == qoh_case["reference"]

    def test_mult_reduction_target_met(self, qon_case):
        """The kernel does at least 5x fewer exact multiplications."""
        kernel_mults = qon_case["kernel_mults"]
        assert 0 < kernel_mults < qon_case["reference_mults"]
        assert (
            MULT_REDUCTION_TARGET * kernel_mults <= qon_case["reference_mults"]
        )

    def test_qoh_fragments_are_shared(self, qoh_case):
        evaluator = qoh_case["evaluator"]
        assert qoh_case["kernel_solves"] == evaluator.fragments_computed
        assert qoh_case["kernel_solves"] < qoh_case["reference_solves"]
        assert evaluator.fragments_reused > 0
