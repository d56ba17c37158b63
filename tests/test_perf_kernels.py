"""Unit tests for the compiled perf kernels and their lifetimes.

Covers, per ISSUE requirements:

* the compiled views expose exactly the values the instance accessors
  return (sizes, selectivities, access costs, adjacency bitmasks);
* kernel memoization: one compilation per live instance, and the memo
  never pins an instance — dropping every evaluator makes the instance
  collectable (the WeakValueDictionary entry clears itself);
* :meth:`CostCache.token` memoizes fingerprints per live instance,
  drops the slot when the instance dies, and falls back to
  per-call fingerprints for non-weakrefable objects;
* ``sample_moves`` never emits a no-op move (the ``Reinsert(i, i)``
  bug that used to inflate ``explored``), with pinned ``explored``
  counts for the corrected metaheuristic loops.
"""

import gc
import threading
import weakref
from fractions import Fraction

import pytest

from repro.joinopt.cost import total_cost
from repro.joinopt.optimizers import (
    genetic_algorithm,
    iterative_improvement,
    random_sampling,
    simulated_annealing,
)
from repro.perf.incremental import (
    AdjacentSwap,
    PrefixEvaluator,
    Reinsert,
    sample_moves,
)
from repro.perf.kernels import (
    CompiledQOH,
    CompiledQON,
    compile_qoh,
    compile_qon,
    is_exact_value,
    iter_bits,
    retain_kernels,
)
from repro.perf.qoh import QOHEvaluator
from repro.runtime.costcache import CostCache
from repro.utils.rng import make_rng
from repro.workloads.gaps import qoh_gap_pair
from repro.workloads.queries import random_query


class TestIterBits:
    def test_ascending_indices(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1)) == [0]
        assert list(iter_bits(0b101101)) == [0, 2, 3, 5]

    def test_roundtrip(self):
        mask = 0b1101010011
        assert sum(1 << b for b in iter_bits(mask)) == mask


class TestIsExactValue:
    def test_int_and_fraction_are_exact(self):
        assert is_exact_value(3)
        assert is_exact_value(Fraction(1, 7))

    def test_float_is_not(self):
        assert not is_exact_value(0.5)
        assert not is_exact_value(object())


class TestCompiledQON:
    def test_tables_match_instance_accessors(self):
        instance = random_query(6, rng=0)
        kernel = compile_qon(instance)
        n = instance.num_relations
        assert kernel.n == n
        assert kernel.full_mask == (1 << n) - 1
        for v in range(n):
            assert kernel.sizes[v] == instance.size(v)
        for u in range(n):
            for v in range(n):
                if u == v:
                    assert kernel.sel[u][v] == 1
                    continue
                assert kernel.sel[u][v] == instance.selectivity(u, v)
                assert kernel.access[u][v] == instance.access_cost(u, v)

    def test_adjacency_is_nonunit_selectivity_edges(self):
        instance = random_query(7, rng=1)
        kernel = compile_qon(instance)
        graph = instance.graph
        for u in range(kernel.n):
            expected = 0
            for v in range(kernel.n):
                if v == u:
                    continue
                if graph.has_edge(u, v) and instance.selectivity(u, v) != 1:
                    expected |= 1 << v
            assert kernel.adj[u] == expected

    def test_exact_flag(self):
        instance = random_query(5, rng=2)
        assert compile_qon(instance).exact
        assert not compile_qon(instance.to_log_domain()).exact

    def test_check_permutation_contract(self):
        instance = random_query(5, rng=3)
        kernel = compile_qon(instance)
        kernel.check_permutation((4, 2, 0, 1, 3))
        for bad in [(0, 1, 2, 3), (0, 0, 1, 2, 3), (0, 1, 2, 3, 5)]:
            with pytest.raises(Exception) as kernel_error:
                kernel.check_permutation(bad)
            with pytest.raises(Exception) as reference_error:
                total_cost(instance, bad)
            assert str(kernel_error.value) == str(reference_error.value)


class TestCompiledQOH:
    @staticmethod
    def _instance():
        return qoh_gap_pair(6, Fraction(1, 2), alpha=4**6).no_reduction.instance

    def test_tables_and_feasibility(self):
        instance = self._instance()
        kernel = compile_qoh(instance)
        n = instance.num_relations
        for r in range(n):
            assert kernel.sizes[r] == instance.size(r)
            assert kernel.hjmin[r] == instance.hjmin(r)
            feasible = bool(kernel.feasible_mask >> r & 1)
            assert feasible == (instance.hjmin(r) <= instance.memory)
        assert kernel.memory == instance.memory

    def test_extend_size_equals_prefix_product(self):
        instance = self._instance()
        kernel = compile_qoh(instance)
        rng = make_rng(0)
        sequence = list(range(instance.num_relations))
        rng.shuffle(sequence)
        size = Fraction(kernel.sizes[sequence[0]])
        mask = 1 << sequence[0]
        for position, vertex in enumerate(sequence[1:], start=1):
            size = kernel.extend_size(size, mask, vertex)
            mask |= 1 << vertex
            expected = Fraction(1)
            prefix = sequence[: position + 1]
            for r in prefix:
                expected *= kernel.sizes[r]
            for i, u in enumerate(prefix):
                for v in prefix[i + 1:]:
                    if instance.graph.has_edge(u, v):
                        expected *= instance.selectivity(u, v)
            assert size == expected


class TestKernelMemoization:
    def test_one_compilation_per_live_instance(self):
        instance = random_query(5, rng=4)
        assert compile_qon(instance) is compile_qon(instance)
        kernel = compile_qon(instance)
        assert compile_qon(kernel) is kernel

    def test_qoh_memoized_and_idempotent(self):
        instance = TestCompiledQOH._instance()
        kernel = compile_qoh(instance)
        assert compile_qoh(instance) is kernel
        assert compile_qoh(kernel) is kernel

    def test_memo_does_not_pin_the_instance(self):
        instance = random_query(5, rng=5)
        evaluator = PrefixEvaluator(instance)
        finalized = weakref.ref(instance)
        del instance
        gc.collect()
        assert finalized() is not None  # evaluator keeps the kernel alive
        del evaluator
        gc.collect()
        assert finalized() is None

    def test_qoh_memo_does_not_pin_the_instance(self):
        instance = TestCompiledQOH._instance()
        evaluator = QOHEvaluator(instance)
        finalized = weakref.ref(instance)
        del instance, evaluator
        gc.collect()
        assert finalized() is None


class TestPinTier:
    def test_interleaved_scopes_on_two_threads_leave_nothing_pinned(self):
        """Scope A enters, scope B enters, A exits, B exits, each on
        its own thread: a scope keeps its own thread's kernels alive
        while it is open, A's exit does not release B's, and nothing
        outlives its scope, so a kernel compiled afterwards is not
        kept alive by a stale scope."""
        a_entered, b_entered, a_exited = (
            threading.Event() for _ in range(3)
        )
        alive = {}

        def compiled(seed):
            return weakref.ref(compile_qon(random_query(5, rng=seed)))

        def scope_a():
            with retain_kernels():
                kernel = compiled(12)
                a_entered.set()
                b_entered.wait(10)
                gc.collect()
                alive["a in scope"] = kernel() is not None
            # Checked while B's scope is still open.
            gc.collect()
            alive["a after scope"] = kernel() is not None
            a_exited.set()

        def scope_b():
            a_entered.wait(10)
            with retain_kernels():
                kernel = compiled(13)
                b_entered.set()
                a_exited.wait(10)
                gc.collect()
                alive["b after a exits"] = kernel() is not None
            gc.collect()
            alive["b after scope"] = kernel() is not None

        threads = [
            threading.Thread(target=scope_a),
            threading.Thread(target=scope_b),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert a_exited.is_set() and b_entered.is_set()
        assert alive == {
            "a in scope": True,
            "a after scope": False,
            "b after a exits": True,
            "b after scope": False,
        }
        instance = random_query(5, rng=11)
        kernel = weakref.ref(compile_qon(instance))
        del instance
        gc.collect()
        assert kernel() is None

    def test_nested_scopes_retain_until_the_outermost_exits(self):
        with retain_kernels():
            with retain_kernels():
                kernel = weakref.ref(compile_qon(random_query(5, rng=14)))
            gc.collect()
            assert kernel() is not None
        gc.collect()
        assert kernel() is None


class _OpaqueInstance:
    """A QON-shaped view without a ``__weakref__`` slot."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    @property
    def graph(self):
        return self._inner.graph

    def size(self, relation):
        return self._inner.size(relation)

    def selectivity(self, i, j):
        return self._inner.selectivity(i, j)

    def access_cost(self, i, j):
        return self._inner.access_cost(i, j)


class TestCostCacheTokens:
    def test_token_memoized_per_live_instance(self):
        cache = CostCache()
        instance = random_query(5, rng=6)
        first = cache.token(instance)
        assert cache.token(instance) == first
        assert len(cache._tokens) == 1

    def test_token_slot_cleared_when_instance_dies(self):
        cache = CostCache()
        instance = random_query(5, rng=7)
        cache.token(instance)
        assert len(cache._tokens) == 1
        del instance
        gc.collect()
        assert cache._tokens == {}

    def test_non_weakrefable_instances_fall_back(self):
        cache = CostCache()
        inner = random_query(5, rng=8)
        opaque = _OpaqueInstance(inner)
        with pytest.raises(TypeError):
            weakref.ref(opaque)
        token = cache.token(opaque)
        assert token == cache.token(opaque)  # deterministic per call
        # Nothing memoized: no slot to pin or to alias on id reuse.
        assert all(
            entry[0]() is not opaque for entry in cache._tokens.values()
        )

    def test_instance_slots_accept_weakrefs(self):
        qon = random_query(4, rng=9)
        qoh = TestCompiledQOH._instance()
        assert weakref.ref(qon)() is qon
        assert weakref.ref(qoh)() is qoh


class TestSampleMoves:
    def test_no_noop_moves(self):
        rng = make_rng(0)
        for n in (2, 3, 5, 9):
            base = tuple(range(n))
            for move in sample_moves(n, rng, 500):
                if isinstance(move, Reinsert):
                    assert move.source != move.target
                else:
                    assert isinstance(move, AdjacentSwap)
                    assert 0 <= move.index < n - 1
                assert move.apply(base) != base

    def test_apply_semantics(self):
        base = (0, 1, 2, 3, 4)
        assert AdjacentSwap(1).apply(base) == (0, 2, 1, 3, 4)
        assert Reinsert(3, 0).apply(base) == (3, 0, 1, 2, 4)
        assert Reinsert(0, 3).apply(base) == (1, 2, 3, 0, 4)

    def test_requires_two_relations(self):
        with pytest.raises(Exception):
            sample_moves(1, make_rng(0), 1)


class TestExploredCountsPinned:
    """The no-op-move fix changes ``explored``; pin the corrected counts.

    ``Reinsert(i, i)`` candidates used to be evaluated (and counted)
    even though they are the identity.  With the redraw in
    ``sample_moves``, every counted candidate is a genuine neighbor —
    these golden counts hold as long as the draw pattern is stable.
    """

    @staticmethod
    def _instance():
        return random_query(7, rng=42)

    def test_iterative_improvement(self):
        result = iterative_improvement(
            self._instance(), restarts=3, neighborhood_samples=10, rng=0
        )
        assert result.explored == 124

    def test_simulated_annealing(self):
        result = simulated_annealing(
            self._instance(), steps_per_temperature=5, rng=0
        )
        assert result.explored == 566

    def test_random_sampling(self):
        result = random_sampling(self._instance(), samples=25, rng=0)
        assert result.explored == 25

    def test_every_counted_candidate_is_a_real_neighbor(self):
        instance = self._instance()
        evaluator = PrefixEvaluator(instance)
        base = tuple(range(instance.num_relations))
        evaluator.rebase(base)
        moves = sample_moves(instance.num_relations, make_rng(3), 200)
        for move, key, cost in evaluator.evaluate_neighbors(base, moves):
            assert key != base
            assert cost == total_cost(instance, key)


class TestQOHEvaluatorCounters:
    def test_fragments_are_reused_across_sequences(self):
        instance = TestCompiledQOH._instance()
        evaluator = QOHEvaluator(instance)
        n = instance.num_relations
        base = tuple(range(n))
        evaluator.best_plan(base)
        assert evaluator.plans_evaluated == 1
        first_computed = evaluator.fragments_computed
        assert first_computed > 0
        # A neighbor shares every fragment before the touched window.
        evaluator.best_plan(AdjacentSwap(n - 2).apply(base))
        assert evaluator.plans_evaluated == 2
        assert evaluator.fragments_reused > 0
        assert evaluator.fragments_computed < 2 * first_computed
