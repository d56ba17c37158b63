"""Join-order optimizers for QO_N instances.

Exact:

* :func:`exhaustive_optimal` — all ``n!`` permutations with pruning;
* :func:`dp_optimal` — dynamic programming over relation subsets
  (the left-deep optimum in ``O(2^n n)``; valid because both
  ``N(X)`` and the probe cost into a new relation depend on the
  *set* ``X`` only, not its order).

Polynomial-time heuristics (the algorithms whose competitive ratio the
paper lower-bounds):

* :func:`greedy_min_cost`, :func:`greedy_min_size` — greedy next-join;
* :func:`ikkbz` — the Ibaraki–Kameda / Krishnamurthy–Boral–Zaniolo
  rank-based optimum for *tree* query graphs;
* :func:`iterative_improvement`, :func:`simulated_annealing`,
  :func:`random_sampling` — randomized search.
"""

from repro.joinopt.optimizers.base import PlanResult
from repro.joinopt.optimizers.exhaustive import exhaustive_optimal
from repro.joinopt.optimizers.dynamic_programming import dp_optimal
from repro.joinopt.optimizers.greedy import greedy_min_cost, greedy_min_size
from repro.joinopt.optimizers.ikkbz import ikkbz
from repro.joinopt.optimizers.local_search import (
    iterative_improvement,
    random_sampling,
)
from repro.joinopt.optimizers.annealing import simulated_annealing
from repro.joinopt.optimizers.genetic import genetic_algorithm
from repro.joinopt.optimizers.branch_and_bound import branch_and_bound


def __getattr__(name: str) -> type:
    # Deprecated alias kept importable (lazily, so internal code
    # cannot pick it up by accident; see lint rule RPR003).
    if name == "OptimizerResult":
        from repro.core.results import deprecated_alias

        return deprecated_alias(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OptimizerResult",
    "PlanResult",
    "exhaustive_optimal",
    "dp_optimal",
    "greedy_min_cost",
    "greedy_min_size",
    "ikkbz",
    "iterative_improvement",
    "random_sampling",
    "simulated_annealing",
    "genetic_algorithm",
    "branch_and_bound",
]
