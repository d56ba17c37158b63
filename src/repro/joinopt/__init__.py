"""QO_N substrate: nested-loops join ordering (paper Section 2.1).

An instance is ``(n, Q=(V,E), S, T, W)``: a query graph, a symmetric
selectivity matrix, relation sizes and an access-path cost matrix.  A
plan is a permutation of the relations (a *join sequence*), executed
left-deep with nested-loops joins; its cost is the paper's
``C(Z) = sum_i H_i(Z)`` with ``H_i(Z) = N(X) * min_{k in X} w_{k j}``.

Modules:

* :mod:`repro.joinopt.instance` — the instance model with the paper's
  ``t_j s_ij <= w_ij <= t_j`` access-path bounds enforced;
* :mod:`repro.joinopt.cost` — N(X), H_i, C(Z), back-edge/prefix-edge
  statistics (B_i, D_i);
* :mod:`repro.joinopt.optimizers` — exact (exhaustive, subset DP) and
  polynomial-time heuristic (greedy, IKKBZ, iterative improvement,
  simulated annealing, random sampling) optimizers.
"""

from repro.joinopt.instance import QONInstance
from repro.joinopt.cost import (
    back_edge_counts,
    has_cartesian_product,
    intermediate_sizes,
    join_costs,
    prefix_edge_counts,
    total_cost,
)
from repro.joinopt.bounds import (
    dominance_lower_bound,
    first_join_lower_bound,
    lemma8_style_lower_bound,
)
from repro.joinopt.optimizers import (
    PlanResult,
    branch_and_bound,
    dp_optimal,
    exhaustive_optimal,
    genetic_algorithm,
    greedy_min_cost,
    greedy_min_size,
    ikkbz,
    iterative_improvement,
    random_sampling,
    simulated_annealing,
)


__all__ = [
    "QONInstance",
    "back_edge_counts",
    "has_cartesian_product",
    "intermediate_sizes",
    "join_costs",
    "prefix_edge_counts",
    "total_cost",
    "dominance_lower_bound",
    "first_join_lower_bound",
    "lemma8_style_lower_bound",
    "PlanResult",
    "branch_and_bound",
    "dp_optimal",
    "exhaustive_optimal",
    "genetic_algorithm",
    "greedy_min_cost",
    "greedy_min_size",
    "ikkbz",
    "iterative_improvement",
    "random_sampling",
    "simulated_annealing",
]
