"""QO_H substrate: pipelined hash-join execution (paper Section 2.2).

A join sequence is decomposed into contiguous *pipelines*; within a
pipeline all hash tables are built first and the outer stream is probed
through them, with the available memory ``M`` split among the joins.
A join whose inner relation does not fit its memory share pays hybrid-
hash partitioning costs proportional to outer + inner size.

Modules:

* :mod:`repro.hashjoin.cost_model` — ``h(m, b_R, b_S)`` with the
  paper's linear ``g`` and ``hjmin(b) = ceil(b ** psi)``;
* :mod:`repro.hashjoin.instance` — ``(n, Q, S, T, M)`` instances;
* :mod:`repro.hashjoin.pipeline` — pipelines, decompositions and
  their costs;
* :mod:`repro.hashjoin.allocation` — optimal memory split within a
  pipeline (Lemma 10);
* :mod:`repro.hashjoin.optimizer` — DP over decomposition breakpoints
  and sequence search.
"""

from repro.hashjoin.cost_model import HashJoinCostModel
from repro.hashjoin.instance import QOHInstance
from repro.hashjoin.pipeline import (
    Pipeline,
    PipelineDecomposition,
    decomposition_cost,
    pipeline_cost,
)
from repro.hashjoin.allocation import allocate_memory
from repro.hashjoin.annealing import qoh_simulated_annealing
from repro.hashjoin.search import (
    qoh_beam_search,
    qoh_materialization_lower_bound,
    qoh_trivial_lower_bound,
)
from repro.hashjoin.optimizer import (
    PlanResult,
    best_decomposition,
    feasible_sequences,
    is_feasible_sequence,
    qoh_greedy,
    qoh_optimal,
)


__all__ = [
    "HashJoinCostModel",
    "QOHInstance",
    "Pipeline",
    "PipelineDecomposition",
    "decomposition_cost",
    "pipeline_cost",
    "allocate_memory",
    "PlanResult",
    "best_decomposition",
    "feasible_sequences",
    "is_feasible_sequence",
    "qoh_greedy",
    "qoh_optimal",
    "qoh_beam_search",
    "qoh_materialization_lower_bound",
    "qoh_trivial_lower_bound",
    "qoh_simulated_annealing",
]
