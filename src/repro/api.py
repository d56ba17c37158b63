"""Stable public facade over the three substrates.

This is the documented entry point for scripts, notebooks and the CLI;
everything here speaks plain data (family names, algorithm names,
:class:`~repro.core.results.PlanResult`) so callers never need to know
which subpackage implements what.

    from repro import api

    instance = api.generate("random", n=8, seed=1)
    result = api.optimize(instance, algorithm="dp")
    chain = api.reduce("qon", formula)
    spec = api.SweepSpec.build(["dp", "greedy-cost"], [("q0", instance)],
                               trace=True)
    sweep = api.sweep(spec)

Work is described by typed request objects — :class:`OptimizeRequest`
for one run, :class:`SweepSpec` for a grid — executed with
:func:`execute_request` (or shipped to a ``repro serve`` daemon
unchanged, since both round-trip through JSON exactly):

    request = api.OptimizeRequest.build(instance, "sampling", rng=0)
    result = api.execute_request(request)

:func:`optimize` takes ``(instance, algorithm)`` or an
:class:`OptimizeRequest`, which is where per-optimizer kwargs go;
:func:`sweep` takes only a :class:`SweepSpec`.

The deeper modules remain importable — the facade adds no state — but
only the names exported here are covered by the compatibility promise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.requests import (
    REPLY_SCHEMA,
    REQUEST_SCHEMA,
    OptimizeRequest,
    ServiceReply,
    SweepSpec,
)
from repro.core.results import PlanResult
from repro.observability.events import EVENTS_SCHEMA
from repro.observability.metrics import METRICS_SCHEMA
from repro.perf.kernels import pin_kernels
from repro.runtime.costcache import CostCache, use_cache
from repro.runtime.registry import InstanceRegistry, instance_key
from repro.runtime.journal import read_journal
from repro.runtime.metrics import (
    load_metrics,
    sweep_metrics,
    validate_metrics,
    write_metrics,
)
from repro.runtime.runner import (
    OPTIMIZERS,
    RetryPolicy,
    SweepResult,
    default_workers,
    grid_tasks,
    run_sweep,
)
from repro.utils.validation import require
from repro.workloads import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)

#: Workload family name -> generator (all take ``(n, rng=seed, ...)``).
FAMILIES: Dict[str, Callable] = {
    "chain": chain_query,
    "star": star_query,
    "cycle": cycle_query,
    "clique": clique_query,
    "random": random_query,
}

#: Facade version, bumped whenever the request/reply surface changes.
API_VERSION = "1.5"

#: Every wire schema this facade (and the service daemon) speaks.
RPC_SCHEMAS: Tuple[str, ...] = (
    "repro.rpc/1",
    REQUEST_SCHEMA,
    REPLY_SCHEMA,
    METRICS_SCHEMA,
    EVENTS_SCHEMA,
)

def capabilities() -> Dict[str, Any]:
    """What this facade can do, as plain JSON-safe data.

    The payload behind ``repro request --capabilities`` and the
    service handshake: the facade version, the wire schemas, and every
    family/optimizer/reduction name the request layer accepts.  Clients
    should check ``rpc_schemas`` before sending requests rather than
    pinning the facade version.
    """
    return {
        "api_version": API_VERSION,
        "rpc_schemas": list(RPC_SCHEMAS),
        "request_types": ["optimize_request", "sweep_spec"],
        "families": sorted(FAMILIES),
        "optimizers": sorted(OPTIMIZERS),
        "reductions": reduction_names(),
    }


def _reduction_registry() -> Dict[str, Callable]:
    # Resolved lazily: the chains import the substrate packages, and a
    # module-level import here would make ``repro.api`` heavy for
    # callers who only generate workloads.
    from repro.core.chains import hardness_chain_qoh, hardness_chain_qon
    from repro.core.reductions.clique_to_qoh import clique_to_qoh
    from repro.core.reductions.clique_to_qon import clique_to_qon
    from repro.core.reductions.partition_to_sppcs import partition_to_sppcs
    from repro.core.reductions.sat_to_clique import sat_to_clique
    from repro.core.reductions.sat_to_two_thirds_clique import (
        sat_to_two_thirds_clique,
    )
    from repro.core.reductions.sat_to_vc import sat_to_vertex_cover
    from repro.core.reductions.sparse import (
        sparse_clique_to_qoh,
        sparse_clique_to_qon,
    )
    from repro.core.reductions.sppcs_to_sqocp import sppcs_to_sqocp

    return {
        "qon": hardness_chain_qon,
        "qoh": hardness_chain_qoh,
        "sat-to-vertex-cover": sat_to_vertex_cover,
        "sat-to-clique": sat_to_clique,
        "sat-to-two-thirds-clique": sat_to_two_thirds_clique,
        "clique-to-qon": clique_to_qon,
        "clique-to-qoh": clique_to_qoh,
        "sparse-clique-to-qon": sparse_clique_to_qon,
        "sparse-clique-to-qoh": sparse_clique_to_qoh,
        "partition-to-sppcs": partition_to_sppcs,
        "sppcs-to-sqocp": sppcs_to_sqocp,
    }


def reduction_names() -> List[str]:
    """The chain names :func:`reduce` accepts."""
    return sorted(_reduction_registry())


def optimizer_names(substrate: Optional[str] = None) -> List[str]:
    """The algorithm names :func:`optimize` / :func:`sweep` accept.

    With ``substrate`` (``"qon"``, ``"qoh"`` or ``"sqocp"``) only the
    algorithms taking that substrate's instances are listed; registry
    names are substrate-prefixed for QO_H/SQO-CP, unprefixed for QO_N.
    """
    if substrate is None:
        return sorted(OPTIMIZERS)
    require(
        substrate in ("qon", "qoh", "sqocp"),
        f"unknown substrate {substrate!r}; known: qon, qoh, sqocp",
    )
    if substrate == "qon":
        return sorted(
            name for name in OPTIMIZERS
            if not name.startswith(("qoh-", "sqocp-"))
        )
    return sorted(
        name for name in OPTIMIZERS if name.startswith(substrate + "-")
    )


def substrate_of(instance: object) -> Optional[str]:
    """Which substrate an instance belongs to, or None.

    Returns ``"qon"``, ``"qoh"`` or ``"sqocp"`` — the value accepted by
    :func:`optimizer_names` — so callers (the CLI above all) can
    validate inputs without importing the substrate packages.
    """
    from repro.hashjoin.instance import QOHInstance
    from repro.joinopt.instance import QONInstance
    from repro.starqo.instance import SQOCPInstance

    if isinstance(instance, QONInstance):
        return "qon"
    if isinstance(instance, QOHInstance):
        return "qoh"
    if isinstance(instance, SQOCPInstance):
        return "sqocp"
    return None


def generate(family: str, n: int, seed: int = 0, **kwargs: Any) -> Any:
    """Generate a workload instance of the given family and size.

    ``family`` is one of :data:`FAMILIES`; extra keyword arguments pass
    through to the generator (e.g. ``size_max``, ``domain_max``).
    """
    require(
        family in FAMILIES,
        f"unknown family {family!r}; known: {sorted(FAMILIES)}",
    )
    return FAMILIES[family](n, rng=seed, **kwargs)


def reduce(chain: str, source: Any, **kwargs: Any) -> Any:
    """Run a named reduction (or full hardness chain) on ``source``.

    ``chain`` is one of :func:`reduction_names` — the end-to-end chains
    (``"qon"``, ``"qoh"``, taking a gap formula) or an individual step.
    Returns the reduction's construction object with all intermediate
    artifacts retained.
    """
    registry = _reduction_registry()
    require(
        chain in registry,
        f"unknown reduction chain {chain!r}; known: {sorted(registry)}",
    )
    return registry[chain](source, **kwargs)


def optimize(
    instance: Any, algorithm: Optional[str] = None
) -> PlanResult:
    """Run one optimizer on one instance; returns a :class:`PlanResult`.

    Either ``optimize(instance, algorithm)`` — ``algorithm`` defaults
    to ``"dp"`` — or ``optimize(request)`` with an
    :class:`OptimizeRequest`, which is where per-optimizer kwargs go
    (they serialize and fingerprint with the request)::

        api.optimize(api.OptimizeRequest.build(instance, "sampling", rng=0))

    ``algorithm`` is a name from :func:`optimizer_names`; the instance
    type must match the algorithm's substrate (``qoh-*`` expect a
    :class:`~repro.hashjoin.instance.QOHInstance`, ``sqocp-*`` a
    :class:`~repro.starqo.instance.SQOCPInstance`, the rest a
    :class:`~repro.joinopt.instance.QONInstance`).
    """
    if isinstance(instance, OptimizeRequest):
        require(
            algorithm is None,
            "optimize(request) takes no extra arguments; set the "
            "algorithm and params on the OptimizeRequest",
        )
        request = instance
    else:
        request = OptimizeRequest.build(
            instance, "dp" if algorithm is None else algorithm
        )
    return execute_request(request)


def request_fingerprint(request: Union[OptimizeRequest, SweepSpec]) -> str:
    """The stable content hash of a request (dedup/cache identity).

    Identical work — same instance statistics, optimizer, params,
    and (for sweeps) runner settings — yields the same fingerprint
    regardless of when or where the request object was built; the
    ``no_cache`` delivery flag is excluded.
    """
    require(
        isinstance(request, (OptimizeRequest, SweepSpec)),
        f"expected OptimizeRequest or SweepSpec, got {type(request)!r}",
    )
    return request.fingerprint()


def execute_request(
    request: Union[OptimizeRequest, SweepSpec],
) -> Union[PlanResult, SweepResult]:
    """Execute a typed request object locally.

    The single entry point the service daemon is allowed to call (lint
    rule RPR011): an :class:`OptimizeRequest` runs its optimizer and
    returns a :class:`PlanResult`; a :class:`SweepSpec` runs through
    :func:`sweep` and returns a :class:`SweepResult`.  Results are
    produced by the same code paths as :func:`optimize` /
    :func:`sweep`, so a served reply decodes bit-identically to a
    direct call.
    """
    if isinstance(request, OptimizeRequest):
        require(
            request.algorithm in OPTIMIZERS,
            f"unknown algorithm {request.algorithm!r}; "
            f"known: {sorted(OPTIMIZERS)}",
        )
        return OPTIMIZERS[request.algorithm](
            request.instance, **request.kwargs()
        )
    require(
        isinstance(request, SweepSpec),
        f"expected OptimizeRequest or SweepSpec, got {type(request)!r}",
    )
    return sweep(request)


def sweep(
    spec: SweepSpec,
    *,
    journal: Optional[Any] = None,
    resume: bool = False,
    registry_maxsize: Optional[int] = None,
) -> SweepResult:
    """Run an optimizer x instance grid through the instrumented runner.

    ``spec`` carries the grid *and* the runner settings as one
    serializable value::

        spec = api.SweepSpec.build(["dp", "greedy-cost"],
                                   [("q0", instance)], workers=1)
        result = api.sweep(spec)

    Only host-local operational arguments may accompany it; they are
    deliberately not part of the spec (a spec must be safe to accept
    over a socket, and ``registry_maxsize`` never changes results —
    only memory — so it stays out of request fingerprints):

    * ``journal`` — path of an fsynced ``repro.journal/2`` record of
      completed tasks;
    * ``resume=True`` — restore the tasks ``journal`` already holds and
      run the rest (:func:`~repro.runtime.runner.run_sweep` with
      ``resume=True``);
    * ``registry_maxsize`` — bound on each pool worker's live decoded
      instances (see :mod:`repro.runtime.registry`).

    The spec's ``retries`` tries per task with deterministic
    exponential ``backoff``.  A journal or a retry setting other than
    the default makes outcomes task-isolated (fresh cost cache per
    attempt); otherwise the sweep shares its cache.  With
    ``trace=True`` on the spec, the result's
    :meth:`~repro.runtime.runner.SweepResult.trace_records` yields the
    merged ``repro.trace/1`` span tree.
    """
    require(
        isinstance(spec, SweepSpec),
        f"sweep() takes a SweepSpec, got {type(spec).__name__}; build "
        "one with api.SweepSpec.build(optimizers, instances, params=...)",
    )
    tasks = grid_tasks(
        spec.optimizers,
        spec.instances,
        kwargs_for=spec.kwargs_for,
        timeout=spec.timeout,
    )
    return run_sweep(
        tasks,
        workers=spec.workers,
        cache=spec.cache,
        cache_maxsize=spec.cache_maxsize,
        timeout=spec.timeout,
        trace=spec.trace,
        retry=RetryPolicy(attempts=max(1, spec.retries), backoff=spec.backoff),
        journal=journal,
        resume=resume,
        registry_maxsize=registry_maxsize,
    )


def gap_formula(
    variables: int = 6,
    clauses: int = 16,
    satisfiable: bool = True,
    seed: int = 0,
) -> Any:
    """A YES- or NO-promise 3SAT(13) gap formula for :func:`reduce`.

    The YES side plants a satisfying assignment (seeded); the NO side
    chains enough certified unsatisfiable cores to reach roughly the
    requested clause count.
    """
    from repro.sat.gapfamilies import no_instance, yes_instance

    if satisfiable:
        return yes_instance(variables, clauses, rng=seed)
    return no_instance(max(1, clauses // 8))


def gap_pair(n: int, k_yes: int, k_no: int, alpha: int = 4) -> Any:
    """The Theorem 9 YES/NO QO_N reduction pair on ``n`` relations.

    Returns a :class:`~repro.workloads.gaps.GapPair` whose
    ``yes_reduction`` / ``no_reduction`` carry the f_N constructions.
    """
    from repro.workloads import qon_gap_pair

    return qon_gap_pair(n, k_yes, k_no, alpha=alpha)


def gap_report_numbers(
    relations: int,
    alpha_exp: int,
    deltas: Sequence[float] = (0.9, 0.5, 0.25),
) -> Dict[str, Any]:
    """The Theorem 9 gap quantities, as plain data.

    For ``n`` relations and ``alpha = 4 ** alpha_exp``: the YES/NO
    clique sizes, ``log2 K_{c,d}``, the log2 gap factor, and for each
    ``delta`` the ``2^{log^{1-delta} K}`` budget with whether the gap
    exceeds it (the theorem's "no polylog-approximation" statement).
    """
    from repro.core.gap import (
        gap_factor_log2,
        k_cd_log2,
        polylog_budget_log2,
    )
    from repro.utils.lognum import log2_of

    k_yes = relations - 2
    k_no = 2 + (k_yes % 2)
    pair = gap_pair(relations, k_yes, k_no, alpha=4**alpha_exp)
    fn = pair.yes_reduction
    k_log2 = float(
        k_cd_log2(fn.alpha_log2, log2_of(fn.edge_access_cost), fn.k_yes, fn.k_no)
    )
    gap_log2 = float(gap_factor_log2(fn.alpha_log2, fn.k_yes, fn.k_no))
    budgets = [
        {
            "delta": delta,
            "budget_log2": polylog_budget_log2(k_log2, delta=delta),
            "gap_wins": gap_log2 > polylog_budget_log2(k_log2, delta=delta),
        }
        for delta in deltas
    ]
    return {
        "n": relations,
        "alpha_exp": alpha_exp,
        "k_yes": fn.k_yes,
        "k_no": fn.k_no,
        "k_cd_log2": k_log2,
        "gap_log2": gap_log2,
        "budgets": budgets,
    }


def explain_plan(instance: object, algorithm: str = "dp") -> str:
    """Optimize a QO_N instance and render its plan as text."""
    from repro.joinopt.explain import explain
    from repro.joinopt.instance import QONInstance

    require(
        isinstance(instance, QONInstance),
        "explain_plan supports QO_N instances",
    )
    assert isinstance(instance, QONInstance)
    result = optimize(instance, algorithm=algorithm)
    return explain(instance, result.sequence)


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of :func:`execute_plan`: model predictions vs reality.

    ``joins`` holds one ``(output_rows, probe_rows)`` pair per join, in
    plan order, to compare against ``predicted_sizes`` (the model's
    ``N_i``) and ``predicted_costs`` (the model's ``H_i``).
    """

    result: PlanResult
    exact: bool
    predicted_sizes: Tuple[Any, ...]
    predicted_costs: Tuple[Any, ...]
    joins: Tuple[Tuple[int, int], ...]
    result_rows: int


def execute_plan(
    instance: object,
    algorithm: str = "dp",
    harmonize: bool = False,
) -> ExecutionReport:
    """Optimize a QO_N instance, materialize data, run the plan.

    With ``harmonize`` the relation sizes are rounded so the synthetic
    database reproduces the model's estimates exactly (``exact`` is
    then True and model columns must equal the measured ones).
    """
    from repro.engine import execute_sequence, generate_database
    from repro.engine.data import harmonize_sizes
    from repro.joinopt.cost import intermediate_sizes, join_costs
    from repro.joinopt.instance import QONInstance

    require(
        isinstance(instance, QONInstance),
        "execute_plan supports QO_N instances",
    )
    assert isinstance(instance, QONInstance)
    if harmonize:
        instance = harmonize_sizes(instance)
    database = generate_database(instance)
    result = optimize(instance, algorithm=algorithm)
    trace = execute_sequence(database, result.sequence)
    return ExecutionReport(
        result=result,
        exact=database.exact,
        predicted_sizes=tuple(intermediate_sizes(instance, result.sequence)),
        predicted_costs=tuple(join_costs(instance, result.sequence)),
        joins=tuple(
            (join.output_rows, join.probe_rows) for join in trace.joins
        ),
        result_rows=trace.result_rows,
    )


def scorecard() -> Any:
    """Run every theorem's fast verification checks.

    Returns the :class:`~repro.core.scorecard.Scorecard` (``render()``
    for the table, ``ok`` for the verdict).
    """
    from repro.core.scorecard import build_scorecard

    return build_scorecard()


__all__ = [
    "API_VERSION",
    "EVENTS_SCHEMA",
    "FAMILIES",
    "METRICS_SCHEMA",
    "RPC_SCHEMAS",
    "CostCache",
    "ExecutionReport",
    "InstanceRegistry",
    "OptimizeRequest",
    "PlanResult",
    "RetryPolicy",
    "ServiceReply",
    "SweepResult",
    "SweepSpec",
    "capabilities",
    "default_workers",
    "execute_plan",
    "execute_request",
    "explain_plan",
    "gap_formula",
    "gap_pair",
    "gap_report_numbers",
    "generate",
    "instance_key",
    "load_metrics",
    "optimize",
    "optimizer_names",
    "pin_kernels",
    "read_journal",
    "reduce",
    "reduction_names",
    "request_fingerprint",
    "scorecard",
    "substrate_of",
    "sweep",
    "sweep_metrics",
    "use_cache",
    "validate_metrics",
    "write_metrics",
]
