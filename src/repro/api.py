"""Stable public facade over the three substrates.

This is the documented entry point for scripts, notebooks and the CLI;
everything here speaks plain data (family names, algorithm names,
:class:`~repro.core.results.PlanResult`) so callers never need to know
which subpackage implements what.

    from repro import api

    instance = api.generate("random", n=8, seed=1)
    result = api.optimize(instance, algorithm="dp")
    chain = api.reduce("qon", formula)
    sweep = api.sweep({"optimizers": ["dp", "greedy-cost"],
                       "instances": [("q0", instance)]}, trace=True)

Since the service layer landed, the canonical way to describe work is
a typed request object — :class:`OptimizeRequest` for one run,
:class:`SweepSpec` for a grid — executed with :func:`execute_request`
(or shipped to a ``repro serve`` daemon unchanged, since both
round-trip through JSON exactly):

    request = api.OptimizeRequest.build(instance, "dp")
    result = api.execute_request(request)

:func:`optimize` and :func:`sweep` accept request objects directly and
keep their historical kwarg forms as shims that build the request
internally (a one-time :class:`DeprecationWarning` fires when the old
kwarg spellings are used).

The deeper modules remain importable — the facade adds no state — but
only the names exported here are covered by the compatibility promise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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
from repro.runtime.costcache import CostCache, use_cache
from repro.runtime.registry import InstanceRegistry, RegistryStats, instance_key
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
    SweepTask,
    default_workers,
    grid_tasks,
    run_sweep,
)
from repro.runtime.runner import resume_sweep as _resume_sweep
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
API_VERSION = "1.2"

#: Every wire schema this facade (and the service daemon) speaks.
RPC_SCHEMAS: Tuple[str, ...] = (
    "repro.rpc/1",
    REQUEST_SCHEMA,
    REPLY_SCHEMA,
    METRICS_SCHEMA,
    EVENTS_SCHEMA,
)

_warned: Set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=4)


def _reset_deprecation_warnings() -> None:
    """Re-arm the warn-once latches (test helper)."""
    _warned.clear()


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


def optimize(instance: Any, algorithm: str = "dp", **kwargs: Any) -> PlanResult:
    """Run one optimizer on one instance; returns a :class:`PlanResult`.

    The canonical spelling passes an :class:`OptimizeRequest` as the
    sole argument::

        api.optimize(api.OptimizeRequest.build(instance, "dp"))

    The historical form ``optimize(instance, algorithm, **kwargs)``
    still works: it builds the request internally.  Passing
    per-optimizer ``**kwargs`` positionally like that is deprecated
    (one :class:`DeprecationWarning` per process) — put them in the
    request instead, where they serialize and fingerprint.

    ``algorithm`` is a name from :func:`optimizer_names`; the instance
    type must match the algorithm's substrate (``qoh-*`` expect a
    :class:`~repro.hashjoin.instance.QOHInstance`, ``sqocp-*`` a
    :class:`~repro.starqo.instance.SQOCPInstance`, the rest a
    :class:`~repro.joinopt.instance.QONInstance`).
    """
    if isinstance(instance, OptimizeRequest):
        require(
            algorithm == "dp" and not kwargs,
            "optimize(request) takes no extra arguments; set the "
            "algorithm and params on the OptimizeRequest",
        )
        request = instance
    else:
        if kwargs:
            _warn_once(
                "optimize-kwargs",
                "passing optimizer kwargs to api.optimize() is "
                "deprecated; build an api.OptimizeRequest instead",
            )
        request = OptimizeRequest.build(instance, algorithm, **kwargs)
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
    returns a :class:`PlanResult`; a :class:`SweepSpec` runs its grid
    through :func:`~repro.runtime.runner.run_sweep` (whose attempts get
    fresh cost caches when the spec sets ``retries > 1`` or
    ``backoff > 0``) and returns a :class:`SweepResult`.  Results are
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
    tasks = grid_tasks(
        request.optimizers,
        request.instances,
        kwargs_for=request.kwargs_for,
        timeout=request.timeout,
    )
    return run_sweep(
        tasks,
        workers=request.workers,
        cache=request.cache,
        cache_maxsize=request.cache_maxsize,
        timeout=request.timeout,
        trace=request.trace,
        retry=RetryPolicy(
            attempts=max(1, request.retries), backoff=request.backoff
        ),
    )


GridLike = Union[Sequence[SweepTask], Mapping]


def _grid_to_tasks(grid: GridLike) -> List[SweepTask]:
    if isinstance(grid, Mapping):
        require(
            "optimizers" in grid and "instances" in grid,
            "grid mapping needs 'optimizers' and 'instances' keys",
        )
        return grid_tasks(
            grid["optimizers"],
            grid["instances"],
            kwargs_for=grid.get("kwargs_for"),
            timeout=grid.get("timeout"),
        )
    return list(grid)


def sweep(
    grid: Union[SweepSpec, GridLike],
    workers: Optional[int] = None,
    cache: bool = True,
    cache_maxsize: Optional[int] = None,
    timeout: Optional[float] = None,
    trace: bool = False,
    retries: int = 1,
    backoff: float = 0.0,
    journal: Optional[Any] = None,
    resume: bool = False,
    fault_plan: Optional[Any] = None,
    registry_maxsize: Optional[int] = None,
) -> SweepResult:
    """Run an optimizer x instance grid through the instrumented runner.

    The canonical spelling passes a :class:`SweepSpec`, which carries
    the grid *and* the runner settings as one serializable value::

        spec = api.SweepSpec.build(["dp", "greedy-cost"],
                                   [("q0", instance)], workers=1)
        result = api.sweep(spec)

    Only the host-local operational arguments — ``journal``,
    ``resume``, ``fault_plan``, ``registry_maxsize`` — may accompany a
    spec; they are deliberately not part of the spec (a spec must be
    safe to accept over a socket, and ``registry_maxsize`` never
    changes results — only memory — so it stays out of request
    fingerprints).

    The historical form still works: ``grid`` as a prepared sequence
    of :class:`~repro.runtime.runner.SweepTask` or a mapping with

    * ``"optimizers"`` — algorithm names (or callables),
    * ``"instances"`` — ``(label, instance)`` pairs,
    * ``"kwargs_for"`` — optional ``(name, label) -> dict`` hook,

    flattened with :func:`~repro.runtime.runner.grid_tasks`.  Passing
    the runner settings as keywords alongside an old-style grid is
    deprecated (one :class:`DeprecationWarning` per process) — put
    them on a :class:`SweepSpec`.  With ``trace=True`` the result's
    :meth:`~repro.runtime.runner.SweepResult.trace_records` yields the
    merged ``repro.trace/1`` span tree.

    Everything runs through :func:`~repro.runtime.runner.run_sweep`:
    ``retries`` tries per task with deterministic exponential
    ``backoff``, an fsynced ``journal`` (``repro.journal/1``) of
    completed tasks, and ``resume=True`` to skip tasks the journal
    already holds (requires ``journal``, then goes through
    :func:`~repro.runtime.runner.resume_sweep`).  ``fault_plan``
    installs a deterministic chaos schedule — test tooling only.  Any
    of these set to a non-default makes outcomes task-isolated (fresh
    cost cache per attempt); otherwise the sweep shares its cache.
    ``registry_maxsize`` bounds each pool worker's live decoded
    instances (see :mod:`repro.runtime.registry`).
    """
    if isinstance(grid, SweepSpec):
        spec = grid
        require(
            workers is None and cache and cache_maxsize is None
            and timeout is None and not trace and retries == 1
            and backoff == 0.0,
            "sweep(spec) takes runner settings on the SweepSpec itself; "
            "only journal/resume/fault_plan/registry_maxsize may be "
            "passed alongside",
        )
        if (journal is None and not resume and fault_plan is None
                and registry_maxsize is None):
            result = execute_request(spec)
            assert isinstance(result, SweepResult)
            return result
        workers = spec.workers
        cache = spec.cache
        cache_maxsize = spec.cache_maxsize
        timeout = spec.timeout
        trace = spec.trace
        retries = spec.retries
        backoff = spec.backoff
        tasks = grid_tasks(
            spec.optimizers,
            spec.instances,
            kwargs_for=spec.kwargs_for,
            timeout=spec.timeout,
        )
    else:
        if (
            workers is not None or not cache or cache_maxsize is not None
            or timeout is not None or trace or retries != 1
            or backoff != 0.0
        ):
            _warn_once(
                "sweep-kwargs",
                "passing runner settings as api.sweep() keywords is "
                "deprecated; build an api.SweepSpec instead",
            )
        tasks = _grid_to_tasks(grid)
    retry = RetryPolicy(attempts=max(1, retries), backoff=backoff)
    if resume:
        require(journal is not None, "resume requires a journal path")
        return _resume_sweep(
            journal,
            tasks,
            workers=workers,
            cache=cache,
            cache_maxsize=cache_maxsize,
            timeout=timeout,
            trace=trace,
            retry=retry,
            fault_plan=fault_plan,
            registry_maxsize=registry_maxsize,
        )
    return run_sweep(
        tasks,
        workers=workers,
        cache=cache,
        cache_maxsize=cache_maxsize,
        timeout=timeout,
        trace=trace,
        retry=retry,
        fault_plan=fault_plan,
        journal=journal,
        registry_maxsize=registry_maxsize,
    )


def resume_sweep(
    journal: Any,
    grid: GridLike,
    workers: Optional[int] = None,
    cache: bool = True,
    cache_maxsize: Optional[int] = None,
    timeout: Optional[float] = None,
    trace: bool = False,
    retries: int = 1,
    backoff: float = 0.0,
) -> SweepResult:
    """Resume a journaled sweep; equivalent to ``sweep(resume=True)``.

    Tasks whose fingerprint already has a completed record in
    ``journal`` are restored bit-identically; the rest run and are
    appended to the same journal.  The merged result's ``resumed``
    counter says how many tasks were restored.
    """
    return sweep(
        grid,
        workers=workers,
        cache=cache,
        cache_maxsize=cache_maxsize,
        timeout=timeout,
        trace=trace,
        retries=retries,
        backoff=backoff,
        journal=journal,
        resume=True,
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


def run_bench(
    smoke: bool = False, seed: int = 0, out: Optional[Any] = None,
    suite: str = "gap-families",
) -> Dict[str, Any]:
    """Run a pinned perf benchmark suite (``repro.bench/1``).

    ``suite="gap-families"`` (default) measures the compiled /
    incremental evaluation layer against the reference cost path on
    the Theorem-9/15 gap families; ``suite="executor"`` measures sweep
    executor throughput — serial vs parallel, chunked+registry vs
    legacy per-task dispatch — on a Theorem-9 grid with repeated
    instances.  See :mod:`repro.perf.bench`.  With ``out`` the
    validated payload is also written as JSON.
    """
    from repro.perf.bench import run_bench as _run_bench
    from repro.perf.bench import run_executor_bench as _run_executor

    if suite == "executor":
        return _run_executor(smoke=smoke, seed=seed, out=out)
    require(
        suite == "gap-families",
        f"unknown bench suite {suite!r}; known: gap-families, executor",
    )
    return _run_bench(smoke=smoke, seed=seed, out=out)


def bench_summary_lines(payload: Dict[str, Any]) -> List[str]:
    """Per-case summary lines for a ``repro.bench/1`` payload."""
    from repro.perf.bench import bench_summary_lines as _summary

    return _summary(payload)


def validate_bench(payload: Dict[str, Any]) -> None:
    """Schema-check a ``repro.bench/1`` payload (raises on mismatch)."""
    from repro.perf.bench import validate_bench as _validate

    _validate(payload)


def write_bench(payload: Dict[str, Any], path: Any) -> Any:
    """Validate and write a bench payload as JSON; returns the path."""
    from repro.perf.bench import write_bench as _write

    return _write(payload, path)


def load_bench(path: Any) -> Dict[str, Any]:
    """Read and validate a previously written bench payload."""
    from repro.perf.bench import load_bench as _load

    return _load(path)


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
    "RegistryStats",
    "RetryPolicy",
    "ServiceReply",
    "SweepResult",
    "SweepSpec",
    "SweepTask",
    "bench_summary_lines",
    "capabilities",
    "default_workers",
    "execute_plan",
    "execute_request",
    "explain_plan",
    "gap_formula",
    "gap_pair",
    "gap_report_numbers",
    "generate",
    "grid_tasks",
    "instance_key",
    "load_bench",
    "load_metrics",
    "optimize",
    "optimizer_names",
    "read_journal",
    "reduce",
    "reduction_names",
    "request_fingerprint",
    "resume_sweep",
    "run_bench",
    "scorecard",
    "substrate_of",
    "sweep",
    "sweep_metrics",
    "use_cache",
    "validate_bench",
    "validate_metrics",
    "write_bench",
    "write_metrics",
]
