"""``repro bench`` — the pinned perf-trajectory microbenchmark suite.

Runs the kernel/incremental evaluation layer against the reference cost
path on the Theorem-9 / Theorem-15 gap families and emits a
schema-checked payload (``repro.bench/1``, by convention written to
``benchmarks/results/BENCH_*.json``).  Two kinds of measures:

* machine-dependent: wall time and evaluations per second for both
  paths (``speedup_wall``);
* deterministic: exact big-int multiplications (+ divisions) per
  neighbor evaluation, counted by wrapping every instance statistic in
  :class:`~repro.perf.instrument.CountingValue` — this is the number CI
  can assert on (``mult_reduction`` must reach 5x on the EXP-T9 grid at
  ``n >= 12``), and for QO_H the number of allocation-LP solves.

Every case also cross-checks that the two paths produce identical
results (``identical``), so the benchmark doubles as an end-to-end
differential test on the exact workloads the EXP tables use.

Payload layout::

    {
      "schema": "repro.bench/1",
      "suite": "gap-families",
      "smoke": bool,
      "seed": int,
      "cases": [
        {"family": "qon-t9", "n": int, "k_yes": int, "k_no": int,
         "alpha": int, "moves": int,
         "reference": {"wall_time_s": float, "evals_per_s": float,
                       "mults_per_eval": float},
         "kernel": {"wall_time_s": float, "evals_per_s": float,
                    "mults_per_eval": float, "rebase_mults": int},
         "mult_reduction": float, "speedup_wall": float,
         "identical": bool},
        {"family": "qoh-t15", "n": int, "alpha_log2": int, "moves": int,
         "reference": {"wall_time_s": float, "plans_per_s": float,
                       "lp_solves": int},
         "kernel": {"wall_time_s": float, "plans_per_s": float,
                    "lp_solves": int, "fragments_reused": int},
         "lp_reduction": float, "speedup_wall": float,
         "identical": bool}
      ],
      "totals": {"cases": int, "identical": bool,
                 "min_qon_mult_reduction": float,
                 "meets_mult_target": bool}
    }
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.hashjoin.instance import QOHInstance
from repro.hashjoin.optimizer import best_decomposition
from repro.joinopt.cost import total_cost
from repro.joinopt.instance import QONInstance
from repro.perf.incremental import PrefixEvaluator, sample_moves
from repro.perf.instrument import OpCounter, counting_qon_instance
from repro.perf.qoh import QOHEvaluator
from repro.runtime.costcache import use_cache
from repro.utils.rng import make_rng
from repro.utils.validation import ValidationError, require
from repro.workloads.gaps import qoh_gap_pair, qon_gap_pair

SCHEMA = "repro.bench/1"

#: Deterministic acceptance target: reference-path exact multiplications
#: per neighbor evaluation must shrink by at least this factor on the
#: EXP-T9 grid at n >= 12.
MULT_REDUCTION_TARGET = 5.0

#: Default artifact location, next to the EXP tables.
DEFAULT_OUT = Path("benchmarks") / "results" / "BENCH_perf.json"

PathLike = Union[str, Path]

# (n, moves) grids; QO_N follows the EXP-T9 parameterization
# (k_yes = n - 2, parity-matched k_no, alpha = 4, NO side), QO_H the
# EXP-T15 one (epsilon = 1/2, alpha = 4^n, NO side).
_QON_GRID: Tuple[Tuple[int, int], ...] = ((12, 200), (14, 200))
_QON_GRID_SMOKE: Tuple[Tuple[int, int], ...] = ((12, 60),)
_QOH_GRID: Tuple[Tuple[int, int], ...] = ((6, 40), (9, 40))
_QOH_GRID_SMOKE: Tuple[Tuple[int, int], ...] = ((6, 12),)


def _t9_parameters(n: int) -> Tuple[int, int]:
    k_yes = n - 2
    k_no = n // 3 + (k_yes - n // 3) % 2
    return k_yes, k_no


def _t9_no_instance(n: int) -> QONInstance:
    k_yes, k_no = _t9_parameters(n)
    pair = qon_gap_pair(n, k_yes, k_no, alpha=4)
    return pair.no_reduction.instance  # type: ignore[attr-defined, no-any-return]

def _t15_no_instance(n: int) -> QOHInstance:
    pair = qoh_gap_pair(n, Fraction(1, 2), alpha=4**n)
    return pair.no_reduction.instance  # type: ignore[attr-defined, no-any-return]

def _qon_case(n: int, move_count: int, seed: int) -> Dict[str, Any]:
    instance = _t9_no_instance(n)
    k_yes, k_no = _t9_parameters(n)
    rng = make_rng(seed)
    order = list(range(n))
    rng.shuffle(order)
    base = tuple(order)
    moves = sample_moves(n, rng, move_count)
    neighbors = [move.apply(base) for move in moves]
    evaluations = len(neighbors) + 1  # the base plus every neighbor

    with use_cache(None):
        started = time.perf_counter()
        reference_costs = [total_cost(instance, base)]
        reference_costs.extend(
            total_cost(instance, neighbor) for neighbor in neighbors
        )
        reference_wall = time.perf_counter() - started

        started = time.perf_counter()
        evaluator = PrefixEvaluator(instance)
        kernel_costs = [evaluator.rebase(base)]
        kernel_costs.extend(
            cost for _, _, cost in evaluator.evaluate_neighbors(base, moves)
        )
        kernel_wall = time.perf_counter() - started

    identical = all(
        ref == ker and type(ref) is type(ker)
        for ref, ker in zip(reference_costs, kernel_costs)
    )

    # Deterministic work measure: exact multiplications + divisions per
    # neighbor evaluation, via counting proxies (values stay equal).
    counter = OpCounter()
    wrapped = counting_qon_instance(instance, counter)
    with use_cache(None):
        for neighbor in neighbors:
            total_cost(wrapped, neighbor)
        reference_ops = counter.multiplicative

        counting_evaluator = PrefixEvaluator(wrapped)
        counter.reset()
        counting_evaluator.rebase(base)
        rebase_ops = counter.multiplicative
        counter.reset()
        for _ in counting_evaluator.evaluate_neighbors(base, moves):
            pass
        kernel_ops = counter.multiplicative

    reference_per_eval = reference_ops / len(neighbors)
    kernel_per_eval = kernel_ops / len(neighbors)
    return {
        "family": "qon-t9",
        "n": n,
        "k_yes": k_yes,
        "k_no": k_no,
        "alpha": 4,
        "moves": len(moves),
        "reference": {
            "wall_time_s": reference_wall,
            "evals_per_s": evaluations / max(reference_wall, 1e-9),
            "mults_per_eval": reference_per_eval,
        },
        "kernel": {
            "wall_time_s": kernel_wall,
            "evals_per_s": evaluations / max(kernel_wall, 1e-9),
            "mults_per_eval": kernel_per_eval,
            "rebase_mults": rebase_ops,
        },
        "mult_reduction": reference_per_eval / max(kernel_per_eval, 1e-9),
        "speedup_wall": reference_wall / max(kernel_wall, 1e-9),
        "identical": identical,
    }


def _feasible_base(instance: QOHInstance, rng: Any) -> Tuple[int, ...]:
    n = instance.num_relations
    oversized = [r for r in range(n) if instance.hjmin(r) > instance.memory]
    require(len(oversized) <= 1, "gap instance should pin at most one head")
    if oversized:
        rest = [r for r in range(n) if r != oversized[0]]
        rng.shuffle(rest)
        return (oversized[0], *rest)
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def _qoh_case(n: int, move_count: int, seed: int) -> Dict[str, Any]:
    instance = _t15_no_instance(n)
    # The FH reduction adds a helper relation, so sequences range over
    # the instance's own relation count, not the family parameter n.
    num_relations = instance.num_relations
    rng = make_rng(seed)
    base = _feasible_base(instance, rng)
    moves = sample_moves(num_relations, rng, move_count)
    sequences = [base] + [move.apply(base) for move in moves]

    with use_cache(None):
        started = time.perf_counter()
        reference_plans = [
            best_decomposition(instance, sequence) for sequence in sequences
        ]
        reference_wall = time.perf_counter() - started

        started = time.perf_counter()
        evaluator = QOHEvaluator(instance)
        kernel_plans = [
            evaluator.best_plan(sequence) for sequence in sequences
        ]
        kernel_wall = time.perf_counter() - started

    identical = all(
        ref == ker for ref, ker in zip(reference_plans, kernel_plans)
    )
    # The reference costs every fragment of every feasible sequence
    # through the allocation LP; the evaluator memoizes by determining
    # key, so reuse across neighbors shows up directly.
    num_joins = num_relations - 1
    feasible = sum(1 for plan in reference_plans if plan is not None)
    reference_lp = feasible * (num_joins * (num_joins + 1) // 2)
    kernel_lp = evaluator.fragments_computed
    return {
        "family": "qoh-t15",
        "n": n,
        "alpha_log2": 2 * n,
        "moves": len(moves),
        "reference": {
            "wall_time_s": reference_wall,
            "plans_per_s": len(sequences) / max(reference_wall, 1e-9),
            "lp_solves": reference_lp,
        },
        "kernel": {
            "wall_time_s": kernel_wall,
            "plans_per_s": len(sequences) / max(kernel_wall, 1e-9),
            "lp_solves": kernel_lp,
            "fragments_reused": evaluator.fragments_reused,
        },
        "lp_reduction": reference_lp / max(kernel_lp, 1),
        "speedup_wall": reference_wall / max(kernel_wall, 1e-9),
        "identical": identical,
    }


def run_bench(
    smoke: bool = False, seed: int = 0, out: Optional[PathLike] = None
) -> Dict[str, Any]:
    """Run the pinned suite; validates, optionally writes, and returns
    the ``repro.bench/1`` payload."""
    qon_grid = _QON_GRID_SMOKE if smoke else _QON_GRID
    qoh_grid = _QOH_GRID_SMOKE if smoke else _QOH_GRID
    cases: List[Dict[str, Any]] = []
    for n, move_count in qon_grid:
        cases.append(_qon_case(n, move_count, seed))
    for n, move_count in qoh_grid:
        cases.append(_qoh_case(n, move_count, seed))
    qon_reductions = [
        case["mult_reduction"] for case in cases if case["family"] == "qon-t9"
    ]
    target_reductions = [
        case["mult_reduction"]
        for case in cases
        if case["family"] == "qon-t9" and case["n"] >= 12
    ]
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": "gap-families",
        "smoke": smoke,
        "seed": seed,
        "cases": cases,
        "totals": {
            "cases": len(cases),
            "identical": all(case["identical"] for case in cases),
            "min_qon_mult_reduction": min(qon_reductions),
            "meets_mult_target": bool(target_reductions) and all(
                reduction >= MULT_REDUCTION_TARGET
                for reduction in target_reductions
            ),
        },
    }
    validate_bench(payload)
    if out is not None:
        write_bench(payload, out)
    return payload


_QON_REFERENCE_FIELDS = {
    "wall_time_s": (int, float),
    "evals_per_s": (int, float),
    "mults_per_eval": (int, float),
}

_QON_KERNEL_FIELDS = {
    "wall_time_s": (int, float),
    "evals_per_s": (int, float),
    "mults_per_eval": (int, float),
    "rebase_mults": int,
}

_QOH_REFERENCE_FIELDS = {
    "wall_time_s": (int, float),
    "plans_per_s": (int, float),
    "lp_solves": int,
}

_QOH_KERNEL_FIELDS = {
    "wall_time_s": (int, float),
    "plans_per_s": (int, float),
    "lp_solves": int,
    "fragments_reused": int,
}

_QON_CASE_FIELDS = {
    "n": int,
    "k_yes": int,
    "k_no": int,
    "alpha": int,
    "moves": int,
    "mult_reduction": (int, float),
    "speedup_wall": (int, float),
    "identical": bool,
}

_QOH_CASE_FIELDS = {
    "n": int,
    "alpha_log2": int,
    "moves": int,
    "lp_reduction": (int, float),
    "speedup_wall": (int, float),
    "identical": bool,
}

_TOTALS_FIELDS = {
    "cases": int,
    "identical": bool,
    "min_qon_mult_reduction": (int, float),
    "meets_mult_target": bool,
}

def _check_fields(
    payload: Dict[str, Any], fields: Dict[str, Any], where: str
) -> None:
    for name, kind in fields.items():
        require(name in payload, f"{where}: missing field {name!r}")
        value = payload[name]
        # bool is an int subclass; don't let True satisfy a numeric field.
        ok = isinstance(value, kind) and not (
            kind is not bool and isinstance(value, bool)
        )
        require(
            ok, f"{where}.{name}: expected {kind}, got {type(value).__name__}"
        )


def validate_bench(payload: Dict[str, Any]) -> None:
    """Raise :class:`ValidationError` unless ``payload`` fits the schema."""
    require(isinstance(payload, dict), "bench payload must be a dict")
    require(
        payload.get("schema") == SCHEMA,
        f"bench schema must be {SCHEMA!r}, got {payload.get('schema')!r}",
    )
    for name in ("suite", "smoke", "seed", "cases", "totals"):
        require(name in payload, f"bench: missing field {name!r}")
    require(
        isinstance(payload["smoke"], bool), "bench.smoke must be a bool"
    )
    require(
        isinstance(payload["seed"], int)
        and not isinstance(payload["seed"], bool),
        "bench.seed must be an int",
    )
    require(isinstance(payload["cases"], list), "bench.cases must be a list")
    require(payload["cases"], "bench.cases must be non-empty")
    require(
        payload["suite"] == "gap-families",
        f"bench.suite must be gap-families, got {payload['suite']!r}",
    )
    for position, case in enumerate(payload["cases"]):
        where = f"bench.cases[{position}]"
        require(isinstance(case, dict), f"{where} must be a dict")
        family = case.get("family")
        if family == "qon-t9":
            _check_fields(case, _QON_CASE_FIELDS, where)
            require("reference" in case, f"{where}: missing 'reference'")
            require("kernel" in case, f"{where}: missing 'kernel'")
            _check_fields(
                case["reference"], _QON_REFERENCE_FIELDS, f"{where}.reference"
            )
            _check_fields(case["kernel"], _QON_KERNEL_FIELDS, f"{where}.kernel")
        elif family == "qoh-t15":
            _check_fields(case, _QOH_CASE_FIELDS, where)
            require("reference" in case, f"{where}: missing 'reference'")
            require("kernel" in case, f"{where}: missing 'kernel'")
            _check_fields(
                case["reference"], _QOH_REFERENCE_FIELDS, f"{where}.reference"
            )
            _check_fields(case["kernel"], _QOH_KERNEL_FIELDS, f"{where}.kernel")
        else:
            raise ValidationError(
                f"{where}.family must be qon-t9|qoh-t15, got {family!r}"
            )
    totals = payload["totals"]
    require(isinstance(totals, dict), "bench.totals must be a dict")
    _check_fields(totals, _TOTALS_FIELDS, "bench.totals")
    require(
        totals["cases"] == len(payload["cases"]),
        "bench.totals.cases must equal len(bench.cases)",
    )


def write_bench(payload: Dict[str, Any], path: PathLike) -> Path:
    """Validate and write the payload as pretty JSON; returns the path."""
    validate_bench(payload)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_bench(path: PathLike) -> Dict[str, Any]:
    """Read and validate a previously written payload."""
    payload = json.loads(Path(path).read_text())
    validate_bench(payload)
    return payload


def bench_summary_lines(payload: Dict[str, Any]) -> List[str]:
    """Human-readable per-case summary for the CLI."""
    lines: List[str] = []
    for case in payload["cases"]:
        if case["family"] == "qon-t9":
            lines.append(
                "qon-t9  n={n:>2}  mults/eval {ref:>8.1f} -> {ker:>6.1f}  "
                "({red:.1f}x fewer)  wall {speed:.1f}x".format(
                    n=case["n"],
                    ref=case["reference"]["mults_per_eval"],
                    ker=case["kernel"]["mults_per_eval"],
                    red=case["mult_reduction"],
                    speed=case["speedup_wall"],
                )
            )
        else:
            lines.append(
                "qoh-t15 n={n:>2}  LP solves {ref:>6} -> {ker:>6}  "
                "({red:.1f}x fewer)  wall {speed:.1f}x".format(
                    n=case["n"],
                    ref=case["reference"]["lp_solves"],
                    ker=case["kernel"]["lp_solves"],
                    red=case["lp_reduction"],
                    speed=case["speedup_wall"],
                )
            )
    totals = payload["totals"]
    lines.append(
        "identical={identical}  min qon mult reduction {red:.1f}x  "
        "target(>= {target:.0f}x at n >= 12): {verdict}".format(
            identical=totals["identical"],
            red=totals["min_qon_mult_reduction"],
            target=MULT_REDUCTION_TARGET,
            verdict="met" if totals["meets_mult_target"] else "MISSED",
        )
    )
    return lines
