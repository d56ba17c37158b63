"""The four benchmark workloads and the seeded inputs they send.

Every input the program sees is generated here from ``--seed``; the
program receives only the generated instances and requests.  The load
shape is fixed by constants (not read from the machine) so two commits
measured on one machine run identical settings:

* sweeps use a pool of :data:`WORKERS` processes;
* the daemon runs :data:`WORKERS` worker threads;
* the load generator is one process with :data:`CLIENTS` client
  threads, each owning one connection.

The gap instances are the EXP-T9 / EXP-T15 parameterizations
(``k_yes = n - 2`` with a parity-matched ``k_no`` and ``alpha = 4``;
``epsilon = 1/2`` with ``alpha = 4^n``), so their work does not depend
on the seed.  The seed draws every ``rng`` parameter and every
random/chain/star instance.

Run as a script (``python3 bench/workloads.py SWEEP-WORKLOAD SEED``)
it imports the program and builds one repetition's inputs, then exits:
the set-up a user of ``repro sweep`` pays before any work starts.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.workloads import qoh_gap_pair  # noqa: E402

#: Sweep pool size and daemon worker threads (the measuring machine
#: has two cores).
WORKERS = 2

#: Load-generator threads, one connection each.
CLIENTS = 2

NAMES = ("sweep-exp", "sweep-dispatch", "serve-hot", "serve-cold")

#: A result key: ``(optimizer, label)`` for a sweep cell, an int for a
#: served request.
Key = Any

#: Direct references: key -> (result, seconds to compute it in-process).
Refs = Dict[Key, Tuple[Any, float]]


def t9_pair(n: int) -> Any:
    """The Theorem 9 YES/NO pair at the EXP-T9 parameterization."""
    k_yes = n - 2
    k_no = n // 3 + (k_yes - n // 3) % 2
    return api.gap_pair(n, k_yes, k_no, alpha=4)


def t15_no(n: int) -> Any:
    """The Theorem 15 NO instance at the EXP-T15 parameterization."""
    return qoh_gap_pair(n, Fraction(1, 2), alpha=4**n).no_reduction.instance


def _draw(rng: random.Random) -> int:
    return rng.randrange(2**31)


# ---------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------

EXP_QON_SIZES = (10, 11, 12, 13)
EXP_QON_OPTIMIZERS = ("dp", "greedy-cost", "iterative", "annealing")
EXP_QOH_SIZES = (6, 9)
DISPATCH_SIZES = (11, 12, 13, 14)
DISPATCH_TASKS = 400


def _exp_specs(seed: int, trace: bool) -> List[Any]:
    rng = random.Random(f"sweep-exp:{seed}")
    qon: List[Tuple[str, Any]] = []
    for n in EXP_QON_SIZES:
        pair = t9_pair(n)
        qon.append((f"t9-yes-n{n}", pair.yes_reduction.instance))
        qon.append((f"t9-no-n{n}", pair.no_reduction.instance))
    qon_params = {
        (name, label): {"rng": _draw(rng)}
        for label, _ in qon for name in ("iterative", "annealing")
    }
    qoh = [(f"t15-no-n{n}", t15_no(n)) for n in EXP_QOH_SIZES]
    beam_params = {
        ("qoh-beam", label): {"beam_width": 8, "rng": _draw(rng)}
        for label, _ in qoh
    }
    annealing = qoh[:1]
    annealing_params = {
        ("qoh-annealing", label): {"steps_per_temperature": 4,
                                   "rng": _draw(rng)}
        for label, _ in annealing
    }
    settings = {"workers": WORKERS, "trace": trace}
    return [
        api.SweepSpec.build(EXP_QON_OPTIMIZERS, qon, qon_params, **settings),
        api.SweepSpec.build(("qoh-greedy", "qoh-beam"), qoh, beam_params,
                            **settings),
        api.SweepSpec.build(("qoh-annealing",), annealing, annealing_params,
                            **settings),
    ]


def _dispatch_specs(seed: int, trace: bool) -> List[Any]:
    rng = random.Random(f"sweep-dispatch:{seed}")
    distinct = [(n, t9_pair(n).no_reduction.instance) for n in DISPATCH_SIZES]
    instances = []
    params = {}
    base = _draw(rng)
    for index in range(DISPATCH_TASKS):
        n, instance = distinct[index % len(distinct)]
        label = f"t9-no-n{n}#{index}"
        instances.append((label, instance))
        params[("iterative", label)] = {
            "max_rounds": 2, "neighborhood_samples": 4, "restarts": 1,
            "rng": base + index,
        }
    return [api.SweepSpec.build(("iterative",), instances, params,
                                workers=WORKERS, trace=trace)]


def sweep_specs(name: str, seed: int, trace: bool = False) -> List[Any]:
    """One repetition: the sweep specs, on freshly built instances.

    Fresh instance objects every call, because every ``repro sweep``
    run pays pool start and kernel compiles anew.
    """
    if name == "sweep-exp":
        return _exp_specs(seed, trace)
    if name == "sweep-dispatch":
        return _dispatch_specs(seed, trace)
    raise ValueError(f"{name!r} is not a sweep workload")


def spec_cells(specs: List[Any]) -> List[Tuple[Key, Any]]:
    """Every cell of the specs as ``((optimizer, label), request)``."""
    cells = []
    for spec in specs:
        for label, instance in spec.instances:
            for name in spec.optimizers:
                request = api.OptimizeRequest.build(
                    instance, name, **spec.kwargs_for(name, label)
                )
                cells.append(((name, label), request))
    return cells


# ---------------------------------------------------------------------
# Served traffic
# ---------------------------------------------------------------------

HOT_FAMILIES = ("chain", "star", "random")
HOT_ALGORITHMS = ("dp", "greedy-cost", "iterative")
HOT_SKEW = 1.0  # Zipf exponent over request popularity ranks

COLD_MIX = (
    ("random", 10, "dp"),
    ("random", 9, "dp"),
    ("chain", 12, "iterative"),
    ("star", 11, "greedy-cost"),
)
COLD_WARMUP = 4


def hot_requests(seed: int) -> List[Any]:
    """The 14 distinct serve-hot requests."""
    rng = random.Random(f"serve-hot:{seed}")
    requests = []
    for index in range(12):
        family = HOT_FAMILIES[index % 3]
        n = 8 + index % 4
        algorithm = HOT_ALGORITHMS[index // 4]
        instance = api.generate(family, n, seed=_draw(rng))
        params = {"rng": _draw(rng)} if algorithm == "iterative" else {}
        requests.append(api.OptimizeRequest.build(instance, algorithm,
                                                  **params))
    instance = t15_no(6)
    requests.append(api.OptimizeRequest.build(
        instance, "qoh-beam", beam_width=8, rng=_draw(rng)
    ))
    requests.append(api.OptimizeRequest.build(instance, "qoh-greedy"))
    return requests


def hot_schedule(seed: int, client: int, count: int) -> Iterator[int]:
    """Endless skewed draws of request indices for one client.

    Popularity follows a Zipf law over the request list's order, which
    is fixed (small chain and star queries first, the QO_H requests
    last): a seed that made a large request the most popular one would
    change the workload's cost, not just its inputs.
    """
    weights = [1.0 / (rank + 1) ** HOT_SKEW for rank in range(count)]
    rng = random.Random(f"serve-hot-draws:{seed}:{client}")
    while True:
        (index,) = rng.choices(range(count), weights=weights)
        yield index


def cold_request(seed: int, k: int) -> Any:
    """The ``k``-th unique serve-cold request."""
    rng = random.Random(f"serve-cold:{seed}:{k}")
    family, n, algorithm = COLD_MIX[k % len(COLD_MIX)]
    instance = api.generate(family, n, seed=_draw(rng))
    params = {"rng": _draw(rng)} if algorithm == "iterative" else {}
    return api.OptimizeRequest.build(instance, algorithm, **params)


def cold_sampled(k: int) -> bool:
    """The fixed 1-in-4 sample whose replies are checked bit for bit.

    ``k % 4`` picks the request type, so the sample rotates through
    the types instead of always landing on one.
    """
    return k % 4 == (k // 4) % 4


# ---------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------


def same_result(expected: Any, got: Any) -> bool:
    """Bit-identity of two plan results: value, type and ``repr`` of
    the cost, the sequence, and ``explored``."""
    if expected is None or got is None:
        return expected is None and got is None
    return (
        type(got.cost) is type(expected.cost)
        and got.cost == expected.cost
        and repr(got.cost) == repr(expected.cost)
        and tuple(got.sequence) == tuple(expected.sequence)
        and got.explored == expected.explored
    )


def references(cells: List[Tuple[Key, Any]]) -> Refs:
    """Direct in-process results, each with its compute time."""
    out: Refs = {}
    for key, request in cells:
        started = time.perf_counter()
        result = api.execute_request(request)
        out[key] = (result, time.perf_counter() - started)
    return out


if __name__ == "__main__":
    sweep_specs(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
