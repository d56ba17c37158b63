"""Heuristic shootout: competitive ratios, benign vs adversarial.

On ordinary workloads the polynomial-time heuristics stay within small
constant factors of the optimum.  On the paper's gap family the same
heuristics are *provably unable* (Theorem 9) to stay within any
polylogarithmic factor — and measurably blow up.

Both sections fan their optimizer x instance grid through the public
facade (a :class:`repro.api.SweepSpec` run by :func:`repro.api.sweep`,
backed by the instrumented runner), so repeated cost evaluations are
memoized and the cache/work counters are printed at the end.

Run:  python examples/optimizer_shootout.py
"""

from statistics import mean

from repro import api
from repro.api import SweepResult
from repro.core.certificates import qon_certificate_sequence
from repro.joinopt.cost import total_cost
from repro.utils.lognum import log2_of
from repro.workloads.gaps import qon_gap_pair

#: (display name, runner registry name) — randomized ones get rng=<seed>.
HEURISTICS = [
    ("greedy-min-cost", "greedy-cost"),
    ("greedy-min-size", "greedy-size"),
    ("iterative-improve", "iterative"),
    ("simulated-anneal", "annealing"),
    ("random-sampling", "sampling"),
]
_SEEDED = {"iterative", "annealing", "sampling"}


def _spec(optimizers: list, instances: list) -> api.SweepSpec:
    """The grid as a sweep spec; seeded heuristics get rng=<label seed>."""
    params = {
        (name, label): {"rng": int(label.rsplit("-s", 1)[1])}
        for name in optimizers if name in _SEEDED
        for label, _instance in instances
    }
    return api.SweepSpec.build(optimizers, instances, params, workers=1)


def _report_sweep(section: str, sweep: SweepResult) -> None:
    totals = sweep.cache_totals()
    print(
        f"[{section}] {len(sweep)} tasks in {sweep.wall_time:.2f}s "
        f"({sweep.mode}); plans explored: {sweep.explored_total}; "
        f"cost evaluations: {totals.misses} "
        f"(cache hits: {totals.hits}, hit rate {totals.hit_rate:.1%})"
    )


def benign_section() -> None:
    print("== benign workloads: ratio to the exact optimum (n = 8) ==")
    workloads = ["chain", "cycle", "clique", "random"]
    instances = [
        (f"{label}-s{seed}", api.generate(label, 8, seed=seed))
        for label in workloads
        for seed in range(5)
    ]
    optimizers = ["dp"] + [registry for _, registry in HEURISTICS]
    sweep = api.sweep(_spec(optimizers, instances))
    cells = {(o.label, o.optimizer): o.result for o in sweep if o.ok}
    print(f"{'workload':<10}" + "".join(f"{name:>20}" for name, _ in HEURISTICS))
    for label in workloads:
        ratios = {registry: [] for _, registry in HEURISTICS}
        for seed in range(5):
            optimum = cells[(f"{label}-s{seed}", "dp")].cost
            for _, registry in HEURISTICS:
                result = cells[(f"{label}-s{seed}", registry)]
                ratios[registry].append(result.ratio_to(optimum))
        print(
            f"{label:<10}"
            + "".join(
                f"{mean(ratios[registry]):>20.3f}" for _, registry in HEURISTICS
            )
        )
    _report_sweep("benign", sweep)


def adversarial_section() -> None:
    print("\n== the paper's gap family: log2(cost / certificate) ==")
    print("(each unit is a doubling; polylog budgets are single digits)")
    header = f"{'n':>4}{'k_yes':>7}{'k_no':>6}{'floor':>9}"
    header += "".join(f"{name:>20}" for name, _ in HEURISTICS)
    print(header)
    combos = [(8, 6, 2), (10, 8, 2), (12, 9, 3)]
    bounds = {}
    instances = []
    for n, k_yes, k_no in combos:
        pair = qon_gap_pair(n, k_yes, k_no, alpha=4**n)
        certificate = qon_certificate_sequence(pair.yes_reduction, pair.yes_clique)
        cert_log2 = log2_of(total_cost(pair.yes_reduction.instance, certificate))
        floor_log2 = log2_of(pair.no_reduction.no_cost_lower_bound())
        bounds[n] = (cert_log2, floor_log2)
        # Heuristics attack the NO instance (log-domain for speed).
        instances.append((f"gap-n{n}-s0", pair.no_reduction.instance.to_log_domain()))
    sweep = api.sweep(
        _spec([registry for _, registry in HEURISTICS], instances)
    )
    cells = {(o.label, o.optimizer): o.result for o in sweep if o.ok}
    for n, k_yes, k_no in combos:
        cert_log2, floor_log2 = bounds[n]
        row = f"{n:>4}{k_yes:>7}{k_no:>6}{floor_log2 - cert_log2:>9.1f}"
        for _, registry in HEURISTICS:
            found = cells[(f"gap-n{n}-s0", registry)]
            row += f"{log2_of(found.cost) - cert_log2:>20.1f}"
        print(row)
    print(
        "\nEvery heuristic lands at or above the Lemma 8 floor — no "
        "polynomial algorithm can do better than the floor on NO "
        "instances, which is the hardness gap."
    )
    _report_sweep("adversarial", sweep)


def main() -> None:
    benign_section()
    adversarial_section()


if __name__ == "__main__":
    main()
