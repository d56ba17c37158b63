"""The repository benchmark: one command for every workload and metric.

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --workload serve-hot --seed 3 --trace 1
    python3 bench/run.py --runs 10 --out A.json
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --smoke

With ``--workload W`` one workload runs in this process and the last
line of output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without it,
every workload runs in a fresh process of its own, ``--runs`` times
with seeds ``seed, seed + 1, ...``, and a summary (median, quartiles,
sample count) is printed and optionally written with ``--out``.  The
exit code is non-zero on any failure.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import serve
import sweeps
import workloads
from measure import Outcome, peak_rss_mb, quartiles
from tracing import attribute, concat, span
from workloads import CLIENTS, COLD_WARMUP, ROOT

from repro.observability import Tracer, write_trace

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / "bench" / "results"

#: Distinct requests the probes run on (a sweep workload's first cells;
#: serve-cold's first unique requests).
PROBE_CELLS = 48
COLD_PROBE_CELLS = 16

#: Largest reconciliation error accepted (share of the root span).
RECONCILE_TOLERANCE = 0.01

#: Layers whose spans can appear in a workload's traced window.
WINDOW_LAYERS = ("runtime", "joinopt", "hashjoin", "rpc", "service")

#: Seconds per workload with ``--smoke``.
SMOKE_SECONDS = 1.0

#: Failures printed one by one; the rest are counted.
MAX_PROBLEMS_SHOWN = 20


def trace_metrics(
    name: str,
    window: List[Dict[str, Any]],
    probes: List[Dict[str, Any]],
    plain_latency: float,
    traced_latency: float,
    outcome: Outcome,
) -> None:
    """Write the trace, attribute self time, check reconciliation.

    The latencies are medians of the untraced and traced half-windows.
    """
    records = concat(window, probes)
    write_trace(records, RESULTS / f"trace-{name}.jsonl",
                meta={"workload": name, "roots": ["window", "probes"]})
    for record in records:
        if record["parent"] is not None:
            continue
        by_layer, unattributed, error = attribute(records, record["id"])
        outcome.check(
            error <= RECONCILE_TOLERANCE,
            f"{record['name']}: layer self times plus unattributed miss "
            f"the root span by {error:.2%}",
        )
        if record["id"] == 0:
            total = record["duration_s"]
            for layer in WINDOW_LAYERS:
                outcome.add(f"{layer}.self_frac", by_layer[layer] / total,
                            "ratio")
            outcome.add("trace.unattributed_ms", unattributed * 1e3, "ms")
            outcome.add("trace.reconcile_error", error, "ratio")
    outcome.add("trace.overhead_frac", traced_latency / plain_latency - 1.0,
                "ratio")
    outcome.add("trace.spans", len(window), "count")


def run_sweep_workload(name: str, seed: int, seconds: float,
                       trace: bool) -> Outcome:
    outcome = Outcome()
    setup = None if trace else sweeps.setup_seconds(name, seed)
    cells = workloads.spec_cells(workloads.sweep_specs(name, seed))
    refs = workloads.references(cells)
    if not trace:
        reps = sweeps.repeat(name, seed, seconds, refs, outcome)
        sweeps.end_to_end(reps, outcome)
        outcome.add("setup_s", setup, "s")
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome

    plain = sweeps.repeat(name, seed, seconds / 2, refs, outcome)
    tracer = Tracer(f"bench.{name}")
    traced = sweeps.repeat(name, seed, seconds / 2, refs, outcome, tracer)
    window = tracer.finish()
    sweeps.runtime_metrics(plain, outcome)
    probes = Tracer("bench.probes")
    cells = cells[:PROBE_CELLS]
    layers.kernel_probes(seed, probes, outcome)
    layers.codec_probes(cells, refs, probes, outcome)
    with span(probes, "probe.service.session"):
        serve.probe(cells, refs, outcome)
    trace_metrics(
        name, window, probes.finish(),
        statistics.median(rep.wall for rep in plain),
        statistics.median(rep.wall for rep in traced),
        outcome,
    )
    return outcome


def _sources(name: str, seed: int,
             requests: List[Any]) -> List[serve.Source]:
    """One request source per client."""
    if name == "serve-hot":
        return [
            ((index, requests[index])
             for index in workloads.hot_schedule(seed, client, len(requests)))
            for client in range(CLIENTS)
        ]
    return [
        ((key, workloads.cold_request(seed, key))
         for key in itertools.count(COLD_WARMUP + client, CLIENTS))
        for client in range(CLIENTS)
    ]


def run_serve_workload(name: str, seed: int, seconds: float,
                       trace: bool) -> Outcome:
    outcome = Outcome()
    if name == "serve-hot":
        requests = workloads.hot_requests(seed)
        first = list(enumerate(requests))
        refs = workloads.references(first)
        keep = None
    else:
        # Replies are checked after the run, on a fixed 1-in-4 sample.
        requests = []
        first = [(key, workloads.cold_request(seed, key))
                 for key in range(COLD_WARMUP)]
        refs = {}
        keep = workloads.cold_sampled
    sources = _sources(name, seed, requests)
    daemon, setup = serve.start_daemon(1 if trace else serve.SETUP_SAMPLES)
    with daemon:
        address = daemon.address
        before = serve.metrics(address)
        session = serve.send_each(address, first, refs, keep)
        half = seconds / 2 if trace else seconds
        plain, window, _ = serve.closed_loop(address, sources, half, refs,
                                             keep)
        middle = serve.metrics(address)
        traced: List[serve.Sample] = []
        if trace:
            tracer = Tracer(f"bench.{name}")
            tracer.root["attrs"] = {"parallel": CLIENTS}
            traced, _, client_traces = serve.closed_loop(
                address, sources, half, refs, keep, traced=True
            )
            for client, records in enumerate(client_traces):
                tracer.graft(records, origin=f"client-{client}")
            window_records = tracer.finish()
        after = serve.metrics(address)
        daemon_kb = daemon.peak_kb()
    session += plain
    if keep is not None:
        refs = workloads.references([
            (sample.key, workloads.cold_request(seed, sample.key))
            for sample in session + traced if sample.kept
        ])
    serve.check_replies(session + traced, refs, outcome)
    serve.check_identity(serve.counter_delta(before, after), outcome)
    if not trace:
        serve.end_to_end(plain, window, outcome)
        outcome.add("setup_s", setup, "s")
        outcome.add("peak_rss_mb", peak_rss_mb(daemon_kb), "MB")
        return outcome

    serve.service_metrics(session, plain, serve.counter_delta(before, middle),
                          refs, outcome)
    if name == "serve-cold":
        first = [(key, workloads.cold_request(seed, key))
                 for key in range(COLD_PROBE_CELLS)]
        refs.update(workloads.references(
            [cell for cell in first if cell[0] not in refs]
        ))
    probes = Tracer("bench.probes")
    layers.kernel_probes(seed, probes, outcome)
    layers.codec_probes(first, refs, probes, outcome)
    with span(probes, "probe.runtime.sweeps"):
        sweeps.probe(first, refs, outcome)
    trace_metrics(
        name, window_records, probes.finish(),
        statistics.median(s.rtt for s in plain if s.error is None),
        statistics.median(s.rtt for s in traced if s.error is None),
        outcome,
    )
    return outcome


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload here; print its metrics and the result line."""
    runner = (run_sweep_workload if name.startswith("sweep-")
              else run_serve_workload)
    outcome = runner(name, seed, seconds, trace)
    outcome.add("fail_frac", outcome.failed / outcome.attempted, "ratio")
    for metric in sorted(outcome.metrics):
        value, unit = outcome.metrics[metric]
        print(f"{name:<15} {metric:<32} {value:>16.6g} {unit}")
    for problem in outcome.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"{name:<15} FAILED: {problem}")
    if len(outcome.problems) > MAX_PROBLEMS_SHOWN:
        print(f"{name:<15} FAILED: ... and "
              f"{len(outcome.problems) - MAX_PROBLEMS_SHOWN} more")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {
                "value": outcome.metrics[metric["name"]][0],
                "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct and outcome.attempted > 0 else 1


# ---------------------------------------------------------------------
# Sets of runs, summaries and comparison
# ---------------------------------------------------------------------


def run_set(names: List[str], seed: int, runs: int, seconds: float,
            trace: bool) -> Tuple[Dict[str, Any], bool]:
    """Every workload ``runs`` times, each run in a fresh process."""
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    units: Dict[str, str] = {}
    ok = True
    for run in range(runs):
        for name in names:
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(seed + run), "--seconds", str(seconds),
                       "--trace", str(int(trace))]
            process = subprocess.run(command, stdout=subprocess.PIPE,
                                     text=True, timeout=900)
            lines = process.stdout.splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if process.returncode != 0 or result is None:
                ok = False
                sys.stdout.write(process.stdout)
                print(f"{name}: run {run} failed "
                      f"(exit {process.returncode})")
                continue
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name:<15} seed {seed + run}: "
                  f"{result['attempted']} ops, {result['failed']} failed",
                  flush=True)
    summary = {
        "seeds": [seed, seed + runs - 1],
        "seconds": seconds,
        "trace": trace,
        "workloads": {
            name: {
                metric: summarize(samples, units[metric])
                for metric, samples in per_metric.items()
            }
            for name, per_metric in values.items()
        },
    }
    return summary, ok


def summarize(samples: List[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = quartiles(samples)
    return {"unit": unit, "n": len(samples), "median": median, "q1": q1,
            "q3": q3, "values": samples}


def print_summary(summary: Dict[str, Any]) -> None:
    print(f"{'workload':<15} {'metric':<32} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}")
    for name, metrics in summary["workloads"].items():
        for metric, entry in metrics.items():
            print(f"{name:<15} {metric:<32} {entry['median']:>12.6g} "
                  f"{entry['q1']:>12.6g} {entry['q3']:>12.6g} "
                  f"{entry['n']:>3} {entry['unit']}")


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """Print each workload's end-to-end medians side by side; False if
    the second is worse than the first by more than a bound."""
    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    ok = True
    print(f"{'workload':<15} {'metric':<18} {'A median':>11} "
          f"{'A q1..q3':>23} {'B median':>11} {'B q1..q3':>23} "
          f"{'diff':>8} {'bound':>6}")
    for name, metrics in first["workloads"].items():
        for metric, spec in bounds.items():
            a = metrics.get(metric)
            b = second["workloads"].get(name, {}).get(metric)
            if a is None or b is None:
                continue
            diff = (b["median"] - a["median"]) / a["median"]
            worse = diff if spec["better"] == "lower" else -diff
            verdict = "WORSE" if worse > spec["bound"] else "ok"
            ok = ok and verdict == "ok"
            print(f"{name:<15} {metric:<18} {a['median']:>11.5g} "
                  f"{a['q1']:>11.5g}..{a['q3']:<11.5g} {b['median']:>11.5g} "
                  f"{b['q1']:>11.5g}..{b['q3']:<11.5g} {diff:>+8.2%} "
                  f"{spec['bound']:>6.0%} {verdict}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (all workloads only)")
    parser.add_argument("--out", type=Path,
                        help="write the summary of the runs as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, one run")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(path.read_text())
                         for path in args.compare)
        return 0 if compare(first, second) else 1
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.workload != "all":
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    summary, ok = run_set(list(workloads.NAMES), args.seed,
                          1 if args.smoke else args.runs, seconds,
                          bool(args.trace))
    print_summary(summary)
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
