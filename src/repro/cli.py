"""Command-line interface.

Usage (installed as ``python -m repro``):

    python -m repro gen --family chain --relations 6 --out q.json
    python -m repro optimize q.json --algorithm dp
    python -m repro reduce-sat --variables 6 --clauses 16 --satisfiable \\
        --target qon --out hard.json
    python -m repro gap-report --relations 10 --alpha-exp 20
    python -m repro sweep --family random --n 6,8 --algorithms dp,greedy-cost
    python -m repro lint src benchmarks examples

Instances travel as the JSON format of :mod:`repro.io`.  Every
subcommand speaks to the substrates exclusively through the
:mod:`repro.api` facade — lint rule ``RPR007`` enforces that this
module never imports optimizer or reduction internals directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro import api, io
from repro.utils.lognum import log2_of

#: Workload families come from the public facade.
_FAMILIES = api.FAMILIES

#: Families that sweep the Theorem 9 YES/NO hardness pair ("qon" is the
#: substrate-named alias of the historical "gap").
_GAP_FAMILIES = ("gap", "qon")

#: QO_N algorithm names exposed on the CLI — the shared runtime
#: registry minus the QO_H and SQO-CP entries (those take
#: QOHInstance / SQOCPInstance inputs).
_ALGORITHMS = api.optimizer_names(substrate="qon")


def _require_qon(instance: object, command: str) -> bool:
    """Print the standard substrate error unless ``instance`` is QO_N."""
    if api.substrate_of(instance) == "qon":
        return True
    print(f"{command} currently supports QO_N instances", file=sys.stderr)
    return False


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = api.generate(
        args.family, args.relations, seed=args.seed,
        size_max=args.size_max, domain_max=args.domain_max,
    )
    io.save(instance, args.out)
    print(f"wrote {args.family} query with {args.relations} relations to {args.out}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    instance = io.load(args.instance)
    if not _require_qon(instance, "optimize"):
        return 2
    request = api.OptimizeRequest.build(instance, args.algorithm)
    result = api.optimize(request)
    print(f"algorithm:  {result.optimizer}")
    print(f"sequence:   {list(result.sequence)}")
    print(f"cost:       2^{log2_of(result.cost):.3f}")
    print(f"exact:      {result.is_exact}")
    print(f"explored:   {result.explored}")
    return 0


def _cmd_reduce_sat(args: argparse.Namespace) -> int:
    formula = api.gap_formula(
        args.variables, args.clauses,
        satisfiable=args.satisfiable, seed=args.seed,
    )
    chain = api.reduce(args.target, formula, alpha=args.alpha)
    instance = chain.instance
    n = chain.fn_step.n if args.target == "qon" else chain.fh_step.n
    io.save(instance, args.out)
    print(
        f"reduced {'YES' if args.satisfiable else 'NO'} 3SAT(13) formula "
        f"({formula.formula.num_vars} vars, {formula.formula.num_clauses} "
        f"clauses) to a {args.target} instance on {n} relations -> {args.out}"
    )
    return 0


def _cmd_gap_report(args: argparse.Namespace) -> int:
    numbers = api.gap_report_numbers(args.relations, args.alpha_exp)
    print(f"f_N gap report (n={args.relations}, alpha=4^{args.alpha_exp})")
    print(f"  k_yes / k_no:       {numbers['k_yes']} / {numbers['k_no']}")
    print(f"  log2 K_{{c,d}}:       {numbers['k_cd_log2']:.1f}")
    print(f"  log2 gap factor:    {numbers['gap_log2']:.1f}")
    for entry in numbers["budgets"]:
        verdict = "gap wins" if entry["gap_wins"] else "budget wins"
        print(
            f"  vs 2^{{log^{{{1 - entry['delta']:.2f}}} K}} budget: "
            f"{entry['budget_log2']:.1f}  -> {verdict}"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    instance = io.load(args.instance)
    if not _require_qon(instance, "explain"):
        return 2
    print(api.explain_plan(instance, algorithm=args.algorithm))
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    instance = io.load(args.instance)
    if not _require_qon(instance, "execute"):
        return 2
    report = api.execute_plan(
        instance, algorithm=args.algorithm, harmonize=args.harmonize
    )
    print(
        f"sequence: {list(report.result.sequence)}  "
        f"(exactness guaranteed: {report.exact})"
    )
    print(f"{'join':<6}{'N model':>12}{'N real':>12}{'H model':>12}{'H real':>12}")
    for index, (output_rows, probe_rows) in enumerate(report.joins):
        print(
            f"J_{index + 1:<4}{str(report.predicted_sizes[index]):>12}"
            f"{output_rows:>12}{str(report.predicted_costs[index]):>12}"
            f"{probe_rows:>12}"
        )
    print(f"result rows: {report.result_rows}")
    return 0


_RANDOMIZED = {"iterative", "annealing", "sampling", "genetic"}

#: Fast algorithms for --quick smoke runs.
_QUICK_ALGORITHMS = ["dp", "greedy-cost", "sampling"]


def _sweep_instances(
    args: argparse.Namespace,
) -> Tuple[List[Tuple[str, object]], Dict[str, int]]:
    """Build the labelled instance list and a label -> seed map."""
    instances: List[Tuple[str, object]] = []
    seeds: Dict[str, int] = {}
    for n in args.n_values:
        if args.family in _GAP_FAMILIES:
            if n < 6:  # k_yes = n-2 must clear k_no = 2 or 3
                raise SystemExit("gap family needs --n >= 6")
            k_yes = n - 2
            k_no = 2 + (k_yes % 2)
            pair = api.gap_pair(n, k_yes, k_no, alpha=4)
            for side, reduction in (
                ("yes", pair.yes_reduction), ("no", pair.no_reduction)
            ):
                label = f"gap-{side}-n{n}"
                instances.append((label, reduction.instance))
                seeds[label] = 0
            continue
        factory = _FAMILIES[args.family]
        for seed in range(args.seeds):
            label = f"{args.family}-n{n}-s{seed}"
            instances.append((label, factory(n, rng=seed)))
            seeds[label] = seed
    return instances, seeds


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        args.n_values = [int(part) for part in args.n.split(",") if part]
    except ValueError:
        print(
            f"--n expects a comma-separated list of integers, got {args.n!r}",
            file=sys.stderr,
        )
        return 2
    if not args.n_values:
        print("--n needs at least one instance size", file=sys.stderr)
        return 2
    if args.algorithms:
        names = [part for part in args.algorithms.split(",") if part]
    elif args.quick:
        names = list(_QUICK_ALGORITHMS)
    else:
        names = ["dp", "greedy-cost", "greedy-size", "iterative", "sampling"]
    unknown = [name for name in names if name not in _ALGORITHMS]
    if unknown:
        print(
            f"unknown algorithms: {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(_ALGORITHMS))})",
            file=sys.stderr,
        )
        return 2
    if args.quick:
        args.seeds = 1

    instances, seeds = _sweep_instances(args)

    if args.resume and args.journal is None:
        print("--resume requires --journal PATH", file=sys.stderr)
        return 2
    if args.retries < 1:
        print("--retries must be >= 1", file=sys.stderr)
        return 2

    spec = api.SweepSpec.build(
        names,
        instances,
        params={
            (name, label): {"rng": seeds.get(label, 0)}
            for name in names if name in _RANDOMIZED
            for label, _instance in instances
        },
        workers=args.workers,
        cache=not args.no_cache,
        cache_maxsize=args.cache_maxsize,
        timeout=args.timeout,
        trace=args.trace_out is not None,
        retries=args.retries,
        backoff=args.backoff,
    )
    from repro.utils.validation import ValidationError

    try:
        result = api.sweep(spec, journal=args.journal, resume=args.resume)
    except ValidationError as exc:  # e.g. a journal of another schema
        print(f"cannot run the sweep: {exc}", file=sys.stderr)
        return 2

    header = (
        f"{'instance':<16}{'algorithm':<14}{'log2 cost':>10}"
        f"{'explored':>10}{'ms':>9}{'hits':>7}{'misses':>8}"
    )
    print(header)
    print("-" * len(header))
    for outcome in result:
        if outcome.failure == "cancelled":
            shown = "CANCELLED"
        elif outcome.failure == "worker-died":
            shown = "DIED"
        elif outcome.timed_out:
            shown = "TIMEOUT"
        elif outcome.error:
            shown = "ERROR"
        else:
            shown = f"{log2_of(outcome.result.cost):.1f}"
        print(
            f"{outcome.label:<16}{outcome.optimizer:<14}{shown:>10}"
            f"{outcome.explored:>10}{outcome.wall_time * 1e3:>9.1f}"
            f"{outcome.cache.hits:>7}{outcome.cache.misses:>8}"
        )
        if outcome.error and not outcome.timed_out:
            print(f"    {outcome.error}")
    totals = result.cache_totals()
    print(
        f"\n{len(result)} tasks ({result.mode}, {result.workers} worker"
        f"{'s' if result.workers != 1 else ''}) in {result.wall_time:.2f}s | "
        f"cost evaluations: {totals.misses} | cache hits: {totals.hits} "
        f"(hit rate {totals.hit_rate:.1%}) | "
        f"peak subproblems: {totals.peak_size}"
    )
    if result.retries or result.recovered_workers or result.resumed:
        print(
            f"resilience: {result.resumed} tasks resumed from journal | "
            f"{result.retries} retries | "
            f"{result.recovered_workers} worker pools respawned"
        )
    if args.journal is not None:
        print(f"journal at {args.journal}")

    metrics_out = args.metrics_out
    if metrics_out is None:
        from pathlib import Path

        results_dir = Path("benchmarks") / "results"
        target = results_dir if results_dir.is_dir() else Path(".")
        metrics_out = target / "sweep-metrics.json"
    payload = api.sweep_metrics(
        result,
        grid={
            "family": args.family,
            "n": args.n_values,
            "seeds": args.seeds,
            "algorithms": names,
        },
    )
    path = api.write_metrics(payload, metrics_out)
    print(f"metrics written to {path}")

    if args.trace_out is not None:
        from repro.observability import hot_span, write_trace

        records = result.trace_records()
        trace_path = write_trace(
            records, args.trace_out,
            meta={
                "grid": payload["grid"],
                "mode": result.mode,
                "workers": result.workers,
            },
        )
        print(f"trace written to {trace_path} ({len(records)} spans)")
        hot = hot_span(records)
        if hot is not None:
            name, share = hot
            print(f"hottest span: {name} ({share:.1%} of sweep wall time)")
    return 0 if all(o.ok for o in result) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import (
        flame_report,
        hot_span,
        load_trace,
        summary_table,
    )
    from repro.utils.validation import ValidationError

    try:
        trace = load_trace(args.trace)
    except (OSError, ValidationError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if trace.meta:
        parts = [f"{key}={value}" for key, value in sorted(trace.meta.items())]
        print(f"meta: {'  '.join(parts)}")
    print(f"{len(trace.records)} spans\n")
    if args.flat:
        print(summary_table(trace.records, top=args.top))
    else:
        print(flame_report(
            trace.records, max_depth=args.depth, min_share=args.min_share,
        ))
    hot = hot_span(trace.records)
    if hot is not None:
        name, share = hot
        print(f"\nhottest span: {name} ({share:.1%} of wall time)")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    scorecard = api.scorecard()
    print(scorecard.render())
    return 0 if scorecard.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import lint_paths, render_text
    from repro.devtools.reporter import render_rule_list

    if args.list_rules:
        print(render_rule_list())
        return 0
    select = None
    if args.select:
        select = [part for part in args.select.split(",") if part.strip()]
    try:
        report = lint_paths(args.paths or ["src"], select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_text(report))
    return 0 if report.ok else 1


def _parse_address(text: str) -> object:
    """``host:port`` -> TCP tuple; anything else is an AF_UNIX path."""
    if "/" not in text and ":" in text:
        host, _colon, port = text.rpartition(":")
        if host and port.isdigit():
            return (host, int(port))
    return text


def _format_address(address: object) -> str:
    if isinstance(address, str):
        return address
    host, port = address  # type: ignore[misc]
    return f"{host}:{port}"


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.service import OptimizationServer, ServerConfig

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_queue < 1:
        print("--max-queue must be >= 1", file=sys.stderr)
        return 2
    if args.metrics_interval <= 0:
        print("--metrics-interval must be > 0", file=sys.stderr)
        return 2
    server = OptimizationServer(ServerConfig(
        address=_parse_address(args.socket),  # type: ignore[arg-type]
        workers=args.workers,
        max_queue=args.max_queue,
        retry_after_s=args.retry_after,
        result_cache_size=args.cache_size,
        metrics_out=args.metrics_out,
        metrics_interval_s=args.metrics_interval,
    ))
    address = server.start()
    print(
        f"repro service (api {api.API_VERSION}) listening on "
        f"{_format_address(address)} | {args.workers} worker"
        f"{'s' if args.workers != 1 else ''}, queue {args.max_queue}",
        flush=True,
    )
    final = server.serve_forever()
    print(json.dumps(final, sort_keys=True))
    return 0


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    if args.capabilities:
        if args.connect is None:
            print(json.dumps(api.capabilities(), indent=2, sort_keys=True))
            return 0
        from repro.service import ServiceClient

        with ServiceClient(_parse_address(args.connect)) as client:  # type: ignore[arg-type]
            print(json.dumps(client.capabilities, indent=2, sort_keys=True))
        return 0

    if args.connect is None:
        print("repro request needs --connect ADDRESS (or --capabilities)",
              file=sys.stderr)
        return 2
    from repro.service import ServiceClient, ServiceUnavailable

    with ServiceClient(_parse_address(args.connect)) as client:  # type: ignore[arg-type]
        if args.stats:
            print(json.dumps(client.metrics(), sort_keys=True))
            return 0
        if args.instance is None:
            print("repro request needs an instance file "
                  "(or --stats / --capabilities)", file=sys.stderr)
            return 2
        instance = io.load(args.instance)
        request = api.OptimizeRequest.build(
            instance, args.algorithm, no_cache=args.no_cache
        )
        try:
            reply = client.optimize(request, max_wait_s=args.max_wait)
        except ServiceUnavailable as exc:
            print(str(exc), file=sys.stderr)
            return 3
    if args.json:
        print(reply.to_json())
        return 0 if reply.ok else 1
    if not reply.ok:
        print(f"request failed: {reply.error}", file=sys.stderr)
        return 1
    result = reply.result
    source = "cache" if reply.cached else (
        "coalesced" if reply.coalesced else "computed"
    )
    print(f"algorithm:  {result.optimizer}")
    print(f"sequence:   {list(result.sequence)}")
    print(f"cost:       2^{log2_of(result.cost):.3f}")
    print(f"exact:      {result.is_exact}")
    print(f"explored:   {result.explored}")
    print(f"served:     {source} in {reply.wall_time_s * 1e3:.1f} ms "
          f"(fingerprint {(reply.fingerprint or '')[:12]})")
    return 0


def _top_lines(snapshot: Dict[str, object],
               previous: Optional[Dict[str, object]]) -> List[str]:
    """Render one ``repro top`` frame from a metrics snapshot.

    ``previous`` (the prior poll) turns counter totals into rates;
    the first frame shows totals only.
    """
    from repro.observability import snapshot_percentile

    counters = snapshot.get("counters")
    gauges = snapshot.get("gauges")
    histograms = snapshot.get("histograms")
    assert isinstance(counters, dict)
    assert isinstance(gauges, dict)
    assert isinstance(histograms, dict)

    def rate(name: str) -> str:
        if previous is None:
            return ""
        prev_counters = previous.get("counters")
        assert isinstance(prev_counters, dict)
        span_s = float(snapshot["ts"]) - float(previous["ts"])  # type: ignore[arg-type]
        if span_s <= 0:
            return ""
        delta = int(counters.get(name, 0)) - int(prev_counters.get(name, 0))
        return f" ({delta / span_s:.1f}/s)"

    received = int(counters.get("service.received", 0))
    lines = [
        f"repro top | uptime {float(snapshot['uptime_s']):.1f}s "  # type: ignore[arg-type]
        f"| seq {snapshot['seq']}",
        f"queue {int(gauges.get('service.queue_depth', 0))} "
        f"| in-flight {int(gauges.get('service.in_flight', 0))} "
        f"| workers {int(gauges.get('service.workers', 0))}",
        f"received  {received}{rate('service.received')}",
    ]
    for name in ("computed", "cache_hits", "coalesced", "rejected",
                 "errors"):
        total = int(counters.get(f"service.{name}", 0))
        share = f" {100.0 * total / received:.0f}%" if received else ""
        lines.append(f"  {name:<10} {total}{share}"
                     f"{rate(f'service.{name}')}")
    latency = histograms.get("service.latency_ms")
    if isinstance(latency, dict) and int(latency.get("count", 0)) > 0:
        p50 = snapshot_percentile(latency, 50)
        p99 = snapshot_percentile(latency, 99)
        lines.append(
            f"latency   p50<={p50:.0f}ms p99<={p99:.0f}ms "
            f"over {int(latency['count'])} requests"
        )
    runtime = {
        name.split(".", 1)[1]: value
        for name, value in counters.items()
        if isinstance(name, str) and name.startswith("runtime.")
    }
    if runtime:
        lines.append("runtime   " + " ".join(
            f"{key}={value}" for key, value in sorted(runtime.items())
        ))
    compiles = int(counters.get("perf.kernel_compiles", 0))
    if compiles:
        lines.append(f"kernels   compiles={compiles}"
                     f"{rate('perf.kernel_compiles')}")
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.observability import validate_metrics
    from repro.service import ServiceClient, ServiceError

    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    iterations = 1 if args.once else args.iterations
    if iterations < 0:
        print("--iterations must be >= 0 (0 = forever)", file=sys.stderr)
        return 2
    try:
        client = ServiceClient(_parse_address(args.connect))  # type: ignore[arg-type]
    except (OSError, ServiceError) as exc:
        print(f"cannot reach daemon at {args.connect}: {exc}",
              file=sys.stderr)
        return 3
    previous: Optional[Dict[str, object]] = None
    shown = 0
    try:
        while True:
            try:
                snapshot = client.metrics()
            except (OSError, ServiceError) as exc:
                print(f"metrics poll failed: {exc}", file=sys.stderr)
                return 3
            problems = validate_metrics(snapshot)
            if problems:
                for problem in problems:
                    print(f"invalid snapshot: {problem}", file=sys.stderr)
                return 1
            for line in _top_lines(snapshot, previous):
                print(line)
            previous = snapshot
            shown += 1
            if iterations and shown >= iterations:
                return 0
            print(flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.observability import (
        diff_metrics,
        load_metrics_file,
        summarize_metrics,
    )

    try:
        snapshots = load_metrics_file(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.file}: {exc}", file=sys.stderr)
        return 1
    if args.diff is not None:
        try:
            others = load_metrics_file(args.diff)
        except (OSError, ValueError) as exc:
            print(f"cannot load {args.diff}: {exc}", file=sys.stderr)
            return 1
        try:
            deltas = diff_metrics(snapshots[-1], others[-1])
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        for name in sorted(deltas):
            print(f"{name} +{deltas[name]}")
        return 0
    print(summarize_metrics(snapshots))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Complexity of Approximate Query "
            "Optimization' (PODS 2002)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen", help="generate a query instance")
    gen.add_argument("--family", choices=sorted(_FAMILIES), default="random")
    gen.add_argument("--relations", type=int, default=8)
    gen.add_argument("--size-max", type=int, default=100_000)
    gen.add_argument("--domain-max", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    optimize = subparsers.add_parser("optimize", help="optimize an instance")
    optimize.add_argument("instance")
    optimize.add_argument(
        "--algorithm", choices=sorted(_ALGORITHMS), default="dp"
    )
    optimize.set_defaults(func=_cmd_optimize)

    reduce_sat = subparsers.add_parser(
        "reduce-sat", help="run the hardness reduction chain"
    )
    reduce_sat.add_argument("--variables", type=int, default=6)
    reduce_sat.add_argument("--clauses", type=int, default=16)
    reduce_sat.add_argument(
        "--satisfiable", action="store_true", help="YES-promise source"
    )
    reduce_sat.add_argument("--target", choices=("qon", "qoh"), default="qon")
    reduce_sat.add_argument("--alpha", type=int, default=4)
    reduce_sat.add_argument("--seed", type=int, default=0)
    reduce_sat.add_argument("--out", required=True)
    reduce_sat.set_defaults(func=_cmd_reduce_sat)

    explain_cmd = subparsers.add_parser(
        "explain", help="print the execution plan of an optimizer's choice"
    )
    explain_cmd.add_argument("instance")
    explain_cmd.add_argument(
        "--algorithm", choices=sorted(_ALGORITHMS), default="dp"
    )
    explain_cmd.set_defaults(func=_cmd_explain)

    execute_cmd = subparsers.add_parser(
        "execute", help="materialize synthetic data and run the plan"
    )
    execute_cmd.add_argument("instance")
    execute_cmd.add_argument(
        "--algorithm", choices=sorted(_ALGORITHMS), default="dp"
    )
    execute_cmd.add_argument(
        "--harmonize",
        action="store_true",
        help="round sizes up so the estimates are exact",
    )
    execute_cmd.set_defaults(func=_cmd_execute)

    report = subparsers.add_parser(
        "gap-report", help="print the Theorem 9 gap quantities"
    )
    report.add_argument("--relations", type=int, default=12)
    report.add_argument("--alpha-exp", type=int, default=12)
    report.set_defaults(func=_cmd_gap_report)

    scorecard = subparsers.add_parser(
        "scorecard", help="verify every theorem's fast checks"
    )
    scorecard.set_defaults(func=_cmd_scorecard)

    sweep = subparsers.add_parser(
        "sweep",
        help="run an optimizer x instance grid through the cached "
        "parallel runner and emit metrics JSON",
    )
    sweep.add_argument(
        "--family",
        choices=sorted(_FAMILIES) + ["gap", "qon"],
        default="random",
        help="workload family; 'gap' (alias 'qon') sweeps the "
        "Theorem 9 YES/NO pair",
    )
    sweep.add_argument(
        "--n", default="6,8",
        help="comma-separated instance sizes, e.g. 4,6,8",
    )
    sweep.add_argument("--seeds", type=int, default=2,
                       help="instances per size (ignored for gap)")
    sweep.add_argument(
        "--algorithms",
        help="comma-separated algorithm names "
        f"(default depends on --quick; choose from "
        f"{', '.join(sorted(_ALGORITHMS))})",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help=f"pool size (default: min(cores - 1, 8) = "
        f"{api.default_workers()}; 1 forces serial)",
    )
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task wall-clock budget in seconds")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable memoization (evaluations still counted)")
    sweep.add_argument(
        "--cache-maxsize", type=int, default=None,
        help="bound the cost cache (LRU) at this many entries",
    )
    sweep.add_argument("--metrics-out", default=None,
                       help="metrics JSON path (default: benchmarks/results/"
                       "sweep-metrics.json when that directory exists)")
    sweep.add_argument("--quick", action="store_true",
                       help="small smoke grid: fast algorithms, one seed")
    sweep.add_argument(
        "--trace-out", default=None,
        help="also record a repro.trace/1 span tree (JSONL) at this path",
    )
    sweep.add_argument(
        "--journal", default=None,
        help="append an fsynced repro.journal/2 record per completed "
        "task at this path (enables crash-safe resumption)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip tasks already completed in --journal and merge "
        "their stored outcomes bit-identically",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="total attempts per task (default 1 = no retries)",
    )
    sweep.add_argument(
        "--backoff", type=float, default=0.0,
        help="base seconds between attempts, doubling per retry "
        "(deterministic, no jitter)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    trace = subparsers.add_parser(
        "trace",
        help="render a repro.trace/1 file (from sweep --trace-out) as a "
        "where-did-the-time-go report",
    )
    trace.add_argument("trace", help="trace JSONL path")
    trace.add_argument(
        "--flat", action="store_true",
        help="aggregate by span name instead of the nested flame view",
    )
    trace.add_argument("--depth", type=int, default=None,
                       help="limit flame view nesting depth")
    trace.add_argument(
        "--min-share", type=float, default=0.0,
        help="hide flame rows below this share of total time (e.g. 0.01)",
    )
    trace.add_argument("--top", type=int, default=None,
                       help="limit --flat rows to the N hottest span names")
    trace.set_defaults(func=_cmd_trace)

    lint = subparsers.add_parser(
        "lint",
        help="run the project's static checker (per-file RPR rules and "
        "whole-program ANA passes) over files/directories",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select",
        help="comma-separated RPR/ANA codes to report (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list every RPR and ANA code and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    serve = subparsers.add_parser(
        "serve",
        help="run the optimization service daemon (repro.rpc/1 over a "
        "local socket) with request dedup, result caching and "
        "admission control",
    )
    serve.add_argument(
        "--socket", default="127.0.0.1:0",
        help="where to listen: a unix socket path, or host:port "
        "(port 0 picks a free port; default 127.0.0.1:0)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="compute processes = max in-flight computations",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32,
        help="pending requests admitted beyond the in-flight ones; "
        "beyond this, requests are rejected with a retry-after reply",
    )
    serve.add_argument("--retry-after", type=float, default=0.05,
                       help="retry hint (seconds) on rejection replies")
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache entries (0 disables result caching)",
    )
    serve.add_argument(
        "--metrics-out", default=None,
        help="append repro.metrics/1 snapshot lines to this file "
        "while serving (final snapshot written on shutdown)",
    )
    serve.add_argument(
        "--metrics-interval", type=float, default=1.0,
        help="seconds between exported metrics snapshots",
    )
    serve.set_defaults(func=_cmd_serve)

    request_cmd = subparsers.add_parser(
        "request",
        help="send one typed request to a running service daemon "
        "(or print capabilities)",
    )
    request_cmd.add_argument(
        "instance", nargs="?", default=None,
        help="instance JSON file to optimize",
    )
    request_cmd.add_argument(
        "--connect", default=None,
        help="daemon address: unix socket path or host:port",
    )
    request_cmd.add_argument(
        "--algorithm", choices=api.optimizer_names(), default="dp",
    )
    request_cmd.add_argument(
        "--no-cache", action="store_true",
        help="bypass the server's result cache for this request",
    )
    request_cmd.add_argument(
        "--capabilities", action="store_true",
        help="print the capability payload (the server's with "
        "--connect, the local facade's otherwise) and exit",
    )
    request_cmd.add_argument(
        "--stats", action="store_true",
        help="print the server's repro.metrics/1 snapshot as one JSON "
        "line (readable by repro metrics) and exit",
    )
    request_cmd.add_argument(
        "--max-wait", type=float, default=60.0,
        help="give up after being backpressured for this many seconds",
    )
    request_cmd.add_argument(
        "--json", action="store_true",
        help="print the raw repro.reply/1 JSON instead of the summary",
    )
    request_cmd.set_defaults(func=_cmd_request)

    top = subparsers.add_parser(
        "top",
        help="live daemon telemetry: poll a running server's metrics "
        "op and render queue depth, throughput and latency",
    )
    top.add_argument(
        "--connect", required=True,
        help="daemon address: unix socket path or host:port",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many frames (0 = run until interrupted)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (same as --iterations 1)",
    )
    top.set_defaults(func=_cmd_top)

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="validate and summarize an exported repro.metrics/1 "
        "snapshot file, or diff two of them",
    )
    metrics_cmd.add_argument(
        "file", help="metrics JSONL file written by repro serve "
        "--metrics-out (or a TelemetryExporter)",
    )
    metrics_cmd.add_argument(
        "--diff", default=None, metavar="LATER_FILE",
        help="print counter movement from FILE's last snapshot to "
        "LATER_FILE's last snapshot",
    )
    metrics_cmd.set_defaults(func=_cmd_metrics)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
