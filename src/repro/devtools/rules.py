"""The per-file invariant rules (``RPR...``) and the code catalogue.

Each rule is a generator over one parsed file (plus the shared
:class:`~repro.devtools.project.Project` context) yielding
``(line, col, message)`` findings; the registry wraps those into
:class:`~repro.devtools.diagnostics.Diagnostic` records.  Rules are
deliberately narrow: each one machine-checks a discipline the gap
theorems (or the PR 1/PR 2 infrastructure) depend on, documented in
``docs/devtools.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.analysis.codes import ANALYSIS_CODES
from repro.devtools.diagnostics import PARSE_ERROR_CODE, Diagnostic
from repro.devtools.noqa import listed_suppressions
from repro.devtools.project import Project, SourceFile, module_matches

Finding = Tuple[int, int, str]
CheckFn = Callable[[SourceFile, Project], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: a code, a slug, and its check function."""

    code: str
    name: str
    description: str
    check: CheckFn

    def run(self, file: SourceFile, project: Project) -> List[Diagnostic]:
        return [
            Diagnostic(
                path=str(file.path),
                line=line,
                col=col,
                code=self.code,
                rule=self.name,
                message=message,
            )
            for line, col, message in self.check(file, project)
        ]


#: Code -> rule, in registration (= code) order.
RULES: Dict[str, Rule] = {}


def rule_codes() -> List[str]:
    """All registered codes, sorted."""
    return sorted(RULES)


def register(code: str, name: str, description: str) -> Callable[[CheckFn], CheckFn]:
    def decorate(check: CheckFn) -> CheckFn:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(
            code=code, name=name, description=description, check=check
        )
        return check

    return decorate


def _loc(node: ast.AST) -> Tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0)


# ---------------------------------------------------------------------
# RPR002 — seeded randomness only
# ---------------------------------------------------------------------

#: The one module allowed to touch ``random`` directly; everything
#: else takes a seed or ``random.Random`` through
#: :func:`repro.utils.rng.make_rng`, keeping experiments replayable.
RNG_HOME = "utils.rng"


@register(
    "RPR002",
    "unmanaged-randomness",
    "direct random/numpy.random use outside repro.utils.rng breaks "
    "experiment reproducibility",
)
def _check_randomness(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if file.module == RNG_HOME:
        return
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith(
                    ("random.", "numpy.random")
                ):
                    line, col = _loc(node)
                    yield line, col, (
                        f"direct import of {alias.name!r}; route all "
                        "randomness through repro.utils.rng (seeded)"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random" or module.startswith("numpy.random"):
                line, col = _loc(node)
                yield line, col, (
                    f"direct import from {module!r}; route all "
                    "randomness through repro.utils.rng (seeded)"
                )
            elif module == "numpy" and any(
                alias.name == "random" for alias in node.names
            ):
                line, col = _loc(node)
                yield line, col, (
                    "direct import of numpy.random; route all "
                    "randomness through repro.utils.rng (seeded)"
                )


# ---------------------------------------------------------------------
# RPR004 — optimizers registered and span-instrumented
# ---------------------------------------------------------------------

#: Packages whose ``@traced("optimize.*")`` functions are optimizer
#: entry points and must be drivable by the sweep runner.
OPTIMIZER_PACKAGES = ("joinopt.optimizers", "hashjoin", "starqo")


def _traced_span_name(decorator: ast.expr) -> Optional[str]:
    """The span-name argument when ``decorator`` is ``@traced(...)``."""
    if not isinstance(decorator, ast.Call):
        return None
    func = decorator.func
    name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if name != "traced" or not decorator.args:
        return None
    first = decorator.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


@register(
    "RPR004",
    "unregistered-optimizer",
    "every optimizer entry point must be registered in "
    "repro.runtime.runner.OPTIMIZERS and carry a @traced span",
)
def _check_optimizer_registry(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if not module_matches(file.module, OPTIMIZER_PACKAGES):
        return
    registered = project.registered_optimizers(file)
    if registered is None:  # no registry to check against: skip, not guess
        return
    for node in file.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spans = [
            span
            for span in map(_traced_span_name, node.decorator_list)
            if span is not None
        ]
        optimizer_span = any(span.startswith("optimize") for span in spans)
        if optimizer_span and node.name not in registered:
            line, col = _loc(node)
            yield line, col, (
                f"optimizer {node.name!r} is span-instrumented but not "
                "registered in repro.runtime.runner.OPTIMIZERS; sweeps "
                "and the CLI cannot drive it"
            )
        elif node.name in registered and not optimizer_span:
            line, col = _loc(node)
            yield line, col, (
                f"registered optimizer {node.name!r} lacks a "
                '@traced("optimize.*") span; its work would be invisible '
                "to the observability layer"
            )


# ---------------------------------------------------------------------
# RPR005 — no swallowed exceptions
# ---------------------------------------------------------------------

_BROAD_EXCEPTIONS = ("Exception", "BaseException")


def _is_broad(handler_type: Optional[ast.expr]) -> bool:
    if handler_type is None:
        return True
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _BROAD_EXCEPTIONS
    if isinstance(handler_type, ast.Tuple):
        return any(_is_broad(element) for element in handler_type.elts)
    return False


def _is_noop_body(body: Sequence[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, (ast.Pass, ast.Continue)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare ``...``
        return False
    return True


@register(
    "RPR005",
    "swallowed-exception",
    "bare except clauses and broad do-nothing handlers hide worker "
    "failures the sweep outcomes must report",
)
def _check_swallowed_exceptions(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            line, col = _loc(node)
            yield line, col, (
                "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                "name the exception types"
            )
        elif _is_broad(node.type) and _is_noop_body(node.body):
            line, col = _loc(node)
            yield line, col, (
                "broad exception handler discards the failure; record it "
                "(the sweep runner must surface worker errors) or narrow "
                "the exception type"
            )


# ---------------------------------------------------------------------
# RPR006 — no mutable default arguments
# ---------------------------------------------------------------------

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CONSTRUCTORS = ("list", "dict", "set", "bytearray")


def _is_mutable_default(default: ast.expr) -> bool:
    if isinstance(default, _MUTABLE_LITERALS):
        return True
    return (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in _MUTABLE_CONSTRUCTORS
    )


@register(
    "RPR006",
    "mutable-default-argument",
    "mutable default arguments alias state across calls",
)
def _check_mutable_defaults(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    for node in ast.walk(file.tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                line, col = _loc(default)
                yield line, col, (
                    "mutable default argument is shared across calls; "
                    "default to None and build inside the function"
                )


# ---------------------------------------------------------------------
# RPR007 — the CLI routes through the facade
# ---------------------------------------------------------------------

CLI_MODULES = ("cli", "__main__")

#: What the CLI may import from the project: the public facade, the
#: serialization layer, the devtools pass itself, utilities, and the
#: observability report renderers.  Everything else (optimizer
#: implementations, reductions, the runner) must be reached through
#: ``repro.api`` so the facade stays the single compatibility surface.
CLI_ALLOWED_PREFIXES = (
    "repro.api",
    "repro.cli",  # ``__main__`` dispatches to the CLI module itself
    "repro.io",
    "repro.devtools",
    "repro.utils",
    "repro.observability",
    "repro.service",  # serve/request subcommands drive the daemon
)
_CLI_ALLOWED_TOP_NAMES = tuple(
    prefix.split(".", 1)[1] for prefix in CLI_ALLOWED_PREFIXES
)


@register(
    "RPR007",
    "cli-bypasses-facade",
    "CLI subcommands must route through repro.api (plus io/utils/"
    "observability/devtools), never core internals",
)
def _check_cli_routing(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if file.module not in CLI_MODULES:
        return
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or not alias.name.startswith(
                    "repro."
                ):
                    continue
                if not module_matches(alias.name, CLI_ALLOWED_PREFIXES):
                    line, col = _loc(node)
                    yield line, col, (
                        f"CLI imports internal module {alias.name!r}; "
                        "expose what it needs on repro.api instead"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro":
                for alias in node.names:
                    if alias.name not in _CLI_ALLOWED_TOP_NAMES:
                        line, col = _loc(node)
                        yield line, col, (
                            f"CLI imports repro.{alias.name}; "
                            "expose what it needs on repro.api instead"
                        )
            elif module.startswith("repro.") and not module_matches(
                module, CLI_ALLOWED_PREFIXES
            ):
                line, col = _loc(node)
                yield line, col, (
                    f"CLI imports internal module {module!r}; "
                    "expose what it needs on repro.api instead"
                )


# ---------------------------------------------------------------------
# RPR008 — benchmarks leave global state alone
# ---------------------------------------------------------------------

@register(
    "RPR008",
    "benchmark-global-mutation",
    "benchmarks must not mutate global state (module attributes, "
    "os.environ); EXP tables must be order-independent",
)
def _check_benchmark_globals(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if not file.is_benchmark:
        return
    imported: Set[str] = set()
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Global):
            line, col = _loc(node)
            yield line, col, (
                "global statement in a benchmark; pass state explicitly"
            )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in imported
                ):
                    line, col = _loc(target)
                    yield line, col, (
                        f"benchmark mutates imported name "
                        f"{target.value.id!r} ({target.value.id}."
                        f"{target.attr} = ...); benchmarks must be "
                        "side-effect free"
                    )
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "environ"
                ):
                    line, col = _loc(target)
                    yield line, col, (
                        "benchmark writes os.environ; environment "
                        "mutation leaks across EXP tables"
                    )


# ---------------------------------------------------------------------
# RPR009 — perf evaluators are cache-routed
# ---------------------------------------------------------------------

#: The evaluator modules must consult the active CostCache so sweeps
#: report exact cost_evaluations/cache_hits whichever path computed an
#: entry.  (Their exact-arithmetic discipline is ANA101's.)
PERF_CACHE_ROUTED_MODULES = ("perf.incremental", "perf.qoh")

CACHE_HOME = "repro.runtime.costcache"


@register(
    "RPR009",
    "perf-cache-routing",
    "perf evaluator modules must route evaluations through the active "
    "cost cache",
)
def _check_perf_cache_routing(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if file.module not in PERF_CACHE_ROUTED_MODULES:
        return
    routed = any(
        isinstance(node, ast.ImportFrom)
        and node.module == CACHE_HOME
        or (
            isinstance(node, ast.Import)
            and any(alias.name == CACHE_HOME for alias in node.names)
        )
        for node in ast.walk(file.tree)
    )
    if not routed:
        yield 1, 0, (
            f"evaluator module {file.module!r} never imports "
            f"{CACHE_HOME}; kernel evaluations must flow through "
            "the active CostCache so sweep metrics stay exact"
        )


# ---------------------------------------------------------------------
# RPR010 — fault injection is confined to the chaos layer
# ---------------------------------------------------------------------

#: The one module allowed to construct FaultPlan.  Tests construct
#: plans freely (the linter does not run over tests/), but production
#: code wiring a chaos schedule into a sweep would silently corrupt
#: experiment results — every such wiring point must live behind the
#: resilience module's API.
FAULT_PLAN_HOME = "runtime.resilience"


@register(
    "RPR010",
    "fault-plan-confined",
    "only repro.runtime.resilience may construct FaultPlan; production "
    "sweeps must never run with a chaos schedule installed",
)
def _check_fault_plan_confined(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if file.module == FAULT_PLAN_HOME:
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "FaultPlan":
            line, col = _loc(node)
            yield line, col, (
                "FaultPlan constructed outside repro.runtime.resilience; "
                "fault injection is a chaos-testing tool and must never "
                "be wired into production sweeps (pass plans built by "
                "test code through the resilience API instead)"
            )


# ---------------------------------------------------------------------
# RPR011 — the service invokes optimization only through repro.api
# ---------------------------------------------------------------------

#: The daemon package.  Its replies must be bit-identical to direct
#: ``repro.api`` calls, which only holds if every computation flows
#: through the same facade entry points — so service modules may not
#: import optimizers, reductions or the runner directly.
SERVICE_PACKAGE = ("service",)

#: What the service may import from the project: the facade (request
#: objects and ``execute_request``), itself, serialization, utilities,
#: and the observability layer for per-request span trees.
SERVICE_ALLOWED_PREFIXES = (
    "repro.api",
    "repro.service",
    "repro.io",
    "repro.utils",
    "repro.observability",
)
_SERVICE_ALLOWED_TOP_NAMES = tuple(
    prefix.split(".", 1)[1] for prefix in SERVICE_ALLOWED_PREFIXES
)


@register(
    "RPR011",
    "service-bypasses-api",
    "repro.service modules must invoke optimization through repro.api "
    "request objects, never optimizer/runner internals",
)
def _check_service_routing(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if not module_matches(file.module, SERVICE_PACKAGE):
        return
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or not alias.name.startswith(
                    "repro."
                ):
                    continue
                if not module_matches(
                    alias.name, SERVICE_ALLOWED_PREFIXES
                ):
                    line, col = _loc(node)
                    yield line, col, (
                        f"service imports internal module "
                        f"{alias.name!r}; route the computation through "
                        "repro.api request objects instead"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro":
                for alias in node.names:
                    if alias.name not in _SERVICE_ALLOWED_TOP_NAMES:
                        line, col = _loc(node)
                        yield line, col, (
                            f"service imports repro.{alias.name}; route "
                            "the computation through repro.api request "
                            "objects instead"
                        )
            elif module.startswith("repro.") and not module_matches(
                module, SERVICE_ALLOWED_PREFIXES
            ):
                line, col = _loc(node)
                yield line, col, (
                    f"service imports internal module {module!r}; route "
                    "the computation through repro.api request objects "
                    "instead"
                )


# ---------------------------------------------------------------------
# RPR012 — suppression comments must name real rules
# ---------------------------------------------------------------------


@register(
    "RPR012",
    "unknown-suppression-code",
    "# repro: noqa[...] must list known RPR/ANA rule codes",
)
def _check_unknown_suppression(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    """A typo'd suppression id is worse than none: the author walks
    away convinced a finding is silenced while the real code keeps
    firing (or, for a not-yet-triggered rule, *would* fire unseen).
    Validate every bracketed id against the code catalogue."""
    for line, col, code in listed_suppressions(file.lines):
        if code not in CODES:
            yield line, col, (
                f"unknown rule code {code!r} in a '# repro: noqa[...]' "
                "suppression; repro lint --list-rules lists the known "
                "RPR and ANA codes"
            )


# ---------------------------------------------------------------------
# RPR013 — instance registries are executor machinery
# ---------------------------------------------------------------------

#: The package allowed to construct InstanceRegistry: the sweep
#: executor (its parent side and pool initializers).  Anywhere else, a
#: private registry would fork the content-addressed store the
#: executor reasons about — ship-bytes accounting and
#: journal-fingerprint agreement both assume one registry per sweep
#: and per worker, owned by the runtime.  Callers hold
#: :class:`InstanceRef` keys, not registries.
REGISTRY_HOMES = ("runtime",)


@register(
    "RPR013",
    "registry-outside-runtime",
    "only repro.runtime may construct InstanceRegistry; other code "
    "must pass InstanceRef keys through the executor API",
)
def _check_registry_confined(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if module_matches(file.module, REGISTRY_HOMES):
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        # Catch classmethod constructors too: InstanceRegistry.from_payloads(...)
        constructs = name == "InstanceRegistry" or (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "InstanceRegistry"
        )
        if constructs:
            line, col = _loc(node)
            yield line, col, (
                "InstanceRegistry constructed outside repro.runtime; "
                "the executor owns instance registries (ship InstanceRef "
                "keys through run_sweep instead of building a private "
                "store)"
            )


# ---------------------------------------------------------------------
# RPR014 — telemetry goes through the observability API
# ---------------------------------------------------------------------

#: The instrumented layers.  Operational counters there must be
#: emitted through :mod:`repro.observability.metrics`, not accumulated
#: in ad-hoc module globals — a private ``_N_THINGS += 1`` is invisible
#: to ``repro top``, the exporter, and the service's counter-identity
#: check.
TELEMETRY_MODULES = ("runtime", "service", "perf")


@register(
    "RPR014",
    "ad-hoc-telemetry-counter",
    "runtime/service/perf code must emit operational counters through "
    "the MetricsRegistry API, not module-level globals",
)
def _check_adhoc_counters(
    file: SourceFile, project: Project
) -> Iterator[Finding]:
    if not module_matches(file.module, TELEMETRY_MODULES):
        return
    # Names bound at module level to an int literal: counter candidates.
    module_ints: Set[str] = set()
    for stmt in file.tree.body:
        targets: Sequence[ast.expr] = ()
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = (stmt.target,)
            value = stmt.value
        else:
            continue
        if not (
            isinstance(value, ast.Constant)
            and isinstance(value.value, int)
            and not isinstance(value.value, bool)
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                module_ints.add(target.id)
    if not module_ints:
        return
    for node in ast.walk(file.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared: Set[str] = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                declared.update(inner.names)
        if not (declared & module_ints):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.AugAssign):
                continue
            target = inner.target
            if not (
                isinstance(target, ast.Name)
                and target.id in declared
                and target.id in module_ints
            ):
                continue
            line, col = _loc(inner)
            yield line, col, (
                f"module-level counter {target.id!r} incremented in "
                f"{node.name}(); emit through the metrics registry "
                "(repro.observability.metrics.inc) so the counter is "
                "visible to repro top and the telemetry exporter"
            )


#: Every code ``repro lint`` reports, code -> (slug, one-line
#: description): the parse-error code, the per-file rules and the
#: whole-program ``ANA`` codes.  ``--select``, ``--list-rules`` and
#: ``RPR012`` all read this one table.
CODES: Dict[str, Tuple[str, str]] = dict(
    sorted(
        {
            PARSE_ERROR_CODE: (
                "parse-error",
                "file could not be parsed; always reported, never "
                "suppressed",
            ),
            **{code: (rule.name, rule.description)
               for code, rule in RULES.items()},
            **ANALYSIS_CODES,
        }.items()
    )
)
