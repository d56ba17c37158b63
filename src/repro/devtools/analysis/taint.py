"""Pass 2: interprocedural exactness taint.

The gap certificates only mean anything while every cost is computed
in exact arithmetic, so a ``float`` that leaks *through a call chain*
into a cost model, a perf kernel or a codec encode path is a
correctness bug even when no float literal appears in those modules.

Taint sources are float literals, ``float(...)`` conversions,
``math.*`` / ``time.*`` (and friends) calls or attributes, and true
division ``/`` whose operands are not known-``Fraction``.  Taint
propagates through assignments, container literals, comprehensions,
returns and project-internal calls via per-function summaries driven
to a monotone fixpoint over the call graph, so a float travels any
number of hops.  A function marked ``# repro: boundary[exactness]``
(or living in :data:`BOUNDARY_MODULES`, where float-domain math is
the point) is a declared boundary: its return is trusted clean and
its body is not analyzed as a sink.

Findings:

* ``ANA101`` — a float-tainted value is produced or returned inside a
  declared exact sink function; and, anywhere in a module of
  :data:`EXACT_SINK_MODULES` (module and class statements, decorators,
  defaults, nested and boundary functions included), a float literal,
  a ``float(...)`` call or a ``math`` import;
* ``ANA102`` — a float-tainted argument is passed into a declared
  exact sink function, from anywhere in the program.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.devtools.analysis.codes import rule_name
from repro.devtools.analysis.model import (
    CallTarget,
    ClassInfo,
    FunctionInfo,
    FunctionNode,
    ModuleInfo,
    ProjectModel,
    attr_chain,
)
from repro.devtools.diagnostics import Diagnostic

#: Modules whose every function is an exact sink (the paper's cost
#: recursions and the bit-identical perf kernels).
EXACT_SINK_MODULES = (
    "joinopt.cost",
    "hashjoin.cost_model",
    "starqo.cost",
    "perf.kernels",
    "perf.incremental",
    "perf.qoh",
)

#: Modules whose encode-side functions are exact sinks: the codecs
#: serialize costs as exact ``"num/den"`` strings, so a float reaching
#: an encoder has already corrupted the payload.
_ENCODE_MODULES = ("io", "core.requests")

#: Modules that are declared boundaries wholesale: ``utils.lognum``
#: is the project's audited log-domain representation (float-domain
#: helpers belong there by design) and ``utils.rng`` is the audited
#: seeded-randomness provider (the RNG objects it hands out are not
#: cost values).
BOUNDARY_MODULES = ("utils.lognum", "utils.rng")

#: External modules whose calls/attributes produce floats.  ``random``
#: is absent deliberately: RPR002 already confines it to
#: ``utils.rng``, and ``random.Random(seed)`` returns an RNG object,
#: not a float.
_FLOAT_MODULES = frozenset({"math", "cmath", "time", "statistics"})

#: Builtins whose result is float regardless of arguments.
_FLOAT_BUILTINS = frozenset({"float", "complex"})

#: Builtins that forward their arguments' taint.
_PROPAGATING_BUILTINS = frozenset(
    {
        "abs", "dict", "divmod", "enumerate", "filter", "frozenset",
        "iter", "list", "map", "max", "min", "next", "pow", "reversed",
        "round", "set", "sorted", "sum", "tuple", "zip",
    }
)

#: Names that construct exact rational values.
_FRACTION_CTORS = frozenset({"Fraction", "fractions.Fraction"})


@dataclass(frozen=True)
class TaintValue:
    """Abstract value: float-tainted? depends on params? known-Fraction?"""

    floaty: bool = False
    params: FrozenSet[int] = frozenset()
    fraction: bool = False


CLEAN = TaintValue()


def _join(a: TaintValue, b: TaintValue) -> TaintValue:
    return TaintValue(
        floaty=a.floaty or b.floaty,
        params=a.params | b.params,
        fraction=a.fraction or b.fraction,
    )


def _join_all(values: Sequence[TaintValue]) -> TaintValue:
    out = CLEAN
    for value in values:
        out = _join(out, value)
    return out


def is_exact_sink(fn: FunctionInfo) -> bool:
    """True when ``fn`` is a declared exact sink."""
    if fn.module in EXACT_SINK_MODULES:
        return True
    if fn.module in _ENCODE_MODULES:
        return (
            fn.name in ("dumps", "save", "to_dict")
            or "encode" in fn.name
            or fn.name.endswith("_to_dict")
        )
    return False


def _annotation_is_fraction(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Fraction"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Fraction"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "Fraction"
    return False


class TaintAnalysis:
    """Whole-program taint state: summaries + module-constant taints."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.summaries: Dict[str, TaintValue] = {
            fn.key: CLEAN for fn in model.functions
        }
        self._consts: Dict[str, TaintValue] = {}

    def is_boundary(self, fn: FunctionInfo) -> bool:
        return fn.boundary or fn.module in BOUNDARY_MODULES

    def run_fixpoint(self) -> None:
        for _round in range(len(self.model.functions) + 2):
            changed = False
            for fn in self.model.functions:
                if self.is_boundary(fn):
                    continue
                new = _join(
                    self.summaries[fn.key], _FunctionAnalyzer(self, fn).run()
                )
                if new != self.summaries[fn.key]:
                    self.summaries[fn.key] = new
                    changed = True
            if not changed:
                break

    def const_taint(self, module_name: str, name: str) -> TaintValue:
        key = f"{module_name}:{name}"
        if key not in self._consts:
            self._consts[key] = CLEAN  # break reference cycles
            module = self.model.modules.get(module_name)
            if module is not None and name in module.constants:
                evaluator = _Evaluator(self, module, None, {})
                self._consts[key] = evaluator.eval(module.constants[name])
        return self._consts[key]


class _Evaluator:
    """Evaluates expression taint in one function's environment."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        env: Dict[str, TaintValue],
    ) -> None:
        self.analysis = analysis
        self.module = module
        self.cls = cls
        self.env = env

    def eval(self, node: ast.expr) -> TaintValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, float):
                return TaintValue(floaty=True)
            return CLEAN
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self._resolved_taint(
                self.analysis.model.resolve_name(self.module, node.id)
            )
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.BoolOp):
            return _join_all([self.eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return CLEAN
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            return CLEAN
        if isinstance(node, ast.IfExp):
            return _join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _join_all([self.eval(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            return _join_all(
                [self.eval(v) for v in node.values]
                + [self.eval(k) for k in node.keys if k is not None]
            )
        if isinstance(node, ast.Subscript):
            return self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = _join(
                    self.env.get(node.target.id, CLEAN), value
                )
            return value
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._bind_comprehensions(node.generators)
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            self._bind_comprehensions(node.generators)
            return _join(self.eval(node.key), self.eval(node.value))
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            return self.eval(node.value) if node.value is not None else CLEAN
        if isinstance(node, ast.YieldFrom):
            return self.eval(node.value)
        return CLEAN

    def _bind_comprehensions(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for comp in generators:
            iter_taint = self.eval(comp.iter)
            self._assign_target(comp.target, iter_taint)

    def _assign_target(self, target: ast.expr, value: TaintValue) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _join(self.env.get(target.id, CLEAN), value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, value)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, value)
        # Attribute / Subscript stores are not tracked.

    def _eval_attribute(self, node: ast.Attribute) -> TaintValue:
        chain = attr_chain(node)
        if chain is None or chain[0] == "self":
            return CLEAN
        head = chain[0]
        if head in self.env:
            return self.env[head]
        if head in self.module.imports:
            base = self.module.imports[head]
            tail = chain[1:]
            dotted = ".".join([base] + tail) if base else ".".join(tail)
            return self._resolved_taint(
                self.analysis.model.resolve_dotted(dotted)
            )
        return CLEAN

    def _resolved_taint(self, target: CallTarget) -> TaintValue:
        """Taint of a resolved *value* reference (not a call)."""
        if target.kind == "constant":
            return self.analysis.const_taint(target.module_name, target.attr)
        if target.kind == "external":
            head = target.dotted.split(".", 1)[0]
            if head in _FLOAT_MODULES and "." in target.dotted:
                return TaintValue(floaty=True)  # e.g. math.pi
        return CLEAN

    def _eval_binop(self, node: ast.BinOp) -> TaintValue:
        left = self.eval(node.left)
        right = self.eval(node.right)
        joined = _join(left, right)
        if isinstance(node.op, ast.Div):
            if left.fraction or right.fraction:
                return joined
            if self._non_numeric(node.left) or self._non_numeric(node.right):
                return joined  # pathlib's ``/`` etc., not a float source
            return TaintValue(
                floaty=True, params=joined.params, fraction=False
            )
        return joined

    @staticmethod
    def _non_numeric(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (str, bytes)
        )

    def eval_call(self, node: ast.Call) -> TaintValue:
        argvals = [self.eval(arg) for arg in node.args]
        kwvals = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        target = self.analysis.model.resolve_call(
            self.module, node.func, self.cls
        )
        if target.kind == "function":
            assert target.function is not None
            return self._eval_project_call(
                node, target.function, argvals, kwvals
            )
        if target.kind == "external":
            dotted = target.dotted
            head = dotted.split(".", 1)[0]
            if head in _FLOAT_MODULES:
                return TaintValue(floaty=True)
            if dotted in _FLOAT_BUILTINS:
                return TaintValue(floaty=True)
            if dotted in _FRACTION_CTORS:
                return TaintValue(fraction=True)
            if dotted in _PROPAGATING_BUILTINS:
                return _join_all(argvals + list(kwvals.values()))
        # Classes, methods on arbitrary objects and unresolved callables
        # are trusted clean (optimistic).
        return CLEAN

    def _eval_project_call(
        self,
        node: ast.Call,
        fn: FunctionInfo,
        argvals: Sequence[TaintValue],
        kwvals: Dict[str, TaintValue],
    ) -> TaintValue:
        if self.analysis.is_boundary(fn):
            return CLEAN
        summary = self.analysis.summaries[fn.key]
        floaty = summary.floaty
        params: Set[int] = set()
        offset = (
            1
            if fn.class_name is not None and isinstance(node.func, ast.Attribute)
            else 0
        )
        for index in summary.params:
            value: Optional[TaintValue] = None
            position = index - offset
            if 0 <= position < len(argvals):
                value = argvals[position]
            elif index < len(fn.params) and fn.params[index] in kwvals:
                value = kwvals[fn.params[index]]
            if value is not None:
                floaty = floaty or value.floaty
                params |= value.params
        return TaintValue(
            floaty=floaty, params=frozenset(params), fraction=summary.fraction
        )


class _FunctionAnalyzer:
    """Intraprocedural flow for one function (weak updates, two passes)."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        module = analysis.model.modules[fn.module]
        cls = module.classes.get(fn.class_name) if fn.class_name else None
        env: Dict[str, TaintValue] = {}
        args = fn.node.args
        annotated = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        )
        for index, arg in enumerate(annotated):
            env[arg.arg] = TaintValue(
                params=frozenset({index}),
                fraction=_annotation_is_fraction(arg.annotation),
            )
        self.evaluator = _Evaluator(analysis, module, cls, env)
        self.returns: List[TaintValue] = []

    def run(self) -> TaintValue:
        for _pass in range(2):
            self.returns = []
            for stmt in self.fn.node.body:
                self._flow(stmt)
        summary = _join_all(self.returns)
        if _annotation_is_fraction(self.fn.node.returns):
            summary = _join(summary, TaintValue(fraction=True))
        return summary

    def _flow(self, stmt: ast.stmt) -> None:
        ev = self.evaluator
        if isinstance(stmt, ast.Assign):
            value = ev.eval(stmt.value)
            for target in stmt.targets:
                ev._assign_target(target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                ev._assign_target(stmt.target, ev.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            ev._assign_target(stmt.target, ev.eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns.append(ev.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            ev.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            ev._assign_target(stmt.target, ev.eval(stmt.iter))
            self._flow_all(stmt.body)
            self._flow_all(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._flow_all(stmt.body)
            self._flow_all(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._flow_all(stmt.body)
            self._flow_all(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = ev.eval(item.context_expr)
                if item.optional_vars is not None:
                    ev._assign_target(item.optional_vars, value)
            self._flow_all(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._flow_all(stmt.body)
            for handler in stmt.handlers:
                self._flow_all(handler.body)
            self._flow_all(stmt.orelse)
            self._flow_all(stmt.finalbody)
        elif isinstance(stmt, ast.Match):
            for case in stmt.cases:
                self._flow_all(case.body)
        # Nested defs/classes and simple statements carry no flow.

    def _flow_all(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._flow(stmt)


def _walk_without_nested_defs(node: FunctionNode) -> List[ast.AST]:
    """All nodes of ``node``'s body, not descending into nested defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(node.body)
    while stack:
        cur = stack.pop()
        if isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        out.append(cur)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def run_taint(model: ProjectModel) -> List[Diagnostic]:
    """Run the taint pass over one project model."""
    analysis = TaintAnalysis(model)
    analysis.run_fixpoint()
    diagnostics: List[Diagnostic] = []
    for fn in model.functions:
        if analysis.is_boundary(fn):
            continue
        runner = _FunctionAnalyzer(analysis, fn)
        runner.run()
        ev = runner.evaluator
        nodes = _walk_without_nested_defs(fn.node)
        diagnostics.extend(_sink_argument_findings(analysis, fn, ev, nodes))
        if is_exact_sink(fn):
            diagnostics.extend(_sink_body_findings(fn, ev, nodes))
    for module in model.modules.values():
        if module.name in EXACT_SINK_MODULES:
            diagnostics.extend(_module_findings(module, diagnostics))
    return diagnostics


def _module_findings(
    module: ModuleInfo, body_findings: Sequence[Diagnostic]
) -> List[Diagnostic]:
    """Float sources anywhere in an exact module, as ``ANA101``.

    The function-body analysis sees neither module or class statements,
    decorators and defaults, nor nested or boundary functions; this
    walk does.  A spot a body finding already reports is skipped, so
    each source is one finding.
    """
    path = str(module.file.path)
    covered = {
        (d.line, d.col)
        for d in body_findings
        if d.path == path and d.code == "ANA101"
    }
    found: List[Diagnostic] = []
    for node in ast.walk(module.file.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            source = f"float literal {node.value!r}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            source = "float(...) conversion"
        elif (
            isinstance(node, ast.Import)
            and any(alias.name == "math" for alias in node.names)
        ) or (isinstance(node, ast.ImportFrom) and node.module == "math"):
            source = "math import"
        else:
            continue
        if (node.lineno, node.col_offset) in covered:
            continue
        found.append(Diagnostic(
            path=path,
            line=node.lineno,
            col=node.col_offset,
            code="ANA101",
            rule=rule_name("ANA101"),
            message=(
                f"{source} in exact module '{module.name}'; use int, "
                "Fraction or LogNumber (float-domain helpers belong in "
                "repro.utils.lognum)"
            ),
        ))
    return found


def _diag(
    fn: FunctionInfo, node: ast.AST, code: str, message: str
) -> Diagnostic:
    return Diagnostic(
        path=str(fn.path),
        line=getattr(node, "lineno", fn.node.lineno),
        col=getattr(node, "col_offset", 0),
        code=code,
        rule=rule_name(code),
        message=message,
    )


def _sink_argument_findings(
    analysis: TaintAnalysis,
    fn: FunctionInfo,
    ev: _Evaluator,
    nodes: Sequence[ast.AST],
) -> List[Diagnostic]:
    found: List[Diagnostic] = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        target = analysis.model.resolve_call(ev.module, node.func, ev.cls)
        if target.kind != "function":
            continue
        callee = target.function
        assert callee is not None
        if not is_exact_sink(callee) or analysis.is_boundary(callee):
            continue
        offset = (
            1
            if callee.class_name is not None
            and isinstance(node.func, ast.Attribute)
            else 0
        )
        for position, arg in enumerate(node.args):
            if ev.eval(arg).floaty:
                index = position + offset
                param = (
                    callee.params[index]
                    if index < len(callee.params)
                    else f"#{position}"
                )
                found.append(_diag(
                    fn, arg, "ANA102",
                    f"float-tainted argument for parameter '{param}' of "
                    f"exact sink '{callee.module}.{callee.qualname}'; "
                    "convert to int/Fraction/LogNumber first or route "
                    "through a '# repro: boundary[exactness]' function",
                ))
        for keyword in node.keywords:
            if keyword.arg is not None and ev.eval(keyword.value).floaty:
                found.append(_diag(
                    fn, keyword.value, "ANA102",
                    f"float-tainted argument for parameter "
                    f"'{keyword.arg}' of exact sink "
                    f"'{callee.module}.{callee.qualname}'; convert to "
                    "int/Fraction/LogNumber first or route through a "
                    "'# repro: boundary[exactness]' function",
                ))
    return found


def _sink_body_findings(
    fn: FunctionInfo, ev: _Evaluator, nodes: Sequence[ast.AST]
) -> List[Diagnostic]:
    sink = f"exact sink '{fn.module}.{fn.qualname}'"
    candidates: Dict[int, Tuple[ast.AST, str]] = {}
    for node in nodes:
        if isinstance(node, ast.Call) and ev.eval(node).floaty:
            candidates[id(node)] = (node, (
                f"call result is float-tainted inside {sink}; the callee "
                "must stay exact or be declared a "
                "'# repro: boundary[exactness]'"
            ))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left, right = ev.eval(node.left), ev.eval(node.right)
            if not (left.fraction or right.fraction) and not (
                ev._non_numeric(node.left) or ev._non_numeric(node.right)
            ):
                candidates[id(node)] = (node, (
                    f"true division on non-Fraction operands inside {sink} "
                    "produces a float; use Fraction or integer arithmetic"
                ))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            candidates[id(node)] = (node, (
                f"float literal {node.value!r} inside {sink}"
            ))
    # Keep only the innermost tainted nodes: an outer call tainted by
    # an inner source would otherwise double-report.
    minimal: List[Diagnostic] = []
    for node, message in candidates.values():
        if any(
            id(child) in candidates
            for child in ast.walk(node)
            if child is not node
        ):
            continue
        minimal.append(_diag(fn, node, "ANA101", message))
    covered = {(d.line, d.col) for d in minimal}
    for node in nodes:
        if isinstance(node, ast.Return) and node.value is not None:
            if ev.eval(node.value).floaty and not any(
                id(sub) in candidates for sub in ast.walk(node)
            ):
                loc = (node.lineno, node.col_offset)
                if loc not in covered:
                    minimal.append(_diag(
                        fn, node, "ANA101",
                        f"returned value is float-tainted inside {sink} "
                        "(taint assigned earlier in this function)",
                    ))
    return minimal
