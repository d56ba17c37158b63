"""The shared whole-program model the analysis passes run over.

Where the lint rules look at one file at a time, the analyzer passes
need the *program*: which dotted module a file is, what every local
name is bound to (local def, class, import, module constant), which
project function a call site resolves to, and which ``self._*``
attributes a class owns.  :class:`ProjectModel` builds all of that
once per ``repro`` package root from the already-parsed
:class:`~repro.devtools.project.SourceFile` records; the taint, lock
and schema passes share the one model.

Resolution is deliberately static and best-effort: a name the model
cannot resolve is an *external* target, and the passes treat external
calls optimistically (no taint, no sink).  That keeps the analyzer
free of false positives from dynamic dispatch at the cost of missing
taint routed through callbacks — the right trade for a gating CI
check.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.devtools.project import SourceFile

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``# repro: boundary[exactness]`` on a ``def`` (or its decorator /
#: signature lines) declares an audited exactness boundary: the taint
#: pass treats the function's return as clean and does not analyze its
#: body as a sink.
_BOUNDARY_RE = re.compile(
    r"#\s*repro:\s*boundary(?:\[(?P<tags>[A-Za-z0-9,\s_-]*)\])?"
)

#: Constructor names that produce lock-like objects.
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


@dataclass(frozen=True)
class FunctionInfo:
    """One top-level function or method of the analyzed program."""

    module: str
    qualname: str
    name: str
    class_name: Optional[str]
    node: FunctionNode
    path: Path
    boundary: bool
    params: Tuple[str, ...]

    @property
    def key(self) -> str:
        """Stable summary-table key."""
        return f"{self.module}:{self.qualname}"


@dataclass
class ClassInfo:
    """One class: its methods and the lock attributes it owns.

    ``lock_attrs`` contains every ``self`` attribute that *is* a lock
    for discipline purposes: ``threading.Lock()`` / ``RLock()``
    assignments, attributes named ``_lock`` / ``*_lock``, and —
    crucially — ``threading.Condition(self._lock)`` aliases, which
    acquire the underlying lock when entered.
    """

    module: str
    name: str
    node: ast.ClassDef
    path: Path
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One module: its file plus the name-binding tables."""

    name: str
    file: SourceFile
    #: local name -> dotted target ("utils.rng.make_rng", "math",
    #: "fractions.Fraction"); project-internal targets are relative to
    #: the ``repro`` package.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level ``NAME = <expr>`` assignments.
    constants: Dict[str, ast.expr] = field(default_factory=dict)


@dataclass(frozen=True)
class CallTarget:
    """What a call/name site resolves to."""

    kind: str  # "function" | "class" | "constant" | "external" | "unknown"
    dotted: str = ""
    function: Optional[FunctionInfo] = None
    cls: Optional[ClassInfo] = None
    module_name: str = ""
    attr: str = ""


_UNKNOWN = CallTarget(kind="unknown")


def _strip_package(dotted: str) -> str:
    """Make project-internal dotted names package-relative."""
    if dotted == "repro":
        return ""
    if dotted.startswith("repro."):
        return dotted[len("repro."):]
    return dotted


def attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name bases."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return parts
    return None


def _has_boundary_comment(file: SourceFile, node: FunctionNode) -> bool:
    start = node.lineno
    if node.decorator_list:
        start = min(start, node.decorator_list[0].lineno)
    stop = node.body[0].lineno if node.body else node.lineno + 1
    for lineno in range(start, stop):
        if 1 <= lineno <= len(file.lines):
            if _BOUNDARY_RE.search(file.lines[lineno - 1]):
                return True
    return False


def _is_lock_ctor(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in _LOCK_CTORS
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_CTORS
    return False


def _self_attr_assignments(node: ast.ClassDef) -> List[Tuple[str, ast.expr]]:
    """Every ``self.X = <expr>`` in the class body, in source order."""
    found: List[Tuple[str, ast.expr]] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign):
            continue
        for target in sub.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                found.append((target.attr, sub.value))
    return found


def _lock_attrs_of(node: ast.ClassDef) -> Set[str]:
    assignments = _self_attr_assignments(node)
    locks: Set[str] = {
        attr
        for attr, value in assignments
        if _is_lock_ctor(value) or attr == "_lock" or attr.endswith("_lock")
    }
    # Fixpoint over Condition(self.X) aliases of already-known locks.
    changed = True
    while changed:
        changed = False
        for attr, value in assignments:
            if attr in locks or not _is_lock_ctor(value):
                continue
            call = value
            assert isinstance(call, ast.Call)
            for arg in call.args:
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                    and arg.attr in locks
                ):
                    locks.add(attr)
                    changed = True
    return locks


def _param_names(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs]
    names.extend(a.arg for a in args.args)
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


class ProjectModel:
    """Name-resolved view of one ``repro`` package tree."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: List[FunctionInfo] = []
        for file in files:
            if file.package_root is None:
                continue
            self.modules[file.module] = self._build_module(file)
        for module in self.modules.values():
            self.functions.extend(module.functions.values())
            for cls in module.classes.values():
                self.functions.extend(cls.methods.values())

    # -- construction -------------------------------------------------

    def _build_module(self, file: SourceFile) -> ModuleInfo:
        info = ModuleInfo(name=file.module, file=file)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        info.imports[alias.asname] = _strip_package(alias.name)
                    else:
                        head = alias.name.split(".", 1)[0]
                        info.imports[head] = _strip_package(head)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(file, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    dotted = f"{base}.{alias.name}" if base else alias.name
                    info.imports[local] = dotted
        for node in file.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = self._build_function(
                    file, node, class_name=None
                )
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = self._build_class(file, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.constants[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    info.constants[node.target.id] = node.value
        return info

    def _import_base(self, file: SourceFile, node: ast.ImportFrom) -> str:
        if not node.level:
            return _strip_package(node.module or "")
        parts = file.module.split(".") if file.module else []
        if file.path.stem != "__init__" and parts:
            parts = parts[:-1]
        if node.level > 1:
            parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)

    def _build_function(
        self,
        file: SourceFile,
        node: FunctionNode,
        class_name: Optional[str],
    ) -> FunctionInfo:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        return FunctionInfo(
            module=file.module,
            qualname=qualname,
            name=node.name,
            class_name=class_name,
            node=node,
            path=file.path,
            boundary=_has_boundary_comment(file, node),
            params=_param_names(node),
        )

    def _build_class(self, file: SourceFile, node: ast.ClassDef) -> ClassInfo:
        cls = ClassInfo(
            module=file.module,
            name=node.name,
            node=node,
            path=file.path,
            lock_attrs=_lock_attrs_of(node),
        )
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[sub.name] = self._build_function(
                    file, sub, class_name=node.name
                )
        return cls

    # -- resolution ---------------------------------------------------

    def resolve_dotted(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> CallTarget:
        """Resolve a package-relative dotted name to its definition.

        Chases one-level re-exports (``from repro.x.y import f`` inside
        ``repro/x/__init__.py``) with a visited set so import cycles
        terminate as external targets.
        """
        if not dotted:
            return _UNKNOWN
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return CallTarget(kind="external", dotted=dotted)
        seen.add(dotted)
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate not in self.modules:
                continue
            module = self.modules[candidate]
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in module.functions:
                    return CallTarget(
                        kind="function", function=module.functions[name]
                    )
                if name in module.classes:
                    return CallTarget(kind="class", cls=module.classes[name])
                if name in module.constants:
                    return CallTarget(
                        kind="constant", module_name=candidate, attr=name
                    )
                if name in module.imports:
                    return self.resolve_dotted(module.imports[name], seen)
            elif len(rest) == 2 and rest[0] in module.classes:
                cls = module.classes[rest[0]]
                method = cls.methods.get(rest[1])
                if method is not None:
                    return CallTarget(kind="function", function=method)
            break
        return CallTarget(kind="external", dotted=dotted)

    def resolve_name(self, module: ModuleInfo, name: str) -> CallTarget:
        """Resolve a bare name in ``module``'s namespace."""
        if name in module.functions:
            return CallTarget(kind="function", function=module.functions[name])
        if name in module.classes:
            return CallTarget(kind="class", cls=module.classes[name])
        if name in module.constants:
            return CallTarget(
                kind="constant", module_name=module.name, attr=name
            )
        if name in module.imports:
            return self.resolve_dotted(module.imports[name])
        return CallTarget(kind="external", dotted=name)

    def resolve_call(
        self,
        module: ModuleInfo,
        func: ast.expr,
        enclosing_class: Optional[ClassInfo],
    ) -> CallTarget:
        """Resolve the callee expression of a call site."""
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id)
        if isinstance(func, ast.Attribute):
            chain = attr_chain(func)
            if chain is None:
                return _UNKNOWN
            if chain[0] == "self":
                if enclosing_class is not None and len(chain) == 2:
                    method = enclosing_class.methods.get(chain[1])
                    if method is not None:
                        return CallTarget(kind="function", function=method)
                return _UNKNOWN
            head = chain[0]
            if head not in module.imports:
                # A local, parameter or builtin: a method on a value,
                # never a module function, whatever the value's name.
                return _UNKNOWN
            base = module.imports[head]
            tail = chain[1:]
            dotted = ".".join([base] + tail) if base else ".".join(tail)
            return self.resolve_dotted(dotted)
        return _UNKNOWN
