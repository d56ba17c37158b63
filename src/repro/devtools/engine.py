"""The ``repro lint`` driver: file collection, per-file rules and
whole-program passes."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.devtools.analysis.codes import ANALYSIS_CODES
from repro.devtools.analysis.locks import run_locks
from repro.devtools.analysis.model import ProjectModel
from repro.devtools.analysis.schemas import run_schemas
from repro.devtools.analysis.taint import run_taint
from repro.devtools.diagnostics import PARSE_ERROR_CODE, Diagnostic
from repro.devtools.noqa import is_suppressed, suppression_map
from repro.devtools.project import Project, SourceFile, classify
from repro.devtools.rules import CODES, RULES

PathLike = Union[str, Path]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", "results", ".git", ".hypothesis"}


def collect_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directories are walked recursively for ``*.py``; hidden directories,
    caches and ``*.egg-info`` trees below them are skipped.  Missing
    paths raise ``FileNotFoundError`` — a typo'd path must fail the
    build, not lint zero files successfully.
    """
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if any(
                    part in _SKIP_DIRS
                    or part.startswith(".")
                    or part.endswith(".egg-info")
                    for part in found.relative_to(path).parts
                ):
                    continue
                seen.setdefault(found, None)
        elif path.is_file():
            seen.setdefault(path, None)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


@dataclass(frozen=True)
class LintReport:
    """Everything one lint run produced."""

    files_checked: int
    diagnostics: Tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def counts(self) -> Dict[str, int]:
        """Diagnostic count per code, sorted by code."""
        totals: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            totals[diagnostic.code] = totals.get(diagnostic.code, 0) + 1
        return dict(sorted(totals.items()))


def _select_codes(select: Optional[Iterable[str]]) -> FrozenSet[str]:
    if select is None:
        return frozenset(CODES)
    chosen: Set[str] = set()
    for code in select:
        normalized = code.strip().upper()
        if normalized not in CODES:
            raise ValueError(
                f"unknown rule code {code!r}; known: {sorted(CODES)}"
            )
        chosen.add(normalized)
    return frozenset(chosen)


def _parse(path: Path) -> Union[SourceFile, Diagnostic]:
    """The classified file, or its ``RPR000`` finding."""
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return Diagnostic(
            path=str(path),
            line=int(line),
            col=0,
            code=PARSE_ERROR_CODE,
            rule=CODES[PARSE_ERROR_CODE][0],
            message=f"cannot lint file: {exc}",
        )
    return classify(path, source, tree)


def _pass_findings(linted: Sequence[SourceFile]) -> List[Diagnostic]:
    """The whole-program findings that fall in ``linted``.

    One model per ``repro`` package root holds every file under that
    root, linted or not, so a fact that lives in another module (a
    schema's validator, a callee's taint) is seen however few files
    were named.  Unlinted files are parsed only for the model; one
    that cannot be parsed is left out of it.
    """
    by_path = {file.path.resolve(): file for file in linted}
    roots = sorted({
        file.package_root for file in linted if file.package_root is not None
    })
    diagnostics: List[Diagnostic] = []
    for root in roots:
        members: List[SourceFile] = []
        for path in collect_files([root]):
            member = by_path.get(path.resolve()) or _parse(path)
            if isinstance(member, SourceFile) and member.package_root == root:
                members.append(member)
        model = ProjectModel(members)
        diagnostics.extend(run_taint(model))
        diagnostics.extend(run_locks(model))
        diagnostics.extend(run_schemas(model))
    reported = {str(file.path) for file in linted}
    return [d for d in diagnostics if d.path in reported]


def lint_paths(
    paths: Sequence[PathLike],
    select: Optional[Iterable[str]] = None,
) -> LintReport:
    """Check every Python file under ``paths``.

    Each file is parsed once and run through the per-file ``RPR``
    rules; files inside a ``repro`` package also get the whole-program
    ``ANA`` passes.  ``select`` restricts the report to the given
    ``RPR``/``ANA`` codes (default: all).  A file that cannot be parsed
    yields an ``RPR000`` finding — parse errors are findings, not
    crashes — which can be neither suppressed nor deselected.
    """
    selected = _select_codes(select)
    files = collect_files(paths)
    parsed: List[SourceFile] = []
    errors: List[Diagnostic] = []
    for path in files:
        result = _parse(path)
        if isinstance(result, SourceFile):
            parsed.append(result)
        else:
            errors.append(result)
    rules = [RULES[code] for code in sorted(selected & RULES.keys())]
    project = Project()
    findings: List[Diagnostic] = []
    for file in parsed:
        for rule in rules:
            findings.extend(rule.run(file, project))
    if selected & ANALYSIS_CODES.keys():
        findings.extend(_pass_findings(parsed))
    suppressions = {
        str(file.path): suppression_map(file.lines) for file in parsed
    }
    kept = [
        diagnostic
        for diagnostic in findings
        if diagnostic.code in selected
        and not is_suppressed(diagnostic, suppressions[diagnostic.path])
    ]
    return LintReport(
        files_checked=len(files),
        diagnostics=tuple(sorted(kept + errors)),
    )
