"""The text report and the code listing of ``repro lint``."""

from __future__ import annotations

from typing import List

from repro.devtools.engine import LintReport
from repro.devtools.rules import CODES


def render_text(report: LintReport) -> str:
    """One ``path:line:col: CODE message`` line per finding + summary."""
    lines = [diagnostic.render() for diagnostic in report.diagnostics]
    if report.ok:
        lines.append(
            f"{report.files_checked} files checked: no invariant violations"
        )
    else:
        counts = ", ".join(
            f"{code} x{count}" for code, count in report.counts().items()
        )
        lines.append(
            f"{report.files_checked} files checked: "
            f"{len(report.diagnostics)} violation"
            f"{'s' if len(report.diagnostics) != 1 else ''} ({counts})"
        )
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list-rules`` table: code, slug, one-line description."""
    lines: List[str] = []
    for code, (name, description) in CODES.items():
        lines.append(f"{code}  {name}")
        lines.append(f"       {description}")
    return "\n".join(lines)
