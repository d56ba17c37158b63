"""The diagnostic record every rule and pass emits."""

from __future__ import annotations

from dataclasses import dataclass

#: Code reserved for files the checker cannot parse at all.
PARSE_ERROR_CODE = "RPR000"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line:col: CODE message``.

    Ordering is lexicographic on ``(path, line, col, code)`` so reports
    are deterministic regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def render(self) -> str:
        """The one-line human-readable form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
