"""``# repro: noqa`` suppression comments.

A diagnostic is suppressed when its line carries a project noqa
comment:

* ``# repro: noqa`` — suppress every rule on that line;
* ``# repro: noqa[RPR002]`` / ``# repro: noqa[RPR002,ANA101]`` —
  suppress only the listed codes.

Plain flake8-style ``# noqa`` is deliberately *not* honoured: the
project pass and the general-purpose linters must be silenceable
independently, so a blanket ``# noqa`` cannot hide an invariant
violation.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterator, Sequence, Tuple

from repro.devtools.diagnostics import Diagnostic

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9,\s]*)\])?"
)

#: Sentinel meaning "every code is suppressed on this line".
ALL_CODES: FrozenSet[str] = frozenset({"*"})


def suppression_map(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the set of codes suppressed there.

    The value is :data:`ALL_CODES` for a bare ``# repro: noqa`` and a
    frozenset of upper-cased codes for the bracketed form.  An empty
    bracket list (``noqa[]``) suppresses nothing.
    """
    suppressed: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "noqa" not in text:  # cheap pre-filter
            continue
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[number] = ALL_CODES
        else:
            listed = frozenset(
                part.strip().upper()
                for part in codes.split(",")
                if part.strip()
            )
            if listed:
                suppressed[number] = listed
    return suppressed


def listed_suppressions(
    lines: Sequence[str],
) -> Iterator[Tuple[int, int, str]]:
    """``(line, col, CODE)`` for every bracketed suppression id.

    Rule ``RPR012`` validates these against the known RPR + ANA codes:
    a typo'd id (``noqa[RPR02]``) used to be silently ignored, leaving
    the author convinced a finding was suppressed when it was not.
    """
    for number, text in enumerate(lines, start=1):
        if "noqa" not in text:  # cheap pre-filter
            continue
        match = _NOQA_RE.search(text)
        if match is None or match.group("codes") is None:
            continue
        for part in match.group("codes").split(","):
            code = part.strip().upper()
            if code:
                yield number, match.start(), code


def is_suppressed(
    diagnostic: Diagnostic, suppressed: Dict[int, FrozenSet[str]]
) -> bool:
    """True when the diagnostic's line carries a matching suppression."""
    codes = suppressed.get(diagnostic.line)
    if codes is None:
        return False
    return codes is ALL_CODES or diagnostic.code in codes
