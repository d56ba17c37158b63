"""The whole-program finding codes (``ANA...``) and their catalogue.

Kept dependency-free so :mod:`repro.devtools.rules` can merge the
table into the one code catalogue (rule ``RPR012`` validates
``# repro: noqa[...]`` ids against it) without an import cycle.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Code -> (slug, one-line description), in code order.
ANALYSIS_CODES: Dict[str, Tuple[str, str]] = {
    "ANA101": (
        "tainted-value-in-exact-sink",
        "a float-tainted value is produced or returned inside a "
        "declared exact sink (cost models, perf kernels, codec encode "
        "paths), or a float literal, float(...) call or math import "
        "appears anywhere in a cost-model or perf-kernel module",
    ),
    "ANA102": (
        "tainted-argument-to-exact-sink",
        "a float-tainted value is passed as an argument into a "
        "declared exact sink function",
    ),
    "ANA201": (
        "unguarded-attribute-access",
        "an attribute written under 'with self._lock' is accessed "
        "without holding the lock",
    ),
    "ANA301": (
        "schema-missing-validator",
        "a 'repro.<name>/<v>' schema string has no registered "
        "validator (validate*/load*/read*/from_* function)",
    ),
    "ANA302": (
        "schema-never-emitted",
        "a 'repro.<name>/<v>' schema string is never emitted into a "
        "payload (dict value or tuple/list element)",
    ),
    "ANA303": (
        "schema-never-consumed",
        "a 'repro.<name>/<v>' schema string is never compared against "
        "an incoming payload",
    ),
}


def rule_name(code: str) -> str:
    """The slug for ``code`` (raises ``KeyError`` for unknown codes)."""
    return ANALYSIS_CODES[code][0]
