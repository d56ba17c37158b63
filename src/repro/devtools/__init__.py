"""Project-specific static analysis (the ``repro lint`` checker).

The paper's gap theorems are only as trustworthy as the code
discipline behind them: cost arithmetic must stay exact, randomness
must stay seeded, every optimizer must be registered and span-traced,
and the sweep runner must never swallow a worker failure.  This
package machine-checks those invariants — stdlib ``ast`` only, no
runtime dependencies — exposed as the ``repro lint`` CLI subcommand
and enforced in CI alongside ``mypy --strict``.

* :mod:`repro.devtools.diagnostics` — the :class:`Diagnostic` record;
* :mod:`repro.devtools.project` — file classification and the
  cross-file facts rules need (the runtime optimizer registry);
* :mod:`repro.devtools.rules` — the per-file rules (``RPR...``) and
  the one code catalogue;
* :mod:`repro.devtools.analysis` — the whole-program passes
  (exactness taint, lock discipline, schema registry; ``ANA...``);
* :mod:`repro.devtools.noqa` — ``# repro: noqa`` suppressions;
* :mod:`repro.devtools.engine` — the driver: parse once, run rules
  and passes, suppress;
* :mod:`repro.devtools.reporter` — the text report.
"""

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.engine import LintReport, lint_paths
from repro.devtools.reporter import render_text
from repro.devtools.rules import CODES, RULES, Rule, rule_codes

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "RULES",
    "Rule",
    "lint_paths",
    "render_text",
    "rule_codes",
]
