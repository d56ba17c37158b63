"""Tests for the whole-program passes of ``repro lint`` (``ANA...``).

Covers:

* per-pass fixture packages: tainted vs clean call chains, locked vs
  unlocked attribute access, orphan vs fully-registered schemas;
* interprocedural taint through two call hops, with exact file, line
  and rule-id assertions for a seeded taint bug and a seeded
  unguarded lock access;
* ``ANA101`` over the whole of an exact module: float literals,
  ``float(...)`` and ``math`` imports outside function bodies, one
  finding per defect;
* ``# repro: boundary[exactness]`` annotations and ``# repro: noqa``
  suppressions of ANA codes;
* linting part of a package: the model still spans the whole package,
  and only findings in the named files are reported;
* the ANA codes in the one code catalogue and the text report, and the
  passes through the ``repro lint`` CLI (exit codes, ``--select`` of
  pass codes only, ``--list-rules``, the clean real tree).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import CODES, lint_paths, render_text
from repro.devtools.analysis.codes import ANALYSIS_CODES
from repro.devtools.reporter import render_rule_list

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``--select`` value naming every pass code and no RPR rule.
PASS_CODES = ",".join(ANALYSIS_CODES)


def make_tree(root: Path, files: dict) -> Path:
    """Materialize ``{relative path: source}`` under ``root``."""
    for relative, content in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return root


def codes_of(report) -> list:
    return [diagnostic.code for diagnostic in report.diagnostics]


# ---------------------------------------------------------------------
# Exactness-taint pass (ANA101 / ANA102)
# ---------------------------------------------------------------------


class TestTaintPass:
    def test_two_hop_interprocedural_taint_into_sink(self, tmp_path):
        """A float source two calls away from the sink is still found,
        with the exact file, line and rule id."""
        tree = make_tree(tmp_path, {
            "src/repro/helpers.py": """\
                import time

                def leak():
                    return time.time()

                def relay():
                    return leak()
            """,
            "src/repro/joinopt/cost.py": """\
                from repro.helpers import relay

                def total_cost(x):
                    return relay() + x
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        finding = report.diagnostics[0]
        assert finding.path.endswith("cost.py")
        assert finding.line == 4
        assert finding.rule == "tainted-value-in-exact-sink"
        assert "float-tainted" in finding.message

    def test_tainted_argument_into_sink(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/joinopt/cost.py": """\
                def total_cost(x):
                    return x
            """,
            "src/repro/driver.py": """\
                from repro.joinopt.cost import total_cost

                def run():
                    scale = 1.5
                    return total_cost(scale)
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA102"]
        finding = report.diagnostics[0]
        assert finding.path.endswith("driver.py")
        assert finding.line == 5
        assert finding.rule == "tainted-argument-to-exact-sink"
        assert "'x'" in finding.message

    def test_division_in_sink_is_a_float_source(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/starqo/cost.py": """\
                def probe_cost(pages, span):
                    return pages / span
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        assert "true division" in report.diagnostics[0].message

    def test_fraction_division_is_exact(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/starqo/cost.py": """\
                from fractions import Fraction

                def probe_cost(pages, span):
                    return Fraction(pages) / span
            """,
        })
        assert lint_paths([tree]).ok

    def test_fraction_annotated_parameter_is_exact(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/starqo/cost.py": """\
                from fractions import Fraction

                def probe_cost(pages: Fraction, span: int):
                    return pages / span
            """,
        })
        assert lint_paths([tree]).ok

    def test_boundary_annotation_declares_the_function_clean(
        self, tmp_path
    ):
        tree = make_tree(tmp_path, {
            "src/repro/perf/kernels.py": """\
                def ratio(a, b):  # repro: boundary[exactness]
                    return a / b

                def evaluate(a, b):
                    return ratio(a, b)
            """,
        })
        assert lint_paths([tree]).ok

    def test_clean_exact_chain_has_no_findings(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/helpers.py": """\
                from fractions import Fraction

                def scale(x):
                    return Fraction(3, 2) * x
            """,
            "src/repro/joinopt/cost.py": """\
                from repro.helpers import scale

                def total_cost(x):
                    return scale(x) + 1
            """,
        })
        assert lint_paths([tree]).ok

    @pytest.mark.parametrize("module", ["joinopt/cost", "perf/kernels"])
    def test_float_sources_anywhere_in_an_exact_module(
        self, tmp_path, module
    ):
        tree = make_tree(tmp_path, {
            f"src/repro/{module}.py": """\
                import math
                SCALE = 0.5

                def total_cost(x):
                    return float(x) * math.sqrt(2)
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"] * 4
        assert [(d.line, d.col) for d in report.diagnostics] == [
            (1, 0), (2, 8), (5, 11), (5, 22),
        ]
        messages = [d.message for d in report.diagnostics]
        assert messages[0].startswith("math import")
        assert messages[1].startswith("float literal 0.5")
        assert "float-tainted" in messages[2]
        assert "float-tainted" in messages[3]

    def test_floats_outside_exact_modules_are_ignored(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/joinopt/explain.py": "SHARE = 0.5\n",
        })
        assert lint_paths([tree]).ok

    @pytest.mark.parametrize("module, source, spot", [
        ("joinopt/cost", """\
            class Model:
                SCALE = 0.5
        """, (2, 12)),
        ("joinopt/cost", """\
            def total_cost(x, scale=0.5):
                return x
        """, (1, 24)),
        ("perf/kernels", """\
            def ratio(a, b):  # repro: boundary[exactness]
                return a * 0.5
        """, (2, 15)),
        ("hashjoin/cost_model", """\
            def total_cost(x):
                def scale(y):
                    return y * 0.5
                return scale(x)
        """, (3, 19)),
    ], ids=["class-body", "default-argument", "boundary", "nested"])
    def test_float_literal_outside_a_sink_body(
        self, tmp_path, module, source, spot
    ):
        tree = make_tree(tmp_path, {f"src/repro/{module}.py": source})
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        finding = report.diagnostics[0]
        assert (finding.line, finding.col) == spot
        assert finding.message.startswith("float literal 0.5")

    def test_float_literal_in_a_kernel_is_one_finding(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/perf/kernels.py": """\
                def evaluate(x):
                    return x * 0.5
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        finding = report.diagnostics[0]
        assert (finding.line, finding.col) == (2, 15)
        assert "exact sink 'perf.kernels.evaluate'" in finding.message

    @pytest.mark.parametrize("name", ["statistics", "math"])
    def test_local_named_like_a_float_module_is_clean(self, tmp_path, name):
        """A method call on a local whose name is a float module's is
        not a call into that module."""
        tree = make_tree(tmp_path, {
            "src/repro/perf/kernels.py": f"""\
                def gather(rows):
                    {name} = []
                    for row in rows:
                        {name}.extend(row)
                    return {name}.count(0)
            """,
        })
        assert lint_paths([tree]).ok

    def test_module_level_float_module_import_is_flagged(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/perf/kernels.py": """\
                import statistics

                def middle(values):
                    return statistics.median(values)
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        finding = report.diagnostics[0]
        assert finding.line == 4
        assert "float-tainted" in finding.message

    def test_function_level_math_import_is_flagged(self, tmp_path):
        """The import binds the name inside the helper; the float it
        returns reaches the sink one call away."""
        tree = make_tree(tmp_path, {
            "src/repro/helpers.py": """\
                def root(x):
                    import math
                    return math.sqrt(x)
            """,
            "src/repro/joinopt/cost.py": """\
                from repro.helpers import root

                def total_cost(x):
                    return root(x)
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA101"]
        finding = report.diagnostics[0]
        assert finding.path.endswith("cost.py")
        assert finding.line == 4

    def test_noqa_suppresses_taint_finding(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/joinopt/cost.py": """\
                import time

                def total_cost(x):
                    return time.time() + x  # repro: noqa[ANA101]
            """,
        })
        assert lint_paths([tree]).ok


# ---------------------------------------------------------------------
# Lock-discipline pass (ANA201)
# ---------------------------------------------------------------------

_LOCKED_CLASS = """\
    import threading

    class Server:
        def __init__(self):
            self._lock = threading.Lock()
            self._ready = threading.Condition(self._lock)
            self._pending = []
            self._count = 0

        def add(self, item):
            with self._lock:
                self._pending.append(item)
                self._count += 1

        def drain(self):
            with self._ready:
                self._pending.clear()

        def peek(self):
            return len(self._pending)
"""


class TestLockPass:
    def test_seeded_unguarded_read_is_found(self, tmp_path):
        """The seeded unguarded access is reported with the exact
        file, line and rule id; the Condition alias write counts as
        guarded."""
        tree = make_tree(tmp_path, {
            "src/repro/service/server.py": _LOCKED_CLASS,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA201"]
        finding = report.diagnostics[0]
        assert finding.path.endswith("server.py")
        assert finding.line == 20
        assert finding.rule == "unguarded-attribute-access"
        assert "'self._pending'" in finding.message
        assert "'peek'" in finding.message

    def test_unguarded_write_is_found(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/server.py": """\
                import threading

                class Server:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._count = 0

                    def bump(self):
                        with self._lock:
                            self._count += 1

                    def reset(self):
                        self._count = 0
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA201"]
        assert "written here" in report.diagnostics[0].message

    def test_fully_locked_class_is_clean(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/server.py": """\
                import threading

                class Server:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._pending = []

                    def add(self, item):
                        with self._lock:
                            self._pending.append(item)

                    def size(self):
                        with self._lock:
                            return len(self._pending)
            """,
        })
        assert lint_paths([tree]).ok

    def test_unlocked_class_is_out_of_scope(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/state.py": """\
                class Bag:
                    def __init__(self):
                        self.items = []

                    def add(self, item):
                        self.items.append(item)
            """,
        })
        assert lint_paths([tree]).ok

    def test_init_writes_do_not_establish_guarding(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/server.py": """\
                import threading

                class Server:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._name = "srv"

                    def name(self):
                        return self._name
            """,
        })
        assert lint_paths([tree]).ok

    def test_noqa_suppresses_lock_finding(self, tmp_path):
        source = _LOCKED_CLASS.replace(
            "return len(self._pending)",
            "return len(self._pending)  # repro: noqa[ANA201]",
        )
        tree = make_tree(tmp_path, {
            "src/repro/service/server.py": source,
        })
        assert lint_paths([tree]).ok


# ---------------------------------------------------------------------
# Schema-registry pass (ANA301-ANA303)
# ---------------------------------------------------------------------


class TestSchemaPass:
    def test_orphan_schema_missing_validator_and_consumer(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/metrics.py": """\
                SCHEMA = "repro.orphan/1"

                def snapshot():
                    return {"schema": SCHEMA, "n": 1}
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA301", "ANA303"]
        assert all("'repro.orphan/1'" in d.message
                   for d in report.diagnostics)
        assert report.diagnostics[0].line == 1

    def test_declared_but_unused_schema_misses_every_role(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/metrics.py": 'DEAD = "repro.dead/1"\n',
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["ANA301", "ANA302", "ANA303"]

    def test_fully_registered_schema_is_clean(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/metrics.py": """\
                SCHEMA = "repro.sweep/1"

                def snapshot():
                    return {"schema": SCHEMA}

                def validate_snapshot(payload):
                    if payload.get("schema") != SCHEMA:
                        raise ValueError("bad schema")
            """,
        })
        assert lint_paths([tree]).ok

    def test_roles_aggregate_across_modules(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/metrics.py": """\
                SCHEMA = "repro.sweep/1"

                def snapshot():
                    return {"schema": SCHEMA}
            """,
            "src/repro/checks.py": """\
                from repro.metrics import SCHEMA

                def validate_payload(payload):
                    if payload.get("schema") != SCHEMA:
                        raise ValueError("bad schema")
            """,
        })
        assert lint_paths([tree]).ok

    def test_docstring_mentions_are_ignored(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/notes.py": '"""About repro.ghost/1 payloads."""\n',
        })
        assert lint_paths([tree]).ok


# ---------------------------------------------------------------------
# Linting part of a package
# ---------------------------------------------------------------------

_SEEDED_TREE = {
    "src/repro/helpers.py": """\
        import time

        def leak():
            return time.time()
    """,
    "src/repro/joinopt/cost.py": """\
        from repro.helpers import leak

        def total_cost(x):
            return leak() + x
    """,
    "src/repro/protocol.py": """\
        SCHEMA = "repro.rpc/1"
        ORPHAN = "repro.orphan/1"

        def validate_frame(payload):
            if payload.get("schema") != SCHEMA:
                raise ValueError("bad schema")
    """,
    "src/repro/api.py": """\
        from repro.protocol import ORPHAN, SCHEMA

        def frame():
            return {"schema": SCHEMA, "kind": ORPHAN}
    """,
    "src/repro/service/server.py": _LOCKED_CLASS,
}


class TestPartialLint:
    def test_one_file_reports_its_share_of_the_whole_tree(self, tmp_path):
        """Linting one file reports exactly the whole-tree findings that
        fall in it, because facts from the other modules still count."""
        tree = make_tree(tmp_path, _SEEDED_TREE)
        whole = lint_paths([tree]).diagnostics
        assert sorted({d.code for d in whole}) == [
            "ANA101", "ANA201", "ANA301", "ANA303",
        ]
        for relative in _SEEDED_TREE:
            path = tree / relative
            alone = lint_paths([path]).diagnostics
            assert alone == tuple(d for d in whole if d.path == str(path))

    def test_one_real_file_is_clean(self):
        """``api.py`` emits ``repro.rpc/1``; its validator and consumer
        live in ``service/protocol.py``, which this run does not name."""
        report = lint_paths([REPO_ROOT / "src" / "repro" / "api.py"])
        assert report.diagnostics == ()
        assert report.files_checked == 1


# ---------------------------------------------------------------------
# Pass codes in the catalogue and the text report
# ---------------------------------------------------------------------


class TestAnalysisSchema:
    def test_text_report_mentions_counts(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/starqo/cost.py": """\
                def probe_cost(pages, span):
                    return pages / span
            """,
        })
        text = render_text(lint_paths([tree]))
        assert "ANA101 x1" in text
        assert "1 violation" in text

    def test_every_code_has_a_catalogue_entry(self, tmp_path):
        """Each pass code is in the one catalogue with its own entry, so
        ``--select`` and ``--list-rules`` both know it."""
        assert list(ANALYSIS_CODES) == sorted(ANALYSIS_CODES)
        listing = render_rule_list()
        tree = make_tree(tmp_path, {"src/repro/ok.py": "X = 1\n"})
        for code, entry in ANALYSIS_CODES.items():
            assert CODES[code] == entry
            assert f"{code}  {entry[0]}" in listing
            assert lint_paths([tree], select=[code.lower()]).ok


# ---------------------------------------------------------------------
# CLI: the passes through ``repro lint``
# ---------------------------------------------------------------------


class TestAnalyzeCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        make_tree(tmp_path, {"src/repro/ok.py": "X = 1\n"})
        assert main(["lint", "--select", PASS_CODES, str(tmp_path)]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        make_tree(tmp_path, {
            "src/repro/joinopt/cost.py": """\
                import time

                def total_cost(x):
                    return time.time() + x
            """,
        })
        assert main(["lint", str(tmp_path)]) == 1
        assert "ANA101" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([
            "lint", "--select", PASS_CODES, str(tmp_path / "nope"),
        ]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_passes(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code, (name, description) in ANALYSIS_CODES.items():
            assert f"{code}  {name}" in out
            assert description in out

    def test_real_tree_is_clean_against_committed_baseline(self, capsys):
        """There is no baseline of accepted findings: the real ``src``
        tree must be clean of every ANA code outright."""
        assert main([
            "lint", "--select", PASS_CODES, str(REPO_ROOT / "src"),
        ]) == 0
        assert "no invariant violations" in capsys.readouterr().out
