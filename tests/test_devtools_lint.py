"""Tests for the project static checker (``repro lint``).

Covers:

* one failing fixture per RPR rule (miniature ``repro`` trees under a
  tmpdir, exercising the path-based classification);
* the clean-tree assertion: ``repro lint`` over the real ``src``,
  ``benchmarks`` and ``examples`` trees reports zero violations;
* ``# repro: noqa`` suppression semantics;
* the text report;
* the ``repro lint`` CLI subcommand (exit codes, --select,
  --list-rules).

The whole-program ``ANA`` passes have their fixtures in
``tests/test_devtools_analysis.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools import (
    CODES,
    RULES,
    lint_paths,
    render_text,
    rule_codes,
)
from repro.devtools.analysis.codes import ANALYSIS_CODES
from repro.devtools.diagnostics import PARSE_ERROR_CODE
from repro.devtools.engine import collect_files

REPO_ROOT = Path(__file__).resolve().parents[1]


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
# Per-rule failing fixtures
# ---------------------------------------------------------------------


class TestRuleFixtures:
    def test_rpr002_flags_direct_random(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": """\
                import random
                from numpy.random import default_rng
            """,
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["RPR002", "RPR002"]

    def test_rpr002_allows_rng_home(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/utils/rng.py": "import random\n",
        })
        assert lint_paths([tree]).ok

    def test_rpr004_traced_but_unregistered(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/runner.py": """\
                OPTIMIZERS = {"dp": dp_optimal}
            """,
            "src/repro/joinopt/optimizers/exact.py": """\
                @traced("optimize.secret")
                def secret_optimizer(instance):
                    return None
            """,
        })
        report = lint_paths([tree], select=["RPR004"])
        assert codes_of(report) == ["RPR004"]
        assert "not registered" in report.diagnostics[0].message

    def test_rpr004_registered_but_untraced(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/runner.py": """\
                OPTIMIZERS = {"dp": dp_optimal}
            """,
            "src/repro/joinopt/optimizers/exact.py": """\
                def dp_optimal(instance):
                    return None
            """,
        })
        report = lint_paths([tree], select=["RPR004"])
        assert codes_of(report) == ["RPR004"]
        assert "lacks" in report.diagnostics[0].message

    def test_rpr004_clean_when_traced_and_registered(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/runner.py": """\
                OPTIMIZERS = {"dp": dp_optimal}
            """,
            "src/repro/joinopt/optimizers/exact.py": """\
                @traced("optimize.dp")
                def dp_optimal(instance):
                    return None
            """,
        })
        assert lint_paths([tree], select=["RPR004"]).ok

    def test_rpr005_bare_and_swallowed_excepts(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/worker.py": """\
                def run(task):
                    try:
                        task()
                    except:
                        raise
                    try:
                        task()
                    except Exception:
                        pass
            """,
        })
        report = lint_paths([tree], select=["RPR005"])
        assert codes_of(report) == ["RPR005", "RPR005"]

    def test_rpr005_allows_handled_broad_except(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/worker.py": """\
                def run(task):
                    try:
                        task()
                    except Exception as exc:
                        return str(exc)
            """,
        })
        assert lint_paths([tree], select=["RPR005"]).ok

    def test_rpr006_mutable_defaults(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/engine/data.py": """\
                def build(rows=[], lookup={}, tags=set(), *, extra=list()):
                    return rows, lookup, tags, extra
            """,
        })
        report = lint_paths([tree], select=["RPR006"])
        assert codes_of(report) == ["RPR006"] * 4

    def test_rpr007_cli_must_route_through_facade(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/cli.py": """\
                from repro import api, io
                from repro.joinopt.instance import QONInstance
                from repro import joinopt
                import repro.runtime.runner
            """,
        })
        report = lint_paths([tree], select=["RPR007"])
        assert codes_of(report) == ["RPR007"] * 3

    def test_rpr007_ignores_non_cli_modules(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/engine/data.py": """\
                from repro.joinopt.instance import QONInstance
            """,
        })
        assert lint_paths([tree], select=["RPR007"]).ok

    def test_rpr008_benchmark_global_mutation(self, tmp_path):
        tree = make_tree(tmp_path, {
            "benchmarks/test_bench_demo.py": """\
                import os
                from repro.runtime import cache

                COUNTER = 0

                def test_bench():
                    global COUNTER
                    cache.default_size = 10
                    os.environ["REPRO_MODE"] = "bench"
            """,
        })
        report = lint_paths([tree], select=["RPR008"])
        assert codes_of(report) == ["RPR008"] * 3

    def test_rpr008_only_applies_to_benchmarks(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/cache.py": """\
                import os

                def configure():
                    os.environ["REPRO_MODE"] = "cache"
            """,
        })
        assert lint_paths([tree], select=["RPR008"]).ok

    def test_rpr009_evaluator_must_import_cost_cache(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/perf/incremental.py": """\
                def evaluate(sequence):
                    return sum(sequence)
            """,
        })
        report = lint_paths([tree], select=["RPR009"])
        assert codes_of(report) == ["RPR009"]
        assert "CostCache" in report.diagnostics[0].message

    def test_rpr009_clean_when_exact_and_routed(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/perf/incremental.py": """\
                from fractions import Fraction

                from repro.runtime.costcache import active_cache

                def evaluate(sequence):
                    return Fraction(sum(sequence))
            """,
        })
        assert lint_paths([tree]).ok

    def test_rpr009_ignores_bench_and_instrument(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/perf/bench.py": "SCALE = 0.5\n",
            "src/repro/perf/instrument.py": "RATE = 2.5\n",
        })
        assert lint_paths([tree]).ok

    def test_rpr010_flags_fault_plan_outside_resilience(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/api.py": """\
                from repro.runtime.resilience import FaultPlan

                def chaos_sweep(tasks):
                    return FaultPlan(faults=())
            """,
        })
        report = lint_paths([tree], select=["RPR010"])
        assert codes_of(report) == ["RPR010"]
        assert "resilience" in report.diagnostics[0].message

    def test_rpr010_flags_attribute_construction(self, tmp_path):
        tree = make_tree(tmp_path, {
            "benchmarks/test_bench_chaos.py": """\
                from repro.runtime import resilience

                PLAN = resilience.FaultPlan(faults=())
            """,
        })
        report = lint_paths([tree], select=["RPR010"])
        assert codes_of(report) == ["RPR010"]

    def test_rpr010_allows_the_chaos_home(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/resilience.py": """\
                class FaultPlan:
                    pass

                def seeded_plan():
                    return FaultPlan()
            """,
        })
        assert lint_paths([tree], select=["RPR010"]).ok

    def test_rpr010_allows_passing_plans_through(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/api.py": """\
                def sweep(tasks, fault_plan=None):
                    return run_sweep(tasks, fault_plan=fault_plan)
            """,
        })
        assert lint_paths([tree], select=["RPR010"]).ok

    def test_rpr011_flags_service_importing_internals(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/bad.py": """\
                import repro.runtime.runner
                from repro import joinopt
                from repro.joinopt.optimizers.exact import dp_optimal
            """,
        })
        report = lint_paths([tree], select=["RPR011"])
        assert codes_of(report) == ["RPR011"] * 3
        messages = " ".join(d.message for d in report.diagnostics)
        assert "repro.api request objects" in messages

    def test_rpr011_allows_the_facade_and_friends(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/good.py": """\
                from repro import api
                from repro.service import protocol
                from repro.observability.tracer import Tracer
                from repro.utils.validation import require
                import repro.io
            """,
        })
        assert lint_paths([tree], select=["RPR011"]).ok

    def test_rpr011_ignores_non_service_modules(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/engine/data.py": """\
                import repro.runtime.runner
            """,
        })
        assert lint_paths([tree], select=["RPR011"]).ok

    def test_rpr013_flags_registry_outside_runtime(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/api.py": """\
                from repro.runtime.registry import InstanceRegistry

                def private_store():
                    return InstanceRegistry(max_live=4)
            """,
        })
        report = lint_paths([tree], select=["RPR013"])
        assert codes_of(report) == ["RPR013"]
        assert "InstanceRef" in report.diagnostics[0].message

    def test_rpr013_flags_classmethod_construction(self, tmp_path):
        tree = make_tree(tmp_path, {
            "benchmarks/bench_registry.py": """\
                from repro.runtime.registry import InstanceRegistry

                STORE = InstanceRegistry.from_payloads({})
            """,
        })
        report = lint_paths([tree], select=["RPR013"])
        assert codes_of(report) == ["RPR013"]

    def test_rpr013_allows_runtime_and_service(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/runtime/runner.py": """\
                from repro.runtime.registry import InstanceRegistry

                def _make_executor():
                    return InstanceRegistry()
            """,
            "src/repro/service/server.py": """\
                from repro import api

                def build(config):
                    return api.InstanceRegistry(max_live=8)
            """,
        })
        assert lint_paths([tree], select=["RPR013"]).ok

    def test_rpr013_allows_passing_refs_through(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/api.py": """\
                from repro.runtime.registry import InstanceRef

                def resolve(ref: InstanceRef):
                    return ref.key
            """,
        })
        assert lint_paths([tree], select=["RPR013"]).ok

    def test_rpr014_flags_adhoc_module_counter(self, tmp_path):
        for module, name, function in (
            ("runtime/widgets", "_CALLS", "frob"),
            ("perf/kernels", "_BUILT", "compile_qon"),
        ):
            tree = make_tree(tmp_path / name, {
                f"src/repro/{module}.py": f"""\
                    {name} = 0

                    def {function}(instance):
                        global {name}
                        {name} += 1
                        return instance
                """,
            })
            report = lint_paths([tree], select=["RPR014"])
            assert codes_of(report) == ["RPR014"]
            assert "metrics registry" in report.diagnostics[0].message

    def test_rpr014_ignores_non_telemetry_packages(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/joinopt/search.py": """\
                _CALLS = 0

                def frob():
                    global _CALLS
                    _CALLS += 1
            """,
        })
        assert lint_paths([tree], select=["RPR014"]).ok

    def test_rpr014_ignores_non_counter_globals(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/service/config.py": """\
                _LIMIT = 0
                _MODE = None

                def set_limit(value):
                    global _LIMIT
                    _LIMIT = value

                def set_mode(mode):
                    global _MODE
                    _MODE = mode
            """,
        })
        assert lint_paths([tree], select=["RPR014"]).ok

    def test_rpr000_parse_error_is_a_finding(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/broken.py": "def oops(:  # repro: noqa\n",
        })
        report = lint_paths([tree])
        assert codes_of(report) == [PARSE_ERROR_CODE]
        assert not report.ok
        for select in (["RPR002"], ["ANA101"]):
            report = lint_paths([tree], select=select)
            assert codes_of(report) == [PARSE_ERROR_CODE]

    def test_every_rule_has_a_registry_entry(self):
        assert rule_codes() == [
            "RPR002", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008", "RPR009", "RPR010",
            "RPR011", "RPR012", "RPR013", "RPR014",
        ]
        for code, rule in RULES.items():
            assert rule.code == code
            assert rule.name
            assert rule.description


# ---------------------------------------------------------------------
# noqa suppression
# ---------------------------------------------------------------------


class TestNoqa:
    def test_repro_noqa_with_code_suppresses(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py":
                "import random  # repro: noqa[RPR002]\n",
        })
        assert lint_paths([tree]).ok

    def test_repro_noqa_bare_suppresses_all(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random  # repro: noqa\n",
        })
        assert lint_paths([tree]).ok

    def test_wrong_code_does_not_suppress(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py":
                "import random  # repro: noqa[RPR006]\n",
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["RPR002"]

    def test_plain_flake8_noqa_is_not_honored(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random  # noqa\n",
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["RPR002"]

    def test_multiple_codes_in_one_suppression(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/joinopt/cost.py":
                "import random  # repro: noqa[RPR002,ANA101]\n",
        })
        assert lint_paths([tree]).ok

    def test_rpr012_flags_unknown_suppression_code(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py":
                "import random  # repro: noqa[RPR002,RPR02]\n",
        })
        report = lint_paths([tree])
        assert codes_of(report) == ["RPR012"]
        assert "'RPR02'" in report.diagnostics[0].message

    def test_rpr012_accepts_analyzer_codes(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py":
                "X = 1  # repro: noqa[ANA101]\n",
        })
        assert lint_paths([tree]).ok


# ---------------------------------------------------------------------
# Engine behavior
# ---------------------------------------------------------------------


class TestEngine:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "definitely-not-here"])

    def test_unknown_select_raises(self, tmp_path):
        make_tree(tmp_path, {"src/repro/a.py": "X = 1\n"})
        with pytest.raises(ValueError):
            lint_paths([tmp_path], select=["RPR999"])

    def test_select_is_case_insensitive(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random\n",
        })
        report = lint_paths([tree], select=["rpr002"])
        assert codes_of(report) == ["RPR002"]

    def test_collect_skips_caches_and_hidden_dirs(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/a.py": "X = 1\n",
            "src/repro/__pycache__/a.py": "X = 1\n",
            "src/.hidden/b.py": "X = 1\n",
            "src/repro.egg-info/c.py": "X = 1\n",
        })
        files = collect_files([tmp_path])
        assert [path.name for path in files] == ["a.py"]

    def test_counts_aggregates_per_code(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random\n",
            "src/repro/engine/data.py": "def f(x=[]):\n    return x\n",
        })
        report = lint_paths([tree])
        assert report.counts() == {"RPR002": 1, "RPR006": 1}


# ---------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------


class TestReporters:
    def test_text_report_lists_findings_and_summary(self, tmp_path):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random\n",
        })
        text = render_text(lint_paths([tree]))
        assert "RPR002" in text
        assert "workloads.py:1:" in text
        assert "1 violation" in text

    def test_text_report_clean(self, tmp_path):
        tree = make_tree(tmp_path, {"src/repro/a.py": "X = 1\n"})
        text = render_text(lint_paths([tree]))
        assert "no invariant violations" in text


# ---------------------------------------------------------------------
# The real tree is clean
# ---------------------------------------------------------------------


class TestCleanTree:
    def test_repo_sources_pass_their_own_linter(self):
        report = lint_paths([
            REPO_ROOT / "src",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ])
        assert report.diagnostics == ()
        assert report.files_checked > 100

    def test_lint_cli_on_src_exits_zero(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        out = capsys.readouterr().out
        assert "no invariant violations" in out


# ---------------------------------------------------------------------
# CLI subcommand
# ---------------------------------------------------------------------


class TestLintCli:
    def test_findings_exit_one(self, tmp_path, capsys):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random\n",
        })
        assert main(["lint", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RPR002" in out

    def test_select_limits_rules(self, tmp_path, capsys):
        tree = make_tree(tmp_path, {
            "src/repro/workloads.py": "import random\n",
        })
        assert main(["lint", str(tree), "--select", "RPR006"]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        tree = make_tree(tmp_path, {"src/repro/a.py": "X = 1\n"})
        assert main(["lint", str(tree), "--select", "RPR999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert set(CODES) == (
            set(RULES) | set(ANALYSIS_CODES) | {PARSE_ERROR_CODE}
        )
        for code, (name, _description) in CODES.items():
            assert f"{code}  {name}" in out

    def test_analyze_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "src"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
