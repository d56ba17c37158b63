"""Tests for the command-line interface."""

import json

import pytest

from repro import io
from repro.cli import build_parser, main
from repro.joinopt.instance import QONInstance


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        code = main(["gen", "--family", "chain", "--relations", "5", "--out", str(out)])
        assert code == 0
        instance = io.load(out)
        assert isinstance(instance, QONInstance)
        assert instance.num_relations == 5

    @pytest.mark.parametrize("family", ["chain", "star", "cycle", "clique", "random"])
    def test_all_families(self, tmp_path, family):
        out = tmp_path / f"{family}.json"
        assert main(["gen", "--family", family, "--relations", "4",
                     "--out", str(out)]) == 0
        assert io.load(out).num_relations == 4

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "--family", "random", "--relations", "5", "--seed", "9",
              "--out", str(a)])
        main(["gen", "--family", "random", "--relations", "5", "--seed", "9",
              "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestOptimize:
    @pytest.fixture
    def instance_path(self, tmp_path):
        out = tmp_path / "q.json"
        main(["gen", "--family", "random", "--relations", "6", "--out", str(out)])
        return str(out)

    @pytest.mark.parametrize(
        "algorithm",
        ["dp", "exhaustive", "greedy-cost", "greedy-size", "iterative",
         "annealing", "sampling"],
    )
    def test_algorithms_run(self, instance_path, algorithm, capsys):
        assert main(["optimize", instance_path, "--algorithm", algorithm]) == 0
        output = capsys.readouterr().out
        assert "sequence:" in output
        assert "cost:" in output

    def test_ikkbz_on_tree(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        main(["gen", "--family", "chain", "--relations", "5", "--out", str(out)])
        assert main(["optimize", str(out), "--algorithm", "ikkbz"]) == 0

    def test_rejects_non_qon(self, tmp_path, capsys):
        from repro.graphs.generators import complete_graph

        path = tmp_path / "g.json"
        io.save(complete_graph(3), path)
        assert main(["optimize", str(path)]) == 2


class TestReduceSat:
    def test_qon_target(self, tmp_path, capsys):
        out = tmp_path / "hard.json"
        code = main([
            "reduce-sat", "--variables", "6", "--clauses", "16",
            "--satisfiable", "--target", "qon", "--out", str(out),
        ])
        assert code == 0
        instance = io.load(out)
        assert isinstance(instance, QONInstance)
        assert "132 relations" in capsys.readouterr().out

    def test_no_side(self, tmp_path, capsys):
        out = tmp_path / "hard.json"
        code = main([
            "reduce-sat", "--variables", "6", "--clauses", "16",
            "--target", "qon", "--out", str(out),
        ])
        assert code == 0
        assert "NO 3SAT(13)" in capsys.readouterr().out


class TestGapReport:
    def test_report_contents(self, capsys):
        assert main(["gap-report", "--relations", "10", "--alpha-exp", "10"]) == 0
        output = capsys.readouterr().out
        assert "log2 K_{c,d}" in output
        assert "gap wins" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen", "--family", "nope", "--out", "x"])


class TestExplainCommand:
    def test_explain_output(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        main(["gen", "--family", "chain", "--relations", "4", "--out", str(out)])
        assert main(["explain", str(out), "--algorithm", "dp"]) == 0
        output = capsys.readouterr().out
        assert "scan R" in output
        assert "total cost C(Z)" in output

    def test_explain_rejects_non_qon(self, tmp_path, capsys):
        from repro.graphs.generators import complete_graph

        path = tmp_path / "g.json"
        io.save(complete_graph(3), path)
        assert main(["explain", str(path)]) == 2


class TestExecuteCommand:
    def test_execute_small_instance(self, tmp_path, capsys):
        out = tmp_path / "q.json"
        main([
            "gen", "--family", "chain", "--relations", "4",
            "--size-max", "40", "--domain-max", "5", "--out", str(out),
        ])
        assert main(["execute", str(out), "--harmonize"]) == 0
        output = capsys.readouterr().out
        assert "result rows:" in output
        assert "exactness guaranteed: True" in output

    def test_guard_on_huge_instances(self, tmp_path, capsys):
        from repro.utils.validation import ValidationError

        out = tmp_path / "big.json"
        main([
            "gen", "--family", "chain", "--relations", "4",
            "--size-max", "100000", "--domain-max", "10000",
            "--out", str(out),
        ])
        with pytest.raises(ValidationError):
            main(["execute", str(out), "--harmonize"])


class TestSweepCommand:
    def test_quick_sweep_prints_table_and_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "sweep", "--n", "5", "--quick", "--workers", "1",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "algorithm" in output
        assert "hit" in output
        assert metrics_path.exists()

        from repro.runtime.metrics import load_metrics, validate_metrics

        payload = load_metrics(metrics_path)
        validate_metrics(payload)
        assert payload["totals"]["ok"] == payload["totals"]["tasks"]

    def test_gap_family_sweep(self, tmp_path, capsys):
        metrics_path = tmp_path / "gap.json"
        code = main([
            "sweep", "--family", "gap", "--n", "6",
            "--algorithms", "dp,greedy-cost", "--workers", "1",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "gap-yes-n6" in output
        assert "gap-no-n6" in output

    def test_rejects_unknown_algorithm(self, capsys):
        assert main(["sweep", "--n", "5", "--algorithms", "nope"]) == 2

    def test_no_cache_flag_disables_hits(self, tmp_path, capsys):
        metrics_path = tmp_path / "nocache.json"
        code = main([
            "sweep", "--n", "5", "--quick", "--workers", "1",
            "--no-cache", "--metrics-out", str(metrics_path),
        ])
        assert code == 0

        from repro.runtime.metrics import load_metrics

        payload = load_metrics(metrics_path)
        assert payload["totals"]["cache_hits"] == 0
        assert payload["totals"]["cost_evaluations"] > 0

    def test_journal_then_resume_round_trip(self, tmp_path, capsys):
        journal = tmp_path / "sweep-journal.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "sweep", "--n", "5", "--quick", "--workers", "1",
            "--journal", str(journal), "--retries", "2",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        first = capsys.readouterr().out
        assert "journal at" in first
        assert journal.exists()

        code = main([
            "sweep", "--n", "5", "--quick", "--workers", "1",
            "--journal", str(journal), "--resume",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        second = capsys.readouterr().out
        assert "tasks resumed from journal" in second

        from repro.runtime.metrics import load_metrics, validate_metrics

        payload = load_metrics(metrics_path)
        validate_metrics(payload)
        totals = payload["totals"]
        assert totals["resumed_tasks"] == totals["tasks"]
        assert totals["ok"] == totals["tasks"]

    def test_resume_refuses_a_journal_of_another_schema(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "old.jsonl"
        journal.write_text('{"meta": {}, "schema": "repro.journal/1"}\n')
        code = main([
            "sweep", "--n", "5", "--quick", "--journal", str(journal),
            "--resume", "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == 2
        assert "repro.journal/2" in capsys.readouterr().err

    def test_resume_refuses_a_record_with_a_truncated_result(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "sweep.jsonl"
        args = [
            "sweep", "--n", "5", "--quick", "--workers", "1",
            "--journal", str(journal),
            "--metrics-out", str(tmp_path / "m.json"),
        ]
        assert main(args) == 0
        header, first, *rest = journal.read_text().splitlines()
        record = json.loads(first)
        del record["result"]["cost"]
        journal.write_text(
            "\n".join([header, json.dumps(record), *rest]) + "\n"
        )
        capsys.readouterr()
        assert main([*args, "--resume"]) == 2
        assert "'cost'" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        assert main(["sweep", "--n", "5", "--quick", "--resume"]) == 2
        assert "journal" in capsys.readouterr().err

    def test_rejects_nonpositive_retries(self, capsys):
        code = main(["sweep", "--n", "5", "--quick", "--retries", "0"])
        assert code == 2
