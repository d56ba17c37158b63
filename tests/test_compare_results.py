"""The paper-artifact comparison masks wall-clock fields and nothing else."""

import json

from benchmarks._tables import format_table
from benchmarks.compare_results import compare, is_wall_column, main

HEADERS = ["n", "DP expl", "DP ms", "% wall"]


def _table(rows):
    return format_table("EXP-X: demo", HEADERS, rows) + "\n\n"


def _write(tmp_path, name, side, text):
    directory = tmp_path / side
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)
    return directory / name


def test_wall_columns():
    assert is_wall_column("DP ms")
    assert is_wall_column("% wall")
    assert not is_wall_column("DP expl")
    assert not is_wall_column("misses")


def test_wall_clock_columns_may_change_width(tmp_path):
    reference = _write(tmp_path, "t.txt", "ref", _table(
        [[5, 80, "0.8", "1.0%"], ["TOTAL", 80, "-", "hot: dp"]]
    ))
    current = _write(tmp_path, "t.txt", "cur", _table(
        [[5, 80, "1234.5", "12.25%"], ["TOTAL", 80, "-", "hot: annealing"]]
    ))
    assert compare(reference, current) == []


def test_other_cells_and_titles_must_match(tmp_path):
    reference = _write(
        tmp_path, "t.txt", "ref", _table([[5, 80, "0.8", "1%"]])
    )
    changed_cell = _write(
        tmp_path, "t.txt", "cur", _table([[5, 81, "0.8", "1%"]])
    )
    assert compare(reference, changed_cell)
    retitled = _write(tmp_path, "u.txt", "cur", _table(
        [[5, 80, "0.8", "1%"]]
    ).replace("demo", "other"))
    assert compare(reference, retitled)


def test_json_masks_only_wall_time(tmp_path):
    payload = {"wall_time_s": 1.5, "tasks": [{"wall_time_s": 0.25, "hits": 3}]}
    reference = _write(tmp_path, "m.json", "ref", json.dumps(payload))
    payload["wall_time_s"] = 9
    payload["tasks"][0]["wall_time_s"] = 7
    current = _write(tmp_path, "m.json", "cur", json.dumps(payload))
    assert compare(reference, current) == []
    payload["tasks"][0]["hits"] = 4
    current.write_text(json.dumps(payload))
    assert compare(reference, current)


def test_main_exit_codes(tmp_path, capsys):
    _write(tmp_path, "t.txt", "ref", _table([[5, 80, "0.8", "1%"]]))
    _write(tmp_path, "t.txt", "cur", _table([[5, 80, "2.8", "3%"]]))
    assert main([str(tmp_path / "ref"), str(tmp_path / "cur"), "t.txt"]) == 0
    _write(tmp_path, "t.txt", "cur", _table([[6, 80, "2.8", "3%"]]))
    assert main([str(tmp_path / "ref"), str(tmp_path / "cur"), "t.txt"]) == 1
    assert "differs outside wall-clock fields" in capsys.readouterr().out
    assert main([]) == 2
