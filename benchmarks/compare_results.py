"""Compare regenerated experiment results with reference copies.

The paper's artifacts under ``benchmarks/results/`` must not change,
except in the fields that record wall-clock time.  Usage::

    python benchmarks/compare_results.py REFERENCE_DIR CURRENT_DIR NAME...

Each ``NAME`` is a file present in both directories:

* ``.txt`` tables (as written by ``benchmarks._tables.emit_table``) are
  compared cell by cell, with every column whose header ends in ``ms``
  or contains ``wall`` masked;
* ``.json`` files are compared with every ``wall_time_s`` field masked.

Prints a diff of each file that still differs and exits 1 if any does.
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

MASK = "<wall-clock>"


def is_wall_column(header: str) -> bool:
    """True for a table column that holds wall-clock time."""
    return header.endswith("ms") or "wall" in header


def _is_rule(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and set(stripped) <= {"-", " "}


def _spans(rule: str) -> List[Tuple[int, Optional[int]]]:
    """Column slices of a table, from its ``--  -----`` rule line."""
    starts = [
        index for index, char in enumerate(rule)
        if char == "-" and (index == 0 or rule[index - 1] == " ")
    ]
    ends: List[Optional[int]] = [*starts[1:], None]
    return list(zip(starts, ends))


def normalize_tables(text: str) -> List[str]:
    """``text`` line by line, each table row as ``|``-joined cells with
    the wall-clock columns masked (their widths may change too)."""
    lines = text.splitlines()
    out: List[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.strip() and index + 1 < len(lines) and _is_rule(
            lines[index + 1]
        ):
            spans = _spans(lines[index + 1])
            header = [line[start:end].strip() for start, end in spans]
            masked = [is_wall_column(name) for name in header]
            out.append(" | ".join(header))
            index += 2
            while index < len(lines) and lines[index].strip():
                row = lines[index]
                cells = [row[start:end].strip() for start, end in spans]
                out.append(" | ".join(
                    MASK if wall else cell
                    for cell, wall in zip(cells, masked)
                ))
                index += 1
            continue
        out.append(line.rstrip())
        index += 1
    return out


def mask_wall_times(value: object) -> object:
    """``value`` with every ``wall_time_s`` field, at any depth, masked."""
    if isinstance(value, dict):
        return {
            key: MASK if key == "wall_time_s" else mask_wall_times(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [mask_wall_times(item) for item in value]
    return value


def normalize(path: Path) -> List[str]:
    text = path.read_text()
    if path.suffix == ".json":
        masked = mask_wall_times(json.loads(text))
        return json.dumps(masked, indent=2, sort_keys=True).splitlines()
    return normalize_tables(text)


def compare(reference: Path, current: Path) -> List[str]:
    """Diff lines between the two files once masked; empty if equal."""
    return list(difflib.unified_diff(
        normalize(reference), normalize(current),
        fromfile=str(reference), tofile=str(current), lineterm="",
    ))


def main(argv: Sequence[str]) -> int:
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reference_dir, current_dir = Path(argv[0]), Path(argv[1])
    status = 0
    for name in argv[2:]:
        diff = compare(reference_dir / name, current_dir / name)
        if diff:
            status = 1
            print(f"{name}: differs outside wall-clock fields")
            print("\n".join(diff))
        else:
            print(f"{name}: identical outside wall-clock fields")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
