"""Crash-safe task journal for resumable sweeps (``repro.journal/2``).

A journal is an append-only JSONL file: a header line identifying the
schema, then exactly one record per *completed* task.  Each record is
flushed and fsynced before the runner moves on, so after a hard kill
(SIGKILL, OOM, power loss) the journal holds every task that finished
and at most one torn trailing line — which :func:`read_journal`
detects and drops.

A record is the task-outcome record
(:meth:`~repro.runtime.runner.TaskOutcome.to_record`) plus ``record``,
``fingerprint``, the task's span records (``trace``) and its
``result`` in the typed :class:`~repro.core.results.PlanResult` codec
the service replies use (:func:`repro.core.requests.result_to_dict`).
A resumed sweep therefore reconstructs outcomes *bit-identically* in
value, type and ``repr``: costs stay ``int``/``Fraction``/``LogNumber``,
plans stay ``PipelineDecomposition``/``StarPlan``, and ``explored``
and the cache counters are exact.  A result that is not a
``PlanResult`` cannot be journaled: :meth:`JournalWriter.append`
raises :class:`~repro.utils.validation.ValidationError`.

Tasks are matched across processes by :func:`task_fingerprint`, a
content hash over the task's position, optimizer, label, kwargs and
instance statistics.  Any change to the task list produces different
fingerprints, so a journal can never silently satisfy a different
sweep.  Records whose ``failure`` is ``"cancelled"`` are *not*
treated as completed: a resume re-runs exactly the tasks an interrupt
cut short.

File layout::

    {"schema": "repro.journal/2", "meta": {...}}
    {"record": "task", "fingerprint": "...", "index": 0, ...}
    {"record": "task", "fingerprint": "...", "index": 1, ...}
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from types import TracebackType
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.requests import result_from_dict, result_to_dict
from repro.core.results import PlanResult
from repro.runtime.registry import instance_key
from repro.runtime.runner import SweepTask, TaskOutcome, validate_task_record
from repro.utils.validation import (
    FieldType,
    ValidationError,
    require,
    require_fields,
)

SCHEMA = "repro.journal/2"

PathLike = Union[str, Path]


def instance_token(instance: object) -> str:
    """The stable per-instance content token the fingerprints build on.

    Delegates to :func:`repro.runtime.registry.instance_key`: journal
    fingerprints and registry content addresses agree about instance
    identity by construction, which is what keeps chunked/registry
    dispatch from perturbing resume fingerprints.
    """
    return instance_key(instance)


def task_fingerprint(index: int, task: SweepTask) -> str:
    """A stable content hash identifying one task slot of a sweep.

    Covers the slot index, the optimizer name, the label, the kwargs,
    the timeout and the instance statistics (via
    :func:`instance_token`).
    """
    digest = hashlib.sha1()
    digest.update(
        f"{index}|{task.optimizer_name}|{task.label}|"
        f"{task.timeout}|{task.kwargs!r}|".encode()
    )
    digest.update(instance_token(task.instance).encode())
    return digest.hexdigest()


def request_fingerprint(
    kind: str,
    instance: object,
    optimizer: str = "",
    label: str = "",
    params: object = (),
    extra: str = "",
) -> str:
    """A stable content hash identifying one service-layer request.

    The same instance/optimizer identity the journal's
    :func:`task_fingerprint` uses — :func:`instance_token` over the
    instance statistics plus the optimizer name and kwargs — minus the
    sweep-slot index, so the request dedup/result cache recognizes a
    repeat regardless of when or from which connection it arrives.
    ``extra`` folds in any request options that change the reply
    (runner settings for sweep specs).
    """
    digest = hashlib.sha1()
    digest.update(
        f"{kind}|{optimizer}|{label}|{params!r}|{extra}|".encode()
    )
    digest.update(instance_token(instance).encode())
    return digest.hexdigest()


def outcome_to_record(fingerprint: str, outcome: TaskOutcome) -> Dict[str, Any]:
    """Serialize one completed outcome as a journal record."""
    require(
        outcome.result is None or isinstance(outcome.result, PlanResult),
        f"journal: task {outcome.index} returned a "
        f"{type(outcome.result).__name__}, not a PlanResult; only "
        "PlanResults can be journaled",
    )
    return {
        **outcome.to_record(),
        "record": "task",
        "fingerprint": fingerprint,
        "result": (
            None if outcome.result is None
            else result_to_dict(outcome.result)
        ),
        "trace": (
            [dict(span) for span in outcome.trace]
            if outcome.trace is not None else None
        ),
    }


def record_to_outcome(record: Dict[str, Any]) -> TaskOutcome:
    """Reconstruct the exact :class:`TaskOutcome` a record was made from."""
    validate_record(record)
    return TaskOutcome.from_record(
        record,
        result=(
            None if record["result"] is None
            else result_from_dict(record["result"])
        ),
        trace=(
            None if record["trace"] is None
            else tuple(dict(span) for span in record["trace"])
        ),
    )


#: What a journal record adds to the task-outcome record.
_RECORD_FIELDS: Dict[str, FieldType] = {
    "fingerprint": str,
    "result": (dict, type(None)),
    "trace": (list, type(None)),
}


def validate_record(record: Dict[str, Any]) -> None:
    """Raise :class:`ValidationError` unless ``record`` fits the schema."""
    validate_task_record(record, "journal record")
    require(
        record.get("record") == "task",
        f"journal record type must be 'task', got {record.get('record')!r}",
    )
    require_fields(record, _RECORD_FIELDS, "journal record")


class JournalWriter:
    """Append-only, per-record-fsynced journal of completed tasks.

    Opening an empty or missing path writes the schema header first;
    opening an existing journal appends to it (the resume path).
    """

    def __init__(
        self, path: PathLike, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fresh = (
            not self._path.exists() or self._path.stat().st_size == 0
        )
        self._handle = self._path.open("a", encoding="utf-8")
        if fresh:
            self._write({"schema": SCHEMA, "meta": dict(meta or {})})

    @property
    def path(self) -> Path:
        return self._path

    def _write(self, payload: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, fingerprint: str, outcome: TaskOutcome) -> None:
        """Durably record one completed task before the sweep moves on."""
        record = outcome_to_record(fingerprint, outcome)
        validate_record(record)
        self._write(record)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def read_journal(
    path: PathLike,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a journal; returns ``(meta, records)``.

    The header line must carry the ``repro.journal/2`` schema and every
    record must validate.  A torn *final* line — the signature of a
    process killed mid-write — is silently dropped; garbage anywhere
    else raises :class:`ValidationError`.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(bool(lines), f"journal {path}: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValidationError(f"journal {path}: unreadable header: {exc}")
    require(isinstance(header, dict), f"journal {path}: header must be a dict")
    require(
        header.get("schema") == SCHEMA,
        f"journal {path}: schema must be {SCHEMA!r}, "
        f"got {header.get('schema')!r}",
    )
    meta = header.get("meta", {})
    require(isinstance(meta, dict), f"journal {path}: meta must be a dict")
    records: List[Dict[str, Any]] = []
    last = len(lines) - 1
    for position, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position == last:
                break  # torn tail from a crash mid-write: drop it
            raise ValidationError(
                f"journal {path}: corrupt record on line {position + 1}"
            )
        validate_record(record)
        records.append(record)
    return meta, records


def completed_by_fingerprint(
    records: Sequence[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Map fingerprint -> the latest *completed* record for that task.

    Cancelled records don't count as completed — a resume re-runs
    those tasks.  Later records win, so a journal appended to across
    several sessions resolves to the most recent state.
    """
    completed: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record["failure"] == "cancelled":
            completed.pop(record["fingerprint"], None)
            continue
        completed[record["fingerprint"]] = record
    return completed


def restore_outcomes(
    path: PathLike, tasks: Sequence[SweepTask]
) -> Dict[int, TaskOutcome]:
    """The outcomes a resumed sweep restores, by task index.

    Each task whose fingerprint has a completed record in the journal
    at ``path`` gets that record's outcome back, bit-identically.  A
    missing or empty journal file restores nothing.
    """
    journal = Path(path)
    if not journal.exists() or journal.stat().st_size == 0:
        return {}
    _, records = read_journal(journal)
    by_fingerprint = completed_by_fingerprint(records)
    restored: Dict[int, TaskOutcome] = {}
    for index, task in enumerate(tasks):
        record = by_fingerprint.get(task_fingerprint(index, task))
        if record is not None:
            restored[index] = record_to_outcome(record)
    return restored
