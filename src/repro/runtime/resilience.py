"""Deterministic chaos for the sweep executor.

A :class:`FaultPlan` schedules synthetic faults (``timeout`` /
``error`` / ``worker-kill``) at chosen ``(task index, attempt)``
coordinates.  :func:`~repro.runtime.runner.run_sweep` threads the plan
through the same ``_execute`` path real work takes, so injected and
organic failures meet the same retry, worker-death recovery and
journaling machinery — which is what the chaos tests exercise.  A fault
plan also makes every attempt run against a fresh cost cache (see
:mod:`repro.runtime.runner`), so a faulted sweep can be compared
bit-for-bit with the same sweep without the plan.

Constructing a ``FaultPlan`` outside this module or test code is a lint
error (rule RPR010): production sweeps must never run with chaos
installed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.runtime.runner import SweepTimeout, WorkerDied
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require

#: Fault kinds a plan may inject (the fourth taxonomy label,
#: ``cancelled``, is produced by interrupting the sweep, not by a
#: synthetic fault).
INJECTABLE_KINDS = ("timeout", "error", "worker-kill")


class FaultInjected(RuntimeError):
    """The synthetic exception an ``error`` injection raises."""


@dataclass(frozen=True)
class FaultInjection:
    """One scheduled fault: ``kind`` fires at ``(index, attempt)``."""

    index: int
    attempt: int
    kind: str


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of synthetic faults.

    The plan is immutable, picklable (it rides to pool workers inside
    task payloads) and a pure lookup table: the same plan injects the
    same faults every run.  Lint rule RPR010 confines construction to
    this module and to test code.
    """

    faults: Tuple[FaultInjection, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            require(
                fault.kind in INJECTABLE_KINDS,
                f"unknown fault kind {fault.kind!r}; "
                f"injectable: {list(INJECTABLE_KINDS)}",
            )
            require(
                fault.index >= 0 and fault.attempt >= 0,
                "fault coordinates must be non-negative",
            )

    def fault_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault kind scheduled at ``(index, attempt)``, if any."""
        for fault in self.faults:
            if fault.index == index and fault.attempt == attempt:
                return fault.kind
        return None

    @classmethod
    def seeded(
        cls,
        seed: RngLike,
        num_tasks: int,
        kinds: Sequence[str] = INJECTABLE_KINDS,
        faults_per_kind: int = 1,
        max_attempt: int = 0,
    ) -> "FaultPlan":
        """A reproducible random plan: same seed, same faults.

        Schedules ``faults_per_kind`` injections of every kind in
        ``kinds`` at task indices drawn from ``range(num_tasks)`` and
        attempts drawn from ``range(max_attempt + 1)``.
        """
        require(num_tasks > 0, "seeded plan needs at least one task")
        rng = make_rng(seed)
        injections = []
        for kind in kinds:
            for _ in range(faults_per_kind):
                injections.append(
                    FaultInjection(
                        index=rng.randrange(num_tasks),
                        attempt=rng.randrange(max_attempt + 1),
                        kind=kind,
                    )
                )
        ordered = sorted(
            injections, key=lambda f: (f.index, f.attempt, f.kind)
        )
        return cls(faults=tuple(ordered))


def apply_fault(
    kind: str, index: int, attempt: int, in_worker: bool = False
) -> None:
    """Fire one injected fault from inside ``_execute``'s try block.

    ``timeout`` raises :class:`SweepTimeout` (classified exactly like a
    real alarm); ``error`` raises :class:`FaultInjected`; a
    ``worker-kill`` exits a real pool worker (``in_worker``) with
    ``os._exit`` — the parent sees ``BrokenProcessPool`` — and raises
    :class:`WorkerDied` in serial mode so the recovery path is testable
    in-process.
    """
    if kind == "timeout":
        raise SweepTimeout()
    if kind == "error":
        raise FaultInjected(
            f"injected error at task {index}, attempt {attempt}"
        )
    if kind == "worker-kill":
        if in_worker:  # pragma: no cover - dies before reporting
            os._exit(1)
        raise WorkerDied(
            f"injected worker death at task {index}, attempt {attempt}"
        )
    raise ValueError(f"unknown fault kind {kind!r}")
