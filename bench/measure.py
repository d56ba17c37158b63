"""What one benchmark run reports, and the statistics it uses."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """One run's operations, failures and metrics.

    ``failed`` counts operations that failed or returned a wrong
    result; ``problems`` says what went wrong, including checks that
    are not operations (counter identity, reconciliation).
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """A check that is not an operation: fails the run, not a count."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolating between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def vmhwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM line for pid {pid}")


def peak_rss_mb(other_kb: int = 0) -> float:
    """Largest peak RSS among this process, its reaped children and a
    process measured separately (``other_kb``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, other_kb) / 1024.0
