"""High-performance cost-evaluation layer: compiled instance kernels
and incremental (delta) evaluation for the QO_N/QO_H search loops.

Kept import-light: the optimizer stack imports the evaluators exported
here, so nothing in this package imports an optimizer at module level.
"""

from repro.perf.incremental import (
    AdjacentSwap,
    Move,
    PrefixEvaluator,
    Reinsert,
    sample_moves,
)
from repro.perf.kernels import (
    CompiledQOH,
    CompiledQON,
    compile_qoh,
    compile_qon,
)
from repro.perf.qoh import QOHEvaluator

__all__ = [
    "AdjacentSwap",
    "CompiledQOH",
    "CompiledQON",
    "Move",
    "PrefixEvaluator",
    "QOHEvaluator",
    "Reinsert",
    "compile_qoh",
    "compile_qon",
    "sample_moves",
]
