"""Shared numeric and utility substrate.

The constructed hardness instances manipulate numbers such as
``alpha ** (n * n)`` with ``alpha = 4 ** n`` — far beyond the range of
floats.  Two representations are supported throughout the library:

* exact mode — plain Python ``int`` / :class:`fractions.Fraction`
  arithmetic, used by default for small and medium instances;
* log mode — :class:`~repro.utils.lognum.LogNumber`, which tracks
  ``log2`` of the magnitude in a float and is used for wide parameter
  sweeps in the benchmark harness.

Both support ``+``, ``*``, ``/``, ``**`` and total ordering, so every
cost function in the library is written once and works for either.
"""

from repro.utils.lognum import LogNumber, as_log, log2_of
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "LogNumber",
    "as_log",
    "log2_of",
    "make_rng",
    "require",
]
