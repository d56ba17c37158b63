"""Small validation helpers shared by instance constructors and the
JSON payload validators.

Instances of the optimization problems carry numeric invariants from
the paper (e.g. the access-path bounds ``t_j * s_ij <= w_ij <= t_j``).
Constructors enforce them eagerly so that a malformed instance fails at
build time, not deep inside a cost computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Tuple, Union

Real = Union[int, float, Fraction]

#: A payload field's expected type(s), as ``isinstance`` takes them.
FieldType = Union[type, Tuple[type, ...]]


class ValidationError(ValueError):
    """Raised when a problem instance violates a model invariant."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_fields(
    payload: Mapping[str, Any], fields: Mapping[str, FieldType], where: str
) -> None:
    """Require every named field of ``payload``, each of its type.

    ``bool`` is an ``int`` subclass, but ``True`` never satisfies a
    field that does not expect ``bool``.  Messages name the field as
    ``<where>.<name>``.
    """
    for name, kind in fields.items():
        require(name in payload, f"{where}: missing field {name!r}")
        value = payload[name]
        require(
            isinstance(value, kind)
            and (kind is bool or not isinstance(value, bool)),
            f"{where}.{name}: expected {kind}, got {type(value).__name__}",
        )


def check_positive(value: Real, name: str) -> None:
    """Require ``value > 0``."""
    require(value > 0, f"{name} must be positive, got {value!r}")


def check_nonnegative(value: Real, name: str) -> None:
    """Require ``value >= 0``."""
    require(value >= 0, f"{name} must be non-negative, got {value!r}")


def check_probability(value: Real, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    require(0 <= value <= 1, f"{name} must lie in [0, 1], got {value!r}")


def check_fraction(value: Real, name: str) -> None:
    """Require ``0 < value <= 1`` (selectivities, fractions of clauses)."""
    require(0 < value <= 1, f"{name} must lie in (0, 1], got {value!r}")


def check_index(index: int, size: int, name: str) -> None:
    """Require ``0 <= index < size``."""
    require(
        0 <= index < size,
        f"{name} must lie in [0, {size}), got {index}",
    )
