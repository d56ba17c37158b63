"""Small validation helpers shared by instance constructors and the
JSON payload validators.

Instances of the optimization problems carry numeric invariants from
the paper (e.g. the access-path bounds ``t_j * s_ij <= w_ij <= t_j``).
Constructors enforce them eagerly so that a malformed instance fails at
build time, not deep inside a cost computation.

The checks on the request path (decoding, encoding and fingerprinting
a service request) run thousands of times per request, so they build
their message only when they fail: ``if not condition: raise
ValidationError(f"...")`` rather than ``require(condition, f"...")``,
whose f-string is formatted on every call.
"""

from __future__ import annotations

from typing import Any, Mapping, Tuple, Union

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
        if name not in payload:
            raise ValidationError(f"{where}: missing field {name!r}")
        value = payload[name]
        if not isinstance(value, kind) or (
            kind is not bool and isinstance(value, bool)
        ):
            raise ValidationError(
                f"{where}.{name}: expected {kind}, "
                f"got {type(value).__name__}"
            )


def check_index(index: int, size: int, name: str) -> None:
    """Require ``0 <= index < size``."""
    if not 0 <= index < size:
        raise ValidationError(f"{name} must lie in [0, {size}), got {index}")
