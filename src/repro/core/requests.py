"""Typed, versioned, JSON-serializable request/reply objects.

The ``repro.api`` facade takes its work as three frozen dataclasses
that round-trip through JSON *exactly* (the prerequisite for the
``repro.rpc/1`` wire protocol the service daemon speaks):

* :class:`OptimizeRequest` — one optimizer on one instance;
* :class:`SweepSpec` — an optimizer x instance grid plus the runner
  settings that shape its outcomes;
* :class:`ServiceReply` — the service envelope carrying a decoded
  result (:class:`~repro.core.results.PlanResult`, a reconstructed
  :class:`~repro.runtime.runner.SweepResult`, or plain data) together
  with cache/dedup/backpressure metadata.

Exactness contract: every numeric travels through the same
string-encoded forms :mod:`repro.io` uses (decimal digits for ``int``,
``"num/den"`` for :class:`~fractions.Fraction`, ``repr`` floats for
:class:`~repro.utils.lognum.LogNumber` log2 magnitudes), so a decoded
:class:`PlanResult` equals the original in value, type *and* repr —
the bit-identity the service result cache is tested against.

Fingerprints: :meth:`OptimizeRequest.fingerprint` /
:meth:`SweepSpec.fingerprint` reuse the journal layer's stable
instance/optimizer hash (:func:`repro.runtime.journal.request_fingerprint`),
so the daemon's dedup map and result cache key on content, not on
object identity or arrival order.  The ``no_cache`` delivery flag is
deliberately excluded from the fingerprint — bypassing the cache must
not change what a request *is*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import io
from repro.core.results import PlanResult
from repro.utils.lognum import LogNumber
from repro.utils.validation import (
    FieldType,
    ValidationError,
    require,
    require_fields,
)

#: Schema tag stamped on every request payload.
REQUEST_SCHEMA = "repro.request/1"

#: Schema tag stamped on every reply payload.
REPLY_SCHEMA = "repro.reply/1"

#: Reply delivery states.
REPLY_STATUSES = ("ok", "error", "rejected")


# ---------------------------------------------------------------------
# Scalar codec (request params and runner settings)
# ---------------------------------------------------------------------

_PLAIN_SCALARS = (bool, int, float, str)


def encode_value(value: Any) -> Any:
    """Encode one request parameter value as JSON-safe data.

    ``None``/``bool``/``int``/``float``/``str`` pass through (Python's
    ``json`` keeps arbitrary-precision ints and shortest-repr floats
    exact); :class:`Fraction` is tagged; flat lists/tuples recurse.
    Anything else is a validation error — request parameters must be
    wire-safe by construction.
    """
    if value is None or isinstance(value, _PLAIN_SCALARS):
        return value
    if isinstance(value, Fraction):
        return {"$kind": "fraction",
                "value": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, tuple):
        return {"$kind": "tuple", "value": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    raise ValidationError(
        f"request parameter of type {type(value).__name__!r} is not "
        "JSON-serializable; pass int/float/str/bool/None/Fraction or "
        "flat lists/tuples of those"
    )


def decode_value(payload: Any) -> Any:
    """Invert :func:`encode_value` exactly."""
    if payload is None or isinstance(payload, _PLAIN_SCALARS):
        return payload
    if isinstance(payload, list):
        return [decode_value(v) for v in payload]
    if isinstance(payload, dict):
        kind = payload.get("$kind")
        if kind == "fraction":
            text = payload.get("value")
            require(isinstance(text, str), "a fraction value must be a string")
            numerator, denominator = map(int, text.split("/", 1))
            require(denominator != 0, "a fraction has a zero denominator")
            return Fraction(numerator, denominator)
        if kind == "tuple":
            return tuple(decode_value(v) for v in payload["value"])
        raise ValidationError(f"unknown tagged value kind {kind!r}")
    raise ValidationError(
        f"cannot decode request parameter payload {payload!r}"
    )


# ---------------------------------------------------------------------
# Cost codec (PlanResult.cost: int | Fraction | LogNumber | float)
# ---------------------------------------------------------------------


def encode_cost(value: Any) -> Dict[str, str]:
    """Encode a plan cost with its exact type preserved."""
    if isinstance(value, bool):
        raise ValidationError("a plan cost cannot be a bool")
    if isinstance(value, int):
        return {"kind": "int", "value": str(value)}
    if isinstance(value, Fraction):
        return {"kind": "fraction",
                "value": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, LogNumber):
        # repr of a float round-trips exactly; "inf"/"-inf" included.
        return {"kind": "log2", "value": repr(value.log2)}
    if isinstance(value, float):
        return {"kind": "float", "value": repr(value)}
    raise ValidationError(
        f"cannot encode plan cost of type {type(value).__name__!r}"
    )


def decode_cost(payload: Dict[str, str]) -> Any:
    """Invert :func:`encode_cost` bit-identically."""
    require(isinstance(payload, dict), "cost payload must be a dict")
    kind = payload.get("kind")
    text = payload.get("value")
    require(isinstance(text, str), "cost payload value must be a string")
    assert isinstance(text, str)
    if kind == "int":
        return int(text)
    if kind == "fraction":
        numerator, denominator = text.split("/", 1)
        return Fraction(int(numerator), int(denominator))
    if kind == "log2":
        return LogNumber.from_log2(float(text))
    if kind == "float":
        return float(text)
    raise ValidationError(f"unknown cost kind {kind!r}")


# ---------------------------------------------------------------------
# Plan codec (PlanResult.plan: None | PipelineDecomposition | StarPlan)
# ---------------------------------------------------------------------


def encode_plan(plan: Any) -> Optional[Dict[str, Any]]:
    """Encode the substrate-specific plan object, or None."""
    if plan is None:
        return None
    from repro.hashjoin.pipeline import PipelineDecomposition
    from repro.starqo.instance import StarPlan

    if isinstance(plan, PipelineDecomposition):
        return {
            "kind": "pipelines",
            "pipelines": [
                [pipeline.first_join, pipeline.last_join]
                for pipeline in plan.pipelines
            ],
        }
    if isinstance(plan, StarPlan):
        return {
            "kind": "star",
            "sequence": list(plan.sequence),
            "methods": [method.value for method in plan.methods],
        }
    raise ValidationError(
        f"cannot encode plan of type {type(plan).__name__!r}"
    )


def decode_plan(payload: Optional[Dict[str, Any]]) -> Any:
    """Invert :func:`encode_plan` exactly."""
    if payload is None:
        return None
    require(isinstance(payload, dict), "plan payload must be a dict")
    kind = payload.get("kind")
    if kind == "pipelines":
        from repro.hashjoin.pipeline import Pipeline, PipelineDecomposition

        return PipelineDecomposition(tuple(
            Pipeline(first, last) for first, last in payload["pipelines"]
        ))
    if kind == "star":
        from repro.starqo.instance import JoinMethod, StarPlan

        return StarPlan(
            sequence=tuple(payload["sequence"]),
            methods=tuple(JoinMethod(m) for m in payload["methods"]),
        )
    raise ValidationError(f"unknown plan kind {kind!r}")


# ---------------------------------------------------------------------
# PlanResult codec
# ---------------------------------------------------------------------


def result_to_dict(result: PlanResult) -> Dict[str, Any]:
    """Encode a :class:`PlanResult` for the wire, exactly."""
    return {
        "type": "plan_result",
        "cost": encode_cost(result.cost),
        "sequence": list(result.sequence),
        "optimizer": result.optimizer,
        "explored": result.explored,
        "is_exact": result.is_exact,
        "plan": encode_plan(result.plan),
        "trace": result.trace,
    }


_RESULT_FIELDS: Dict[str, FieldType] = {
    "cost": dict,
    "sequence": list,
    "optimizer": str,
    "explored": int,
    "is_exact": bool,
    "plan": (dict, type(None)),
}


def result_from_dict(payload: Dict[str, Any]) -> PlanResult:
    """Decode :func:`result_to_dict` output into an equal result.

    The round-trip preserves value, type and repr for every field —
    the service-cache bit-identity contract.
    """
    require(isinstance(payload, dict), "result payload must be a dict")
    if payload.get("type") != "plan_result":
        raise ValidationError(
            f"result payload type must be 'plan_result', "
            f"got {payload.get('type')!r}"
        )
    require_fields(payload, _RESULT_FIELDS, "result")
    return PlanResult(
        cost=decode_cost(payload["cost"]),
        sequence=tuple(payload["sequence"]),
        optimizer=payload["optimizer"],
        explored=payload["explored"],
        is_exact=payload["is_exact"],
        plan=decode_plan(payload["plan"]),
        trace=payload.get("trace"),
    )


# ---------------------------------------------------------------------
# Sweep outcome / result codec
# ---------------------------------------------------------------------


def outcome_to_dict(outcome: Any) -> Dict[str, Any]:
    """Encode one :class:`~repro.runtime.runner.TaskOutcome`.

    The task-outcome record plus ``result`` in the typed codec above;
    per-task span trees stay on the server (the reply-level trace
    covers the request).
    """
    return {
        **outcome.to_record(),
        "result": (
            result_to_dict(outcome.result)
            if isinstance(outcome.result, PlanResult) else None
        ),
    }


def outcome_from_dict(payload: Any, where: str = "outcome") -> Any:
    """Validate and decode :func:`outcome_to_dict` output into a real
    TaskOutcome; ``where`` names the payload in error messages."""
    from repro.runtime.runner import TaskOutcome, validate_task_record

    validate_task_record(payload, where)
    if "result" not in payload:
        raise ValidationError(f"{where}: missing field 'result'")
    encoded = payload["result"]
    return TaskOutcome.from_record(
        payload,
        result=None if encoded is None else result_from_dict(encoded),
    )


def sweep_result_to_dict(result: Any) -> Dict[str, Any]:
    """Encode a :class:`~repro.runtime.runner.SweepResult`."""
    return {
        "type": "sweep_result",
        "mode": result.mode,
        "workers": result.workers,
        "cache_enabled": result.cache_enabled,
        "wall_time_s": result.wall_time,
        "retries": result.retries,
        "recovered_workers": result.recovered_workers,
        "resumed": result.resumed,
        "executor": result.executor.to_dict(),
        "outcomes": [outcome_to_dict(outcome) for outcome in result],
    }


_SWEEP_RESULT_FIELDS: Dict[str, FieldType] = {
    "mode": str,
    "workers": int,
    "cache_enabled": bool,
    "wall_time_s": (int, float),
    "retries": int,
    "recovered_workers": int,
    "resumed": int,
    "outcomes": list,
}


def sweep_result_from_dict(payload: Dict[str, Any]) -> Any:
    """Decode into a real :class:`SweepResult` (traces stay remote)."""
    from repro.runtime.runner import ExecutorStats, SweepResult

    if payload.get("type") != "sweep_result":
        raise ValidationError(
            f"sweep payload type must be 'sweep_result', "
            f"got {payload.get('type')!r}"
        )
    require_fields(payload, _SWEEP_RESULT_FIELDS, "sweep_result")
    outcomes = payload["outcomes"]
    # Additive: payloads encoded before executor stats existed decode
    # to all-zero counters.
    executor = payload.get("executor") or {}
    return SweepResult(
        outcomes=tuple(
            outcome_from_dict(entry, f"sweep_result.outcomes[{position}]")
            for position, entry in enumerate(outcomes)
        ),
        mode=payload["mode"],
        workers=payload["workers"],
        cache_enabled=payload["cache_enabled"],
        wall_time=payload["wall_time_s"],
        retries=payload["retries"],
        recovered_workers=payload["recovered_workers"],
        resumed=payload["resumed"],
        executor=ExecutorStats(
            ship_bytes=executor.get("ship_bytes", 0),
            registry_hits=executor.get("registry_hits", 0),
            kernels_compiled=executor.get("kernels_compiled", 0),
            chunks=executor.get("chunks", 0),
        ),
    )


# ---------------------------------------------------------------------
# OptimizeRequest
# ---------------------------------------------------------------------

Params = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class OptimizeRequest:
    """One optimizer run on one instance, as plain data.

    ``params`` holds the per-optimizer keyword arguments as a sorted
    item tuple (hashable, deterministic repr); build one with
    :meth:`build` to normalize kwargs.  ``no_cache`` asks the service
    to bypass its result cache for this delivery — it is *not* part of
    the request's identity (:meth:`fingerprint`).

    ``trace_id``/``parent_span`` carry the caller's trace context
    across the RPC boundary: the daemon stitches its server-side span
    subtree under ``parent_span`` of the distributed trace named by
    ``trace_id``.  Like ``no_cache`` they are delivery metadata,
    excluded from the fingerprint — tracing a request must not change
    what it *is* (or which cache entry answers it).
    """

    instance: Any
    algorithm: str = "dp"
    params: Params = ()
    no_cache: bool = False
    trace_id: Optional[str] = None
    parent_span: Optional[int] = None

    @classmethod
    def build(
        cls,
        instance: Any,
        algorithm: str = "dp",
        no_cache: bool = False,
        trace_id: Optional[str] = None,
        parent_span: Optional[int] = None,
        **kwargs: Any,
    ) -> "OptimizeRequest":
        """Normalize an old-style kwarg call into a request object."""
        return cls(
            instance=instance,
            algorithm=algorithm,
            params=tuple(sorted(kwargs.items())),
            no_cache=no_cache,
            trace_id=trace_id,
            parent_span=parent_span,
        )

    def kwargs(self) -> Dict[str, Any]:
        """The params as the keyword mapping the optimizer receives."""
        return dict(self.params)

    def fingerprint(self) -> str:
        """Stable content hash (journal-layer identity); delivery
        flags excluded."""
        from repro.runtime.journal import request_fingerprint

        return request_fingerprint(
            "optimize",
            self.instance,
            optimizer=self.algorithm,
            params=self.params,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REQUEST_SCHEMA,
            "type": "optimize_request",
            "instance": io.to_dict(self.instance),
            "algorithm": self.algorithm,
            "params": [
                [name, encode_value(value)] for name, value in self.params
            ],
            "no_cache": self.no_cache,
            "trace_id": self.trace_id,
            "parent_span": self.parent_span,
        }

    def to_json(self) -> str:
        """Exact JSON form (deterministic key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OptimizeRequest":
        validate_request(payload)
        if payload["type"] != "optimize_request":
            raise ValidationError(
                "expected an optimize_request payload, "
                f"got {payload['type']!r}"
            )
        return cls(
            instance=io.from_dict(payload["instance"]),
            algorithm=payload["algorithm"],
            params=tuple(
                (name, decode_value(value))
                for name, value in payload["params"]
            ),
            no_cache=payload["no_cache"],
            # Additive: payloads encoded before trace contexts existed
            # decode to an untraced request.
            trace_id=payload.get("trace_id"),
            parent_span=payload.get("parent_span"),
        )

    @classmethod
    def from_json(cls, text: str) -> "OptimizeRequest":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------

#: Per-cell kwargs: ``(optimizer name, instance label, sorted items)``.
CellParams = Tuple[Tuple[str, str, Params], ...]


@dataclass(frozen=True)
class SweepSpec:
    """An optimizer x instance grid plus the runner settings.

    The one input form of ``api.sweep``.  ``params`` holds the per-cell
    optimizer kwargs as data; :meth:`kwargs_for` looks one cell up.
    Host-local operational arguments (journal path, resume) stay
    *outside* the spec — a spec must be safe to accept over a socket.
    """

    optimizers: Tuple[str, ...]
    instances: Tuple[Tuple[str, Any], ...]
    params: CellParams = ()
    workers: Optional[int] = None
    cache: bool = True
    cache_maxsize: Optional[int] = None
    timeout: Optional[float] = None
    trace: bool = False
    retries: int = 1
    backoff: float = 0.0
    no_cache: bool = False

    @classmethod
    def build(
        cls,
        optimizers: Sequence[str],
        instances: Sequence[Tuple[str, Any]],
        params: Optional[Mapping[Tuple[str, str], Mapping[str, Any]]] = None,
        **settings: Any,
    ) -> "SweepSpec":
        """Normalize sequences/mappings into the frozen spec form."""
        cells: List[Tuple[str, str, Params]] = []
        for (name, label), kwargs in sorted((params or {}).items()):
            if not kwargs:
                continue
            cells.append((name, label, tuple(sorted(kwargs.items()))))
        return cls(
            optimizers=tuple(optimizers),
            instances=tuple((label, inst) for label, inst in instances),
            params=tuple(cells),
            **settings,
        )

    @cached_property
    def _cells(self) -> Dict[Tuple[str, str], Params]:
        cells: Dict[Tuple[str, str], Params] = {}
        for name, label, items in self.params:
            cells.setdefault((name, label), items)  # first entry wins
        return cells

    def kwargs_for(self, name: str, label: str) -> Dict[str, Any]:
        """The per-cell kwargs hook: one dict lookup per call, the
        cell table built once per spec."""
        return dict(self._cells.get((name, label), ()))

    def fingerprint(self) -> str:
        """Stable content hash over every cell plus the runner
        settings that shape the reply (counters depend on workers and
        cache configuration, so those are part of the identity)."""
        from repro.runtime.journal import request_fingerprint
        from repro.runtime.registry import instance_key

        tokens = "+".join(
            f"{label}:{instance_key(instance)}"
            for label, instance in self.instances
        )
        extra = (
            f"optimizers={self.optimizers!r}|params={self.params!r}|"
            f"workers={self.workers}|cache={self.cache}|"
            f"cache_maxsize={self.cache_maxsize}|timeout={self.timeout}|"
            f"trace={self.trace}|retries={self.retries}|"
            f"backoff={self.backoff}"
        )
        return request_fingerprint("sweep", tokens, extra=extra)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REQUEST_SCHEMA,
            "type": "sweep_spec",
            "optimizers": list(self.optimizers),
            "instances": [
                [label, io.to_dict(instance)]
                for label, instance in self.instances
            ],
            "params": [
                [name, label,
                 [[key, encode_value(value)] for key, value in items]]
                for name, label, items in self.params
            ],
            "workers": self.workers,
            "cache": self.cache,
            "cache_maxsize": self.cache_maxsize,
            "timeout": self.timeout,
            "trace": self.trace,
            "retries": self.retries,
            "backoff": self.backoff,
            "no_cache": self.no_cache,
        }

    def to_json(self) -> str:
        """Exact JSON form (deterministic key order)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        validate_request(payload)
        if payload["type"] != "sweep_spec":
            raise ValidationError(
                f"expected a sweep_spec payload, got {payload['type']!r}"
            )
        return cls(
            optimizers=tuple(payload["optimizers"]),
            instances=tuple(
                (label, io.from_dict(entry))
                for label, entry in payload["instances"]
            ),
            params=tuple(
                (name, label, tuple(
                    (key, decode_value(value)) for key, value in items
                ))
                for name, label, items in payload["params"]
            ),
            workers=payload["workers"],
            cache=payload["cache"],
            cache_maxsize=payload["cache_maxsize"],
            timeout=payload["timeout"],
            trace=payload["trace"],
            retries=payload["retries"],
            backoff=payload["backoff"],
            no_cache=payload["no_cache"],
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------
# Request payload validation
# ---------------------------------------------------------------------

_REQUEST_TYPES = ("optimize_request", "sweep_spec")

_OPTIMIZE_FIELDS: Dict[str, FieldType] = {
    "instance": dict,
    "algorithm": str,
    "params": list,
    "no_cache": bool,
}

_SWEEP_FIELDS: Dict[str, FieldType] = {
    "optimizers": list,
    "instances": list,
    "params": list,
    "cache": bool,
    "trace": bool,
    "retries": int,
    "backoff": (int, float),
    "no_cache": bool,
}


def validate_request(payload: Dict[str, Any]) -> None:
    """Schema-check a request payload; raises :class:`ValidationError`.

    Shared by :meth:`OptimizeRequest.from_dict` /
    :meth:`SweepSpec.from_dict` and the service's frame handler, so a
    malformed request is rejected with a message instead of a stack
    trace deep inside a decoder.
    """
    require(isinstance(payload, dict), "request payload must be a dict")
    if payload.get("schema") != REQUEST_SCHEMA:
        raise ValidationError(
            f"request schema must be {REQUEST_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    kind = payload.get("type")
    if kind not in _REQUEST_TYPES:
        raise ValidationError(
            f"request type must be one of {list(_REQUEST_TYPES)}, "
            f"got {kind!r}"
        )
    require_fields(
        payload,
        _OPTIMIZE_FIELDS if kind == "optimize_request" else _SWEEP_FIELDS,
        "request",
    )
    if kind == "optimize_request":
        # Optional trace-context delivery metadata (additive fields).
        trace_id = payload.get("trace_id")
        require(
            trace_id is None or isinstance(trace_id, str),
            "request.trace_id must be null or a string",
        )
        parent_span = payload.get("parent_span")
        require(
            parent_span is None
            or (isinstance(parent_span, int)
                and not isinstance(parent_span, bool)
                and parent_span >= 0),
            "request.parent_span must be null or a non-negative int",
        )
    if kind == "sweep_spec":
        for name in ("workers", "cache_maxsize"):
            if name not in payload:
                raise ValidationError(f"request: missing field {name!r}")
            value = payload[name]
            if not (
                value is None
                or (isinstance(value, int) and not isinstance(value, bool))
            ):
                raise ValidationError(
                    f"request.{name} must be null or an int"
                )
        require("timeout" in payload, "request: missing field 'timeout'")
        timeout = payload["timeout"]
        require(
            timeout is None
            or (isinstance(timeout, (int, float))
                and not isinstance(timeout, bool)),
            "request.timeout must be null or a number",
        )


# ---------------------------------------------------------------------
# ServiceReply
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceReply:
    """The service's answer to one request.

    ``status`` is ``"ok"`` (result attached), ``"error"`` (the
    computation failed; ``error`` says why) or ``"rejected"``
    (admission control; ``retry_after`` suggests when to come back —
    a rejected request is *never* silently dropped).  ``cached`` and
    ``coalesced`` report how the result was produced; ``counters``
    carries the request span tree's counter totals and
    ``trace_records`` the tree itself when the request asked for it.
    """

    op: str
    status: str = "ok"
    result: Any = None
    error: Optional[str] = None
    retry_after: Optional[float] = None
    cached: bool = False
    coalesced: bool = False
    fingerprint: Optional[str] = None
    wall_time_s: float = 0.0
    counters: Tuple[Tuple[str, int], ...] = ()
    trace_records: Optional[Tuple[Dict[str, Any], ...]] = field(
        default=None, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    def _encode_result(self) -> Any:
        if self.result is None:
            return None
        if isinstance(self.result, PlanResult):
            return result_to_dict(self.result)
        if isinstance(self.result, dict):
            return {"type": "data", "value": self.result}
        # Anything else must quack like a SweepResult.
        return sweep_result_to_dict(self.result)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPLY_SCHEMA,
            "type": "service_reply",
            "op": self.op,
            "status": self.status,
            "result": self._encode_result(),
            "error": self.error,
            "retry_after": self.retry_after,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "fingerprint": self.fingerprint,
            "wall_time_s": self.wall_time_s,
            "counters": {name: value for name, value in self.counters},
            "trace_records": (
                [dict(record) for record in self.trace_records]
                if self.trace_records is not None else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceReply":
        validate_reply(payload)
        encoded = payload["result"]
        result: Any = None
        if encoded is not None:
            kind = encoded.get("type")
            if kind == "plan_result":
                result = result_from_dict(encoded)
            elif kind == "sweep_result":
                result = sweep_result_from_dict(encoded)
            elif kind == "data":
                result = encoded["value"]
            else:
                raise ValidationError(f"unknown reply result type {kind!r}")
        return cls(
            op=payload["op"],
            status=payload["status"],
            result=result,
            error=payload["error"],
            retry_after=payload["retry_after"],
            cached=payload["cached"],
            coalesced=payload["coalesced"],
            fingerprint=payload["fingerprint"],
            wall_time_s=payload["wall_time_s"],
            counters=tuple(sorted(payload["counters"].items())),
            trace_records=(
                tuple(dict(record) for record in payload["trace_records"])
                if payload["trace_records"] is not None else None
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServiceReply":
        return cls.from_dict(json.loads(text))


_REPLY_FIELDS: Dict[str, FieldType] = {
    "op": str,
    "status": str,
    "cached": bool,
    "coalesced": bool,
    "wall_time_s": (int, float),
    "counters": dict,
}


def validate_reply(payload: Dict[str, Any]) -> None:
    """Schema-check a reply payload; raises :class:`ValidationError`."""
    require(isinstance(payload, dict), "reply payload must be a dict")
    if payload.get("schema") != REPLY_SCHEMA:
        raise ValidationError(
            f"reply schema must be {REPLY_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    if payload.get("type") != "service_reply":
        raise ValidationError(
            "reply type must be 'service_reply', "
            f"got {payload.get('type')!r}"
        )
    require_fields(payload, _REPLY_FIELDS, "reply")
    if payload["status"] not in REPLY_STATUSES:
        raise ValidationError(
            f"reply.status must be one of {list(REPLY_STATUSES)}, "
            f"got {payload['status']!r}"
        )
    for name in ("error", "fingerprint"):
        if name not in payload:
            raise ValidationError(f"reply: missing field {name!r}")
        value = payload[name]
        if not (value is None or isinstance(value, str)):
            raise ValidationError(f"reply.{name} must be null or a string")
    require("retry_after" in payload, "reply: missing field 'retry_after'")
    retry_after = payload["retry_after"]
    require(
        retry_after is None
        or (isinstance(retry_after, (int, float))
            and not isinstance(retry_after, bool)),
        "reply.retry_after must be null or a number",
    )
    require("result" in payload, "reply: missing field 'result'")
    require(
        payload["result"] is None or isinstance(payload["result"], dict),
        "reply.result must be null or a dict",
    )
    require(
        payload["status"] == "ok" or payload["result"] is None
        or payload["result"].get("type") == "data",
        "a non-ok reply carries no computed result",
    )
    require(
        "trace_records" in payload, "reply: missing field 'trace_records'"
    )
    require(
        payload["trace_records"] is None
        or isinstance(payload["trace_records"], list),
        "reply.trace_records must be null or a list of span dicts",
    )


__all__ = [
    "REPLY_SCHEMA",
    "REPLY_STATUSES",
    "REQUEST_SCHEMA",
    "OptimizeRequest",
    "ServiceReply",
    "SweepSpec",
    "decode_cost",
    "decode_plan",
    "decode_value",
    "encode_cost",
    "encode_plan",
    "encode_value",
    "outcome_from_dict",
    "outcome_to_dict",
    "result_from_dict",
    "result_to_dict",
    "sweep_result_from_dict",
    "sweep_result_to_dict",
    "validate_reply",
    "validate_request",
]
