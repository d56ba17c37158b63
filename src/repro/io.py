"""JSON serialization for problem instances.

Experiments need to persist and exchange instances whose statistics
are exact rationals with thousands of bits; JSON numbers cannot carry
them, so every numeric is encoded as a string (``"num/den"`` for
rationals, decimal digits for integers).  Round-trips are exact.

Supported: :class:`~repro.joinopt.instance.QONInstance`,
:class:`~repro.hashjoin.instance.QOHInstance`,
:class:`~repro.starqo.instance.SQOCPInstance`, and
:class:`~repro.graphs.graph.Graph`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Union

from repro.graphs.graph import Graph
from repro.hashjoin.cost_model import HashJoinCostModel
from repro.hashjoin.instance import QOHInstance
from repro.joinopt.instance import QONInstance
from repro.starqo.instance import SQOCPInstance
from repro.utils.validation import (
    FieldType,
    ValidationError,
    require,
    require_fields,
)

PathLike = Union[str, Path]


def _encode_number(value: Union[int, Fraction]) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    raise ValidationError(
        f"only int/Fraction statistics serialize exactly, got {type(value)!r}"
    )


def _decode_number(text: str) -> Union[int, Fraction]:
    if not isinstance(text, str):
        raise ValidationError(
            "a statistic must be encoded as a string, "
            f"got {type(text).__name__}"
        )
    if "/" in text:
        numerator, denominator = map(int, text.split("/", 1))
        require(denominator != 0, "a statistic has a zero denominator")
        return Fraction(numerator, denominator)
    return int(text)


# What each decoder reads, checked before it reads it: a malformed
# payload is refused with a ValidationError naming the field.
_GRAPH_FIELDS: Dict[str, FieldType] = {"num_vertices": int, "edges": list}
_QON_FIELDS: Dict[str, FieldType] = {
    "graph": dict, "sizes": list, "selectivities": dict,
    "access_costs": dict,
}
_QOH_FIELDS: Dict[str, FieldType] = {
    "graph": dict, "sizes": list, "selectivities": dict, "memory": str,
    "model": dict,
}
_QOH_MODEL_FIELDS: Dict[str, FieldType] = {"psi": str, "g_scale": int}
_SQOCP_FIELDS: Dict[str, FieldType] = {
    "num_satellites": int, "sort_passes": int, "page_size": int,
    "tuples": list, "pages": list, "sort_costs": list,
    "selectivities": list, "satellite_access": list, "center_access": list,
    "threshold": (str, type(None)),
}


# -- graphs -----------------------------------------------------------
def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    return {
        "type": "graph",
        "num_vertices": graph.num_vertices,
        "edges": sorted([u, v] for u, v in graph.edges),
    }


def graph_from_dict(payload: Dict[str, Any]) -> Graph:
    require(payload.get("type") == "graph", "payload is not a graph")
    require_fields(payload, _GRAPH_FIELDS, "graph")
    return Graph(payload["num_vertices"], payload["edges"])


# -- QO_N -------------------------------------------------------------
def qon_to_dict(instance: QONInstance) -> Dict[str, Any]:
    n = instance.num_relations
    return {
        "type": "qon",
        "graph": graph_to_dict(instance.graph),
        "sizes": [_encode_number(instance.size(r)) for r in range(n)],
        "selectivities": {
            f"{i},{j}": _encode_number(instance.selectivity(i, j))
            for i, j in sorted(instance.graph.edges)
        },
        "access_costs": {
            f"{i},{j}": _encode_number(instance.access_cost(i, j))
            for i, j in sorted(instance.graph.edges)
            for i, j in ((i, j), (j, i))
        },
    }


def qon_from_dict(payload: Dict[str, Any]) -> QONInstance:
    require(payload.get("type") == "qon", "payload is not a QO_N instance")
    require_fields(payload, _QON_FIELDS, "qon")
    graph = graph_from_dict(payload["graph"])
    sizes = [_decode_number(text) for text in payload["sizes"]]
    selectivities = {
        tuple(int(part) for part in key.split(",")): _decode_number(text)
        for key, text in payload["selectivities"].items()
    }
    access_costs = {
        tuple(int(part) for part in key.split(",")): _decode_number(text)
        for key, text in payload["access_costs"].items()
    }
    return QONInstance(graph, sizes, selectivities, access_costs)


# -- QO_H -------------------------------------------------------------
def qoh_to_dict(instance: QOHInstance) -> Dict[str, Any]:
    n = instance.num_relations
    return {
        "type": "qoh",
        "graph": graph_to_dict(instance.graph),
        "sizes": [_encode_number(instance.size(r)) for r in range(n)],
        "selectivities": {
            f"{i},{j}": _encode_number(instance.selectivity(i, j))
            for i, j in sorted(instance.graph.edges)
        },
        "memory": _encode_number(instance.memory),
        "model": {
            "psi": _encode_number(instance.model.psi),
            "g_scale": instance.model.g_scale,
        },
    }


def qoh_from_dict(payload: Dict[str, Any]) -> QOHInstance:
    require(payload.get("type") == "qoh", "payload is not a QO_H instance")
    require_fields(payload, _QOH_FIELDS, "qoh")
    require_fields(payload["model"], _QOH_MODEL_FIELDS, "qoh.model")
    graph = graph_from_dict(payload["graph"])
    sizes = [_decode_number(text) for text in payload["sizes"]]
    selectivities = {
        tuple(int(part) for part in key.split(",")): _decode_number(text)
        for key, text in payload["selectivities"].items()
    }
    model = HashJoinCostModel(
        psi=Fraction(_decode_number(payload["model"]["psi"])),
        g_scale=payload["model"]["g_scale"],
    )
    return QOHInstance(
        graph,
        sizes,
        selectivities,
        memory=_decode_number(payload["memory"]),
        model=model,
    )


# -- SQO-CP -----------------------------------------------------------
def sqocp_to_dict(instance: SQOCPInstance) -> Dict[str, Any]:
    m = instance.num_satellites
    return {
        "type": "sqocp",
        "num_satellites": m,
        "sort_passes": instance.sort_passes,
        "page_size": instance.page_size,
        "tuples": [_encode_number(instance.tuples(r)) for r in range(m + 1)],
        "pages": [_encode_number(instance.pages(r)) for r in range(m + 1)],
        "sort_costs": [
            _encode_number(instance.sort_cost(r)) for r in range(m + 1)
        ],
        "selectivities": [
            _encode_number(instance.selectivity(i)) for i in range(1, m + 1)
        ],
        "satellite_access": [
            _encode_number(instance.satellite_access_cost(i))
            for i in range(1, m + 1)
        ],
        "center_access": [
            _encode_number(instance.center_access_cost(i))
            for i in range(1, m + 1)
        ],
        "threshold": (
            _encode_number(instance.threshold)
            if instance.threshold is not None
            else None
        ),
    }


def sqocp_from_dict(payload: Dict[str, Any]) -> SQOCPInstance:
    require(payload.get("type") == "sqocp", "payload is not an SQO-CP instance")
    require_fields(payload, _SQOCP_FIELDS, "sqocp")
    return SQOCPInstance(
        num_satellites=payload["num_satellites"],
        sort_passes=payload["sort_passes"],
        page_size=payload["page_size"],
        tuples=[_decode_number(t) for t in payload["tuples"]],
        pages=[_decode_number(t) for t in payload["pages"]],
        sort_costs=[_decode_number(t) for t in payload["sort_costs"]],
        selectivities=[
            Fraction(_decode_number(t)) for t in payload["selectivities"]
        ],
        satellite_access=[
            _decode_number(t) for t in payload["satellite_access"]
        ],
        center_access=[_decode_number(t) for t in payload["center_access"]],
        threshold=(
            _decode_number(payload["threshold"])
            if payload["threshold"] is not None
            else None
        ),
    )


# -- dispatch ---------------------------------------------------------
_ENCODERS = {
    Graph: graph_to_dict,
    QONInstance: qon_to_dict,
    QOHInstance: qoh_to_dict,
    SQOCPInstance: sqocp_to_dict,
}
_DECODERS = {
    "graph": graph_from_dict,
    "qon": qon_from_dict,
    "qoh": qoh_from_dict,
    "sqocp": sqocp_from_dict,
}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Serialize any supported instance to its plain-dict payload.

    The dict form of :func:`dumps` — the building block the typed
    request layer (:mod:`repro.core.requests`) embeds instances with.
    """
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise ValidationError(f"cannot serialize {type(obj)!r}")
    return encoder(obj)


def from_dict(payload: Dict[str, Any]) -> Any:
    """Deserialize a payload produced by :func:`to_dict` (exactly)."""
    require(isinstance(payload, dict), "instance payload must be a dict")
    decoder = _DECODERS.get(payload.get("type"))
    if decoder is None:
        raise ValidationError(
            f"unknown payload type {payload.get('type')!r}"
        )
    return decoder(payload)


def dumps(obj: Any) -> str:
    """Serialize any supported instance to JSON text."""
    return json.dumps(to_dict(obj), indent=2, sort_keys=True)


def loads(text: str) -> Any:
    """Deserialize JSON text produced by :func:`dumps`."""
    return from_dict(json.loads(text))


def save(obj: Any, path: PathLike) -> None:
    Path(path).write_text(dumps(obj), encoding="ascii")


def load(path: PathLike) -> Any:
    return loads(Path(path).read_text(encoding="ascii"))
