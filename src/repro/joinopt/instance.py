"""The QO_N instance model (paper Section 2.1.1).

An instance is a five-tuple ``(n, Q=(V,E), S, T, W)``:

* ``Q`` — undirected query graph; an edge means a join predicate;
* ``S`` — symmetric selectivities ``s_ij`` (1 for non-edges);
* ``T`` — relation sizes ``t_1 .. t_n`` in tuples (= pages, the paper
  fixes tuple size at one page);
* ``W`` — access-path costs: ``w_ij`` is the least cost of probing
  relation ``R_j`` given one tuple carrying join attributes of ``R_i``.
  The paper constrains ``t_j * s_ij <= w_ij <= t_j`` for edges and
  forces ``w_ij = t_j`` for non-edges (every tuple of ``R_j``
  qualifies, so a full scan is unavoidable).

Index-orientation note: the paper writes ``H_i(Z) = N(X) min_{v_k in X}
w_{jk}`` for incoming relation ``R_j``, while its own constraint set
(``w_ij in [t_j s_ij, t_j]``, "all tuples of R_j accessed once")
defines ``w_ij`` as the probe cost *into* ``R_j``.  We follow the
constraint semantics: the cost of bringing ``R_j`` into a prefix ``X``
uses ``min_{k in X} w[k][j]``.  Under the paper's reduction (uniform
``w`` on edges, ``t`` off edges) both readings give identical costs.

Numeric genericity: sizes, selectivities and access costs may be
``int``, ``Fraction`` or :class:`~repro.utils.lognum.LogNumber`; the
cost functions only use ``*``, ``+`` and comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.utils.lognum import LogNumber
from repro.utils.validation import ValidationError, check_index, require

EdgeKey = Tuple[int, int]


def _edge_key(i: int, j: int) -> EdgeKey:
    return (i, j) if i < j else (j, i)


class QONInstance:
    """A QO_N problem instance.

    Args:
        graph: the query graph on vertices ``0 .. n-1``.
        sizes: relation sizes ``t_0 .. t_{n-1}``.
        selectivities: mapping ``(i, j) -> s_ij`` for each edge of the
            graph (either orientation accepted; missing edges raise).
        access_costs: optional mapping ``(i, j) -> w_ij`` (ordered
            pairs; ``w_ij`` is the probe cost into ``R_j``).  Defaults
            to the paper's lower bound ``t_j * s_ij`` on edges.
        validate: skip bound checking when False (used by the
            LogNumber sweeps, where exact comparisons are meaningless).
    """

    # __weakref__ so caches can memoize per live instance without
    # pinning it (see repro.runtime.costcache / repro.perf.kernels).
    __slots__ = (
        "_graph", "_sizes", "_selectivities", "_access_costs", "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        sizes: Sequence,
        selectivities: Mapping[EdgeKey, object],
        access_costs: Optional[Mapping[EdgeKey, object]] = None,
        validate: bool = True,
    ) -> None:
        n = graph.num_vertices
        if len(sizes) != n:
            raise ValidationError(f"need {n} sizes, got {len(sizes)}")
        self._graph = graph
        self._sizes = tuple(sizes)

        normalized: Dict[EdgeKey, object] = {}
        for (i, j), value in selectivities.items():
            check_index(i, n, "selectivity index")
            check_index(j, n, "selectivity index")
            if not graph.has_edge(i, j):
                raise ValidationError(f"selectivity on non-edge ({i},{j})")
            key = _edge_key(i, j)
            if key in normalized and normalized[key] != value:
                raise ValidationError(
                    f"conflicting selectivities for edge {key}"
                )
            normalized[key] = value
        for edge in graph.edges:
            if edge not in normalized:
                raise ValidationError(f"missing selectivity for edge {edge}")
        self._selectivities = normalized

        costs: Dict[Tuple[int, int], object] = {}
        if access_costs is not None:
            for (i, j), value in access_costs.items():
                check_index(i, n, "access-cost index")
                check_index(j, n, "access-cost index")
                require(i != j, "access cost requires distinct relations")
                costs[(i, j)] = value
        # Fill defaults for edges: the lower bound t_j * s_ij.
        for i, j in graph.edges:
            for a, b in ((i, j), (j, i)):
                if (a, b) not in costs:
                    costs[(a, b)] = self._sizes[b] * self.selectivity(a, b)
        self._access_costs = costs

        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.num_relations
        for t_index, t in enumerate(self._sizes):
            if not t > 0:
                raise ValidationError(
                    f"relation size t_{t_index} must be positive"
                )
        for key, s in self._selectivities.items():
            if not 0 < s <= 1:
                raise ValidationError(f"selectivity {key} must lie in (0, 1]")
        for (i, j), w in self._access_costs.items():
            t_j = self._sizes[j]
            if self._graph.has_edge(i, j):
                lower = t_j * self.selectivity(i, j)
                if not lower <= w <= t_j:
                    raise ValidationError(
                        f"w[{i}][{j}]={w!r} violates [{lower!r}, {t_j!r}]"
                    )

    # -- accessors ---------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def num_relations(self) -> int:
        return self._graph.num_vertices

    @property
    def sizes(self) -> Tuple:
        return self._sizes

    def size(self, relation: int) -> object:
        """t_j, the number of tuples (= pages) of relation j."""
        return self._sizes[relation]

    def selectivity(self, i: int, j: int) -> object:
        """s_ij; 1 when there is no predicate between R_i and R_j."""
        if not self._graph.has_edge(i, j):
            return 1
        return self._selectivities[_edge_key(i, j)]

    def access_cost(self, i: int, j: int) -> object:
        """w_ij: least cost of probing R_j given one tuple of R_i.

        For non-edges this is ``t_j`` (all tuples of R_j qualify).
        """
        require(i != j, "access cost requires distinct relations")
        if not self._graph.has_edge(i, j):
            return self._sizes[j]
        return self._access_costs[(i, j)]

    def __repr__(self) -> str:
        return (
            f"QONInstance(n={self.num_relations}, "
            f"m={self._graph.num_edges})"
        )

    # -- conversions -------------------------------------------------
    def to_log_domain(self) -> "QONInstance":
        """The same instance with every numeric field as LogNumber.

        Exact ``Fraction``/``int`` magnitudes become log2 floats —
        orders of magnitude faster for large sweeps at the price of
        float precision (~15 significant digits in the exponent).
        """
        return QONInstance(
            self._graph,
            [LogNumber(t) for t in self._sizes],
            {key: LogNumber(s) for key, s in self._selectivities.items()},
            {key: LogNumber(w) for key, w in self._access_costs.items()},
            validate=False,
        )
