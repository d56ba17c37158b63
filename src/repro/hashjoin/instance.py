"""The QO_H instance model (paper Section 2.2).

``(n, Q=(V,E), S, T, M)``: query graph, selectivities and sizes exactly
as in QO_N, plus the total memory ``M`` available to each pipeline and
the concrete :class:`~repro.hashjoin.cost_model.HashJoinCostModel`.

Relation sizes must be integers (page counts); selectivities are
``Fraction``; intermediate sizes follow the same product estimate
``N(X)`` as QO_N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.graphs.graph import Graph
from repro.hashjoin.cost_model import HashJoinCostModel
from repro.utils.validation import ValidationError, check_index, require

EdgeKey = Tuple[int, int]


def _edge_key(i: int, j: int) -> EdgeKey:
    return (i, j) if i < j else (j, i)


class QOHInstance:
    """A QO_H problem instance."""

    # __weakref__ so caches can memoize per live instance without
    # pinning it (see repro.runtime.costcache / repro.perf.kernels).
    __slots__ = (
        "_graph", "_sizes", "_selectivities", "_memory", "_model",
        "__weakref__",
    )

    def __init__(
        self,
        graph: Graph,
        sizes: Sequence[int],
        selectivities: Mapping[EdgeKey, Fraction],
        memory: int,
        model: HashJoinCostModel = HashJoinCostModel(),
    ) -> None:
        n = graph.num_vertices
        if len(sizes) != n:
            raise ValidationError(f"need {n} sizes, got {len(sizes)}")
        for index, size in enumerate(sizes):
            if not (isinstance(size, int) and size > 0):
                raise ValidationError(
                    f"relation size t_{index} must be a positive int (pages)"
                )
        require(memory > 0, "memory M must be positive")
        normalized: Dict[EdgeKey, Fraction] = {}
        for (i, j), value in selectivities.items():
            check_index(i, n, "selectivity index")
            check_index(j, n, "selectivity index")
            if not graph.has_edge(i, j):
                raise ValidationError(f"selectivity on non-edge ({i},{j})")
            fraction = Fraction(value)
            if not 0 < fraction <= 1:
                raise ValidationError(f"selectivity {fraction} out of (0,1]")
            normalized[_edge_key(i, j)] = fraction
        for edge in graph.edges:
            if edge not in normalized:
                raise ValidationError(f"missing selectivity for edge {edge}")
        self._graph = graph
        self._sizes = tuple(sizes)
        self._selectivities = normalized
        self._memory = memory
        self._model = model

    # -- accessors ---------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def num_relations(self) -> int:
        return self._graph.num_vertices

    @property
    def sizes(self) -> Tuple[int, ...]:
        return self._sizes

    @property
    def memory(self) -> int:
        return self._memory

    @property
    def model(self) -> HashJoinCostModel:
        return self._model

    def size(self, relation: int) -> int:
        return self._sizes[relation]

    def selectivity(self, i: int, j: int) -> Fraction:
        if not self._graph.has_edge(i, j):
            return Fraction(1)
        return self._selectivities[_edge_key(i, j)]

    def hjmin(self, relation: int) -> int:
        """Minimum memory to build a hash table on ``relation``."""
        return self._model.hjmin(self._sizes[relation])

    def __repr__(self) -> str:
        return (
            f"QOHInstance(n={self.num_relations}, "
            f"m={self._graph.num_edges}, M={self._memory})"
        )

    # -- intermediate sizes -------------------------------------------
    def intermediate_sizes(self, sequence: Sequence[int]) -> List[Fraction]:
        """``[N_0, N_1 .. N_{n-1}]`` for the sequence.

        ``N_0`` is the size of the first relation (the outermost
        stream of the first pipeline); ``N_i`` for ``i >= 1`` is the
        output size of join ``J_i``.
        """
        n = self.num_relations
        require(
            len(sequence) == n and sorted(sequence) == list(range(n)),
            f"join sequence must be a permutation of range({n})",
        )
        sizes: List[Fraction] = [Fraction(self.size(sequence[0]))]
        current = sizes[0]
        for position in range(1, n):
            incoming = sequence[position]
            current = current * self.size(incoming)
            for earlier in sequence[:position]:
                selectivity = self.selectivity(earlier, incoming)
                if selectivity != 1:
                    current = current * selectivity
            sizes.append(current)
        return sizes
