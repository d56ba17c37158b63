"""Undirected simple graph on vertices ``0 .. n-1``.

A deliberately small, dependency-free adjacency-set implementation;
the reductions need complements, induced subgraphs, disjoint unions
and connectivity checks, all provided here.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.utils.validation import ValidationError, check_index, require

Edge = Tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValidationError(f"self-loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph."""

    __slots__ = ("_n", "_adjacency", "_edges")

    def __init__(self, num_vertices: int,
                 edges: Iterable[Sequence[int]] = ()) -> None:
        require(num_vertices >= 0, "num_vertices must be non-negative")
        self._n = num_vertices
        adjacency: List[Set[int]] = [set() for _ in range(num_vertices)]
        edge_set: Set[Edge] = set()
        for u, v in edges:
            check_index(u, num_vertices, "edge endpoint")
            check_index(v, num_vertices, "edge endpoint")
            edge = _normalize_edge(u, v)
            if edge in edge_set:
                continue
            edge_set.add(edge)
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency = tuple(frozenset(neighbors) for neighbors in adjacency)
        self._edges = frozenset(edge_set)

    # -- accessors ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def vertices(self) -> range:
        return range(self._n)

    def neighbors(self, vertex: int) -> FrozenSet[int]:
        check_index(vertex, self._n, "vertex")
        return self._adjacency[vertex]

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        check_index(u, self._n, "vertex")
        check_index(v, self._n, "vertex")
        return v in self._adjacency[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.num_edges})"

    # -- derived graphs ----------------------------------------------
    def complement(self) -> "Graph":
        """The complement graph (no self-loops)."""
        missing = [
            (u, v)
            for u, v in itertools.combinations(range(self._n), 2)
            if v not in self._adjacency[u]
        ]
        return Graph(self._n, missing)

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced by ``vertices``, relabelled to ``0..k-1``.

        The relabelling follows the order of ``vertices``.
        """
        index = {v: i for i, v in enumerate(vertices)}
        require(len(index) == len(vertices), "duplicate vertices")
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        return Graph(len(vertices), edges)

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        shifted = [(u + self._n, v + self._n) for u, v in other._edges]
        return Graph(self._n + other._n, list(self._edges) + shifted)

    def with_edges(self, extra_edges: Iterable[Sequence[int]]) -> "Graph":
        """A copy with additional edges."""
        return Graph(self._n, list(self._edges) + [tuple(e) for e in extra_edges])

    def add_universal_vertices(self, count: int) -> "Graph":
        """Append ``count`` vertices adjacent to everything (old and new).

        This is the padding step of Lemmas 3 and 4.
        """
        require(count >= 0, "count must be non-negative")
        n = self._n
        new_edges: List[Edge] = list(self._edges)
        for offset in range(count):
            w = n + offset
            for u in range(w):
                new_edges.append((u, w))
        return Graph(n + count, new_edges)

    # -- structure ---------------------------------------------------
    def edges_within(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints in ``vertices``."""
        vertex_set = set(vertices)
        return sum(
            1 for u, v in self._edges if u in vertex_set and v in vertex_set
        )

    def is_connected(self) -> bool:
        """True for the empty graph and any connected graph."""
        if self._n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            vertex = frontier.pop()
            for neighbor in self._adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self._n

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in range(self._n):
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                vertex = frontier.pop()
                for neighbor in self._adjacency[vertex]:
                    if neighbor not in component:
                        component.add(neighbor)
                        frontier.append(neighbor)
            seen |= component
            components.append(sorted(component))
        return components

    def degree_sequence(self) -> List[int]:
        """Degrees in vertex order."""
        return [len(self._adjacency[v]) for v in range(self._n)]
