"""Finite labeled graphs presenting sofic shift spaces.

A labeled graph here is always *left-resolving* (for every vertex and
every symbol there is at most one incoming edge carrying that symbol)
and *essential* (every vertex has at least one incoming and one
outgoing edge).  Validation enforces both, plus that every alphabet
symbol actually labels an edge; the constructors of downstream
structures may then rely on these properties.

Vertices and symbols are referred to by their string ids externally and
by dense 0-based indices internally.  The declared orders of the vertex
list and the alphabet are significant: supports, words and reports are
all sorted against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DuplicateEdge,
    EmptyGraph,
    NotEssential,
    NotLeftResolving,
    UnknownSymbol,
    UnknownVertex,
    UnusedSymbol,
)

__all__ = [
    "Edge",
    "LabeledGraph",
    "validate_graph",
    "full_shift_graph",
]

MAX_VERTICES = 1000
MAX_EDGES = 10_000


class Edge(NamedTuple):
    src: str
    dst: str
    symbol: str


@dataclass(frozen=True)
class LabeledGraph:
    """A validated left-resolving essential labeled graph."""

    vertices: tuple[str, ...]
    alphabet: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Per vertex index: tuple of (target index, symbol)."""
        out: list[list[tuple[int, str]]] = [[] for _ in self.vertices]
        vi = self.vertex_index
        for e in self.edges:
            out[vi[e.src]].append((vi[e.dst], e.symbol))
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def in_edges(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        """Per vertex index: tuple of (source index, symbol)."""
        into: list[list[tuple[int, str]]] = [[] for _ in self.vertices]
        vi = self.vertex_index
        for e in self.edges:
            into[vi[e.dst]].append((vi[e.src], e.symbol))
        return tuple(tuple(lst) for lst in into)

    @cached_property
    def successors(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """(source index, symbol) -> sorted target indices."""
        acc: dict[tuple[int, str], list[int]] = {}
        vi = self.vertex_index
        for e in self.edges:
            acc.setdefault((vi[e.src], e.symbol), []).append(vi[e.dst])
        return {k: tuple(sorted(v)) for k, v in acc.items()}

    def word_sort_key(self, word: Sequence[str]):
        si = self.symbol_index
        return tuple(si[s] for s in word)

    def vertex_names(self, indices: Iterable[int]) -> list[str]:
        return [self.vertices[i] for i in sorted(indices)]


def validate_graph(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    alphabet: Sequence[str],
) -> LabeledGraph:
    """Check a raw graph description and freeze it into a LabeledGraph.

    Raises a GraphValidationError subclass naming a concrete witness:
    EmptyGraph, DuplicateEdge, UnknownVertex / UnknownSymbol,
    NotLeftResolving (vertex, symbol, offending edge pair),
    NotEssential (vertex, missing direction), UnusedSymbol.
    """
    if not vertices:
        raise EmptyGraph()
    if len(vertices) > MAX_VERTICES:
        raise CapExceeded("vertex count", len(vertices), MAX_VERTICES)
    if len(edges) > MAX_EDGES:
        raise CapExceeded("edge count", len(edges), MAX_EDGES)
    if len(set(vertices)) != len(vertices):
        dup = next(v for i, v in enumerate(vertices) if v in vertices[:i])
        raise ValueError(f"duplicate vertex id {dup!r}")
    if len(set(alphabet)) != len(alphabet):
        dup = next(s for i, s in enumerate(alphabet) if s in alphabet[:i])
        raise ValueError(f"duplicate alphabet symbol {dup!r}")

    vset = set(vertices)
    sset = set(alphabet)
    seen: set[tuple[str, str, str]] = set()
    incoming: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    has_out: set[str] = set()
    has_in: set[str] = set()
    used: set[str] = set()
    for raw in edges:
        e = (raw[0], raw[1], raw[2])
        if e in seen:
            raise DuplicateEdge(e)
        seen.add(e)
        if e[0] not in vset:
            raise UnknownVertex(e[0], e)
        if e[1] not in vset:
            raise UnknownVertex(e[1], e)
        if e[2] not in sset:
            raise UnknownSymbol(e[2], e)
        incoming.setdefault((e[1], e[2]), []).append(e)
        has_out.add(e[0])
        has_in.add(e[1])
        used.add(e[2])

    for (v, s), group in incoming.items():
        if len(group) > 1:
            raise NotLeftResolving(v, s, group)
    for v in vertices:
        if v not in has_out:
            raise NotEssential(v, "outgoing")
        if v not in has_in:
            raise NotEssential(v, "incoming")
    for s in alphabet:
        if s not in used:
            raise UnusedSymbol(s)

    return LabeledGraph(
        vertices=tuple(vertices),
        alphabet=tuple(alphabet),
        edges=tuple(Edge(*e) for e in edges),
    )


def full_shift_graph(n: int) -> LabeledGraph:
    """Single vertex v carrying n loops s1..sn: the full shift on n symbols."""
    symbols = [f"s{i + 1}" for i in range(n)]
    return validate_graph(["v"], [("v", "v", s) for s in symbols], symbols)
