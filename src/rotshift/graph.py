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
    "Condensation",
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


class Condensation(NamedTuple):
    """Strongly connected components.  component[v] is the id of v's
    component; ids run in topological order, sources first, so an edge
    between components goes from a lower id to a higher one.  members[c]
    is ascending; cyclic[c] says c has two or more vertices or a loop."""

    component: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    cyclic: tuple[bool, ...]


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
    def condensation(self) -> Condensation:
        """Kosaraju, iterative: in reverse depth-first finishing order,
        each unassigned vertex takes the next id together with the
        unassigned vertices that reach it."""
        n = self.vertex_count
        out = self.out_edges
        order: list[int] = []
        seen = [False] * n
        for s in range(n):
            stack = [] if seen[s] else [(s, iter(out[s]))]
            seen[s] = True
            while stack:
                v, todo = stack[-1]
                for w, _symbol in todo:
                    if not seen[w]:
                        seen[w] = True
                        stack.append((w, iter(out[w])))
                        break
                else:
                    order.append(v)
                    stack.pop()
        comp = [-1] * n
        members: list[tuple[int, ...]] = []
        for v in reversed(order):
            if comp[v] != -1:
                continue
            comp[v] = len(members)
            found = [v]
            for x in found:
                for w, _symbol in self.in_edges[x]:
                    if comp[w] == -1:
                        comp[w] = comp[v]
                        found.append(w)
            members.append(tuple(sorted(found)))
        cyclic = tuple(len(m) > 1 or any(w == m[0] for w, _symbol in out[m[0]]) for m in members)
        return Condensation(tuple(comp), tuple(members), cyclic)

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

    # bulk set checks; the edges are walked in order only to name the
    # first defect
    vset, sset = set(vertices), set(alphabet)
    built = tuple(map(Edge._make, edges))
    srcs, dsts, symbols = zip(*built) if built else ((), (), ())
    if len(set(built)) < len(built) or not vset.issuperset(srcs + dsts) or not sset.issuperset(symbols):
        seen: set[Edge] = set()
        for e in built:
            if e in seen:
                raise DuplicateEdge(e)
            seen.add(e)
            if e.src not in vset:
                raise UnknownVertex(e.src, e)
            if e.dst not in vset:
                raise UnknownVertex(e.dst, e)
            if e.symbol not in sset:
                raise UnknownSymbol(e.symbol, e)
    if len(set(zip(dsts, symbols))) < len(built):
        incoming: dict[tuple[str, str], list[Edge]] = {}
        for e in built:
            incoming.setdefault((e.dst, e.symbol), []).append(e)
        (v, s), group = next(item for item in incoming.items() if len(item[1]) > 1)
        raise NotLeftResolving(v, s, group)
    has_out, has_in = set(srcs), set(dsts)
    if len(has_out) < len(vset) or len(has_in) < len(vset):
        for v in vertices:
            if v not in has_out:
                raise NotEssential(v, "outgoing")
            if v not in has_in:
                raise NotEssential(v, "incoming")
    used = set(symbols)
    if len(used) < len(sset):
        raise UnusedSymbol(next(s for s in alphabet if s not in used))

    return LabeledGraph(vertices=tuple(vertices), alphabet=tuple(alphabet), edges=built)


def full_shift_graph(n: int) -> LabeledGraph:
    """Single vertex v carrying n loops s1..sn: the full shift on n symbols."""
    symbols = [f"s{i + 1}" for i in range(n)]
    return validate_graph(["v"], [("v", "v", s) for s in symbols], symbols)
