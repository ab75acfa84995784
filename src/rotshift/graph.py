"""Finite labeled graphs presenting sofic shift spaces.

A labeled graph here is always *left-resolving* (for every vertex and
every symbol there is at most one incoming edge carrying that symbol)
and *essential* (every vertex has at least one incoming and one
outgoing edge).  Validation enforces both, plus that every alphabet
symbol actually labels an edge; the constructors of downstream
structures may then rely on these properties.

Vertices and symbols are referred to by their string ids externally and
by dense 0-based indices internally.  An edge is the (src, dst, symbol)
tuple of ids the caller passed.  The declared orders of the vertex
list and the alphabet are significant: supports, words and reports are
all sorted against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceeded, GraphValidationError

__all__ = [
    "Condensation",
    "LabeledGraph",
    "validate_graph",
    "full_shift_graph",
]

MAX_VERTICES = 1000
MAX_EDGES = 10_000


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
    edges: tuple[tuple[str, str, str], ...]

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
        for src, dst, symbol in self.edges:
            out[vi[src]].append((vi[dst], symbol))
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def condensation(self) -> Condensation:
        """Tarjan, iterative.  The depth-first search takes roots 0..n-1
        and edges in out_edges order, and closes each component at its
        first visited vertex; ids count the components in the reverse of
        the order in which they close, which is a topological order."""
        n = self.vertex_count
        out = self.out_edges
        index = [-1] * n  # discovery number
        low = [0] * n  # least discovery number reached from the subtree
        closing = [-1] * n  # the component's closing number; -1 while open
        stack: list[int] = []
        closed: list[tuple[int, ...]] = []
        count = 0
        for s in range(n):
            if index[s] != -1:
                continue
            index[s] = low[s] = count
            count += 1
            stack.append(s)
            path = [(s, iter(out[s]))]
            while path:
                v, todo = path[-1]
                for w, _symbol in todo:
                    if index[w] == -1:
                        index[w] = low[w] = count
                        count += 1
                        stack.append(w)
                        path.append((w, iter(out[w])))
                        break
                    if closing[w] == -1 and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    path.pop()
                    if path and low[v] < low[path[-1][0]]:
                        low[path[-1][0]] = low[v]
                    if low[v] == index[v]:
                        found = [stack.pop()]
                        while found[-1] != v:
                            found.append(stack.pop())
                        for w in found:
                            closing[w] = len(closed)
                        closed.append(tuple(sorted(found)))
        last = len(closed) - 1
        members = tuple(reversed(closed))
        cyclic = tuple(len(m) > 1 or any(w == m[0] for w, _symbol in out[m[0]]) for m in members)
        return Condensation(tuple(last - c for c in closing), members, cyclic)

    def vertex_names(self, indices: Iterable[int]) -> list[str]:
        return [self.vertices[i] for i in sorted(indices)]


def validate_graph(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    alphabet: Sequence[str],
) -> LabeledGraph:
    """Check a raw graph description and freeze it into a LabeledGraph.

    The first defect raises a GraphValidationError whose kind and
    witness name it.  No vertices is empty-graph (detail).  One walk
    over the edges names the first edge that is a duplicate-edge (edge)
    or has an unknown-vertex (vertex, edge) or unknown-symbol (symbol,
    edge).  Then come not-left-resolving (vertex, symbol, the edges
    that share both), not-essential (vertex, missing direction) and
    unused-symbol (symbol), each naming its first witness in declared
    order.  Past a size cap it raises CapExceeded, and on a repeated
    vertex or symbol id or an edge that is no triple ValueError.

    Each check is first made in bulk on sets.  A duplicate edge repeats
    its (dst, symbol) slot, so one slot set screens both duplicates and
    left-resolution.  The walk that names the first defect in edge
    order runs only when that screen fails or an edge names an
    undeclared vertex or symbol.
    """
    if not vertices:
        message = "graph has no vertices"
        raise GraphValidationError("empty-graph", message, detail=message)
    if len(vertices) > MAX_VERTICES:
        raise CapExceeded("vertex count", len(vertices), MAX_VERTICES)
    if len(edges) > MAX_EDGES:
        raise CapExceeded("edge count", len(edges), MAX_EDGES)
    vset = set(vertices)
    if len(vset) != len(vertices):
        dup = next(v for i, v in enumerate(vertices) if v in vertices[:i])
        raise ValueError(f"duplicate vertex id {dup!r}")
    sset = set(alphabet)
    if len(sset) != len(alphabet):
        dup = next(s for i, s in enumerate(alphabet) if s in alphabet[:i])
        raise ValueError(f"duplicate alphabet symbol {dup!r}")

    built = tuple(map(tuple, edges))
    srcs, dsts, symbols = zip(*built, strict=True) if built else ((), (), ())
    known = vset.issuperset(srcs) and vset.issuperset(dsts) and sset.issuperset(symbols)
    if not known or len(set(zip(dsts, symbols))) < len(built):
        seen: set[tuple[str, str, str]] = set()
        for e in built:
            if e in seen:
                raise GraphValidationError("duplicate-edge", f"edge {e} is declared twice", edge=list(e))
            seen.add(e)
            src, dst, symbol = e
            for v in (src, dst):
                if v not in vset:
                    raise GraphValidationError(
                        "unknown-vertex", f"edge {e} refers to undeclared vertex {v!r}", vertex=v, edge=list(e)
                    )
            if symbol not in sset:
                raise GraphValidationError(
                    "unknown-symbol", f"edge {e} uses undeclared symbol {symbol!r}", symbol=symbol, edge=list(e)
                )
        # no edge is repeated or unknown, so two edges share a slot
        incoming: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
        for e in built:
            incoming.setdefault(e[1:], []).append(e)
        (v, s), group = next(item for item in incoming.items() if len(item[1]) > 1)
        raise GraphValidationError(
            "not-left-resolving",
            f"vertex {v!r} has {len(group)} incoming edges labeled {s!r} (from {', '.join(e[0] for e in group)})",
            vertex=v,
            symbol=s,
            edges=[list(e) for e in group],
        )
    has_out, has_in = set(srcs), set(dsts)
    if len(has_out) < len(vset) or len(has_in) < len(vset):
        for v in vertices:
            for direction, ends in (("outgoing", has_out), ("incoming", has_in)):
                if v not in ends:
                    raise GraphValidationError(
                        "not-essential", f"vertex {v!r} has no {direction} edge", vertex=v, direction=direction
                    )
    used = set(symbols)
    if len(used) < len(sset):
        s = next(s for s in alphabet if s not in used)
        raise GraphValidationError("unused-symbol", f"alphabet symbol {s!r} labels no edge", symbol=s)

    return LabeledGraph(vertices=tuple(vertices), alphabet=tuple(alphabet), edges=built)


def full_shift_graph(n: int) -> LabeledGraph:
    """Single vertex v carrying n loops s1..sn: the full shift on n symbols."""
    symbols = [f"s{i + 1}" for i in range(n)]
    return validate_graph(["v"], [("v", "v", s) for s in symbols], symbols)
