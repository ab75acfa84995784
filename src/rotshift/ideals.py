"""Invariant ideals of the vertex algebra and the induced quotients.

The diagonal algebra spanned by the vertex projections has its ideals
indexed by vertex subsets W.  The subsets that matter are the

* invariant ones: every edge leaving W stays inside W (the ideal is
  carried into itself by every symbol action), and
* saturated ones: any vertex all of whose successors lie in W already
  belongs to W (nothing outside the ideal is silently annihilated into
  it).

Invariant saturated subsets form a finite lattice; each proper one
induces a quotient graph on the surviving vertices whose alphabet is
the set of symbols still labeling an edge.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded, NotInvariantSaturated
from .graph import LabeledGraph, validate_graph

__all__ = [
    "classify_subset",
    "enumerate_invariant_saturated",
    "hasse_edges",
    "quotient_system",
    "MAX_IDEAL_VERTICES",
    "MAX_IDEALS",
]

MAX_IDEAL_VERTICES = 20
MAX_IDEALS = 1024


def classify_subset(graph: LabeledGraph, subset: Iterable[int]) -> tuple[bool, bool]:
    """Decide (invariant, saturated) for a vertex subset.

    The empty set and the full set are always both.  (Essentiality
    guarantees nobody has an empty successor set, which would otherwise
    make the empty set non-saturated.)
    """
    w = frozenset(subset)
    lands_inside = [all(j in w for j, _symbol in edges) for edges in graph.out_edges]
    invariant = all(lands_inside[i] for i in w)
    saturated = all(i in w for i, inside in enumerate(lands_inside) if inside)
    return invariant, saturated


def enumerate_invariant_saturated(graph: LabeledGraph) -> list[frozenset[int]]:
    """All invariant saturated vertex subsets, smallest first.

    Sorted by size, then lexicographically on the sorted index tuples.
    Let R(v) be the set of vertices on a cycle that v reaches by a path
    of length >= 1.  In an essential graph W is invariant and saturated
    exactly when W = {v : R(v) <= W}: invariance gives <=, and every
    path out of a vertex ends on a cycle, which gives >= by induction
    along the acyclic part.  So taking the cycle vertices of W maps the
    lattice one to one onto the unions of the sets R(x), and
    C -> {v : R(v) <= C} inverts it.  R(v) is shared within a strongly
    connected component: its members if it is cyclic, plus what its
    successors reach; one pass over graph.condensation, sinks first,
    finds them all.  Each ideal then costs O(n) set operations; n
    disjoint loops have 2^n ideals, so CapExceeded is raised as soon as
    the unions pass MAX_IDEALS.
    """
    n = graph.vertex_count
    if n > MAX_IDEAL_VERTICES:
        raise CapExceeded("ideal enumeration vertex count", n, MAX_IDEAL_VERTICES)
    comp, members, cyclic = graph.condensation
    reach: list[frozenset[int]] = [frozenset()] * len(members)
    for c in reversed(range(len(members))):  # sinks first; edges inside c add the empty reach[c]
        successors = (reach[comp[j]] for v in members[c] for j, _symbol in graph.out_edges[v])
        reach[c] = frozenset(members[c] if cyclic[c] else ()).union(*successors)
    cores = [reach[c] for c in comp]
    unions = {frozenset()}
    for r in set(cores):
        unions |= {c | r for c in unions}
        if len(unions) > MAX_IDEALS:
            raise CapExceeded("ideal count", f"at least {len(unions)}", MAX_IDEALS)
    found = [frozenset(v for v in range(n) if cores[v] <= c) for c in unions]
    return sorted(found, key=lambda w: (len(w), sorted(w)))


def hasse_edges(subsets: list[frozenset[int]]) -> list[tuple[int, int]]:
    """Cover relations (i, j) meaning subsets[i] < subsets[j] with nothing between.

    subsets is the lattice enumerate_invariant_saturated returns, sorted
    by size.  It is the lattice of down-sets of the cyclic components,
    so it is distributive, hence graded: a < b is a cover exactly when
    rank(b) = rank(a) + 1, rank(b) being one more than the largest rank
    strictly below b.  That is O(k^2) subset tests for k members.
    """
    rank: list[int] = []
    by_rank: dict[int, list[int]] = {}
    for j, b in enumerate(subsets):
        r = max((rank[i] + 1 for i in range(j) if subsets[i] < b), default=0)
        rank.append(r)
        by_rank.setdefault(r, []).append(j)
    return [
        (i, j)
        for i, a in enumerate(subsets)
        for j in by_rank.get(rank[i] + 1, ())
        if a < subsets[j]
    ]


def quotient_system(graph: LabeledGraph, subset: Iterable[int]) -> LabeledGraph:
    """The quotient graph: the graph restricted to the vertices outside
    the subset.

    Only edges with both endpoints surviving are kept; its alphabet,
    the surviving alphabet, holds the labels that still occur.
    Requires the subset to hold vertex indices only and to be
    invariant, saturated and proper.  The result is revalidated; by invariance and saturation it
    always passes (every surviving vertex keeps an outgoing and an
    incoming edge), so a failure raises GraphValidationError.
    """
    w = frozenset(subset)
    outside = sorted(i for i in w if not 0 <= i < graph.vertex_count)
    if outside:
        raise NotInvariantSaturated(
            f"subset names vertex index {outside[0]}, outside 0..{graph.vertex_count - 1}"
        )
    invariant, saturated = classify_subset(graph, w)
    if not (invariant and saturated):
        raise NotInvariantSaturated(
            f"subset {sorted(w)} is not invariant+saturated "
            f"(invariant={invariant}, saturated={saturated})"
        )
    if len(w) == graph.vertex_count:
        raise NotInvariantSaturated("the full vertex set leaves an empty quotient")
    vi = graph.vertex_index
    survivors = [v for v in graph.vertices if vi[v] not in w]
    edges = [e for e in graph.edges if vi[e[0]] not in w and vi[e[1]] not in w]
    labels = {e[2] for e in edges}
    return validate_graph(survivors, edges, [s for s in graph.alphabet if s in labels])
