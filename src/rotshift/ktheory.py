"""K-group computations for decorated graph systems.

The decorated algebra of a left-resolving essential graph has both
K-groups presented by the integer matrix I - A, where A is the ordinary
adjacency matrix (the rotation decorations never enter: they deform the
algebra along paths of automorphisms and leave K-theory untouched):

    K0 = K1 = cokernel(I - A)  (+)  kernel(I - A)

The kernel summand is free, so the direct sum is well defined without
choosing a splitting.  Everything reduces to the invariant factors of
I - A over the integers, computed once per graph by
intlinalg.invariant_factors.  graph_k_groups hands it I - A as sparse
rows built in one O(n + m) pass over the out-edge lists, never as an
n x n matrix: row i starts as {i: 1} and loses 1 per out-edge of
vertex i, so parallel edges add up and a single loop cancels the
diagonal, whose zero is dropped.  Phase 1 pivots on the +-1 entries
that dominate I - A, a shortest row first; the residual block it
leaves has no +-1 and is reduced modulo one of its nonzero minors, so
coefficients stay bounded.  Because I - A is square, the kernel has
the rank of the cokernel's free part.  On the N-loop graph of the full
shift (graph.full_shift_graph) both groups come out as Z/(N-1).

The gauge-fixed core is a stationary inductive limit of circle
algebras: every level carries the same group and every step applies the
same connecting map.  A StationaryLadder therefore holds one level and
its maps, each as the sparse [row, column, multiplicity] triples of its
nonzero entries.  core_dimension_data gives the core's ladder, free of
rank N0, whose one map in both degrees is the transpose adjacency, read
off the out-edge lists in O(n + m).  For full shifts the core's ordered
K-theory is the classical scaled-integers invariant: bunce_deddens_data
gives the ladder that multiplies by N in K0 (limit Z[1/N], order unit
1) and is the identity in K1 (limit Z).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import LabeledGraph
from .intlinalg import AbelianGroupPresentation, cokernel

__all__ = [
    "KGroups",
    "graph_k_groups",
    "StationaryLadder",
    "core_dimension_data",
    "bunce_deddens_data",
]


@dataclass(frozen=True)
class KGroups:
    k0: AbelianGroupPresentation
    k1: AbelianGroupPresentation
    criterion: str

    def to_json(self) -> dict:
        return {"K0": str(self.k0), "K1": str(self.k1), "criterion": self.criterion}


def graph_k_groups(graph: LabeledGraph) -> KGroups:
    """Both K-groups of the decorated graph algebra.

    cokernel(I - A) captures the relations among the vertex projections;
    the free kernel summand records the classes that I - A kills.
    """
    rows = []
    for i, out in enumerate(graph.out_edges):
        row = {i: 1}
        for j, _symbol in out:
            row[j] = row.get(j, 0) - 1
        # entries off the diagonal only fall below 0; one loop cancels the 1
        if not row[i]:
            del row[i]
        rows.append(row)
    coker = cokernel(rows)
    # I - A is square, so its kernel rank is the cokernel's free rank
    group = coker.direct_sum_free(coker.free_rank)
    return KGroups(
        k0=group,
        k1=group,
        criterion="K-groups presented by I - A: cokernel plus free kernel in both degrees",
    )


@dataclass(frozen=True)
class StationaryLadder:
    """Dimension data of a stationary inductive limit, stored once.

    Every level carries the group `level` in both degrees, and every
    step applies k0_map in K0 and k1_map in K1.  A map is written
    sparse, as its nonzero entries [row, column, multiplicity] sorted
    by row, then column.  k1_map is None when the K1 map is k0_map by
    construction, and the JSON then carries that one `map`.  Limit tags
    are symbolic names for recognized limits.
    """

    level: AbelianGroupPresentation
    k0_map: list[list[int]]
    k1_map: list[list[int]] | None = None
    k0_limit: str | None = None
    k1_limit: str | None = None
    order_unit: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        if self.k1_map is None:
            return {"level": str(self.level), "map": self.k0_map}
        return {
            "level": str(self.level),
            "K0_map": self.k0_map,
            "K1_map": self.k1_map,
            "K0_limit": self.k0_limit,
            "K1_limit": self.k1_limit,
            "order_unit": list(self.order_unit) if self.order_unit else None,
        }


def core_dimension_data(graph: LabeledGraph) -> StationaryLadder:
    """The core ladder.

    Every level contributes one circle-algebra block per vertex, so the
    group is free of rank N0 in both degrees; the connecting map is the
    transpose adjacency acting on the vertex blocks, again in both
    degrees.  Its entry [j, i, c] counts the c edges i -> j, read off
    the out-edge lists in O(n + m).  No limit recognition is attempted:
    the ladder is emitted for inspection.
    """
    rows: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    for i, out in enumerate(graph.out_edges):
        for j, _symbol in out:
            rows[j][i] = rows[j].get(i, 0) + 1
    # sources are visited in increasing order, so each row's columns are sorted
    trans = [[j, i, c] for j, row in enumerate(rows) for i, c in row.items()]
    return StationaryLadder(AbelianGroupPresentation((), graph.vertex_count), trans)


def bunce_deddens_data(n: int) -> StationaryLadder:
    """Ordered K-theory ladder of the full-shift core on n symbols.

    K0: Z --xN--> Z --xN--> ... with limit the scaled integers Z[1/n]
    and order unit 1 (the unit has class n^m at level m, i.e. value 1).
    K1: Z --id--> Z --id--> ... with limit Z.  This is the invariant of
    the supernatural-number n^infinity limit circle algebra.
    """
    if n < 2:
        raise ValueError("full shift needs at least 2 symbols")
    return StationaryLadder(
        AbelianGroupPresentation((), 1),
        [[0, 0, n]],
        [[0, 0, 1]],
        k0_limit=f"Z[1/{n}]",
        k1_limit="Z",
        order_unit=(1,),
    )
