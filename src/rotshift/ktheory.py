"""K-group computations for decorated graph systems.

The decorated algebra of a left-resolving essential graph has both
K-groups presented by the integer matrix I - A, where A is the ordinary
adjacency matrix (the rotation decorations never enter: they deform the
algebra along paths of automorphisms and leave K-theory untouched):

    K0 = K1 = cokernel(I - A)  (+)  kernel(I - A)

The kernel summand is free, so the direct sum is well defined without
choosing a splitting; graph_k_groups returns that one group, and
k_theory_json writes it in both degrees.  Everything reduces to the
invariant factors of I - A over the integers, computed once per graph
by intlinalg.invariant_factors.  graph_k_groups hands it I - A as sparse
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
same connecting map.  A ladder is therefore the JSON dict of one level
and its maps, each as the sparse [row, column, multiplicity] triples
of its nonzero entries.  core_dimension_data gives the core's ladder,
free of rank N0, whose one map in both degrees is the transpose
adjacency, read off the out-edge lists in O(n + m).  For full shifts
the core's ordered K-theory is the classical scaled-integers
invariant: bunce_deddens_data gives the ladder that multiplies by N in
K0 (limit Z[1/N], order unit 1) and is the identity in K1 (limit Z).
"""

from __future__ import annotations

from .graph import LabeledGraph
from .intlinalg import AbelianGroupPresentation, invariant_factors

__all__ = [
    "graph_k_groups",
    "k_theory_json",
    "core_dimension_data",
    "bunce_deddens_data",
]


def graph_k_groups(graph: LabeledGraph) -> AbelianGroupPresentation:
    """The group that is both K0 and K1 of the decorated graph algebra.

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
    factors = invariant_factors(rows)
    # I - A is square, so its kernel rank is the cokernel's free rank
    return AbelianGroupPresentation(tuple(x for x in factors if x >= 2), 2 * (len(rows) - len(factors)))


def k_theory_json(group: AbelianGroupPresentation) -> dict:
    """The k_theory section of a report: graph_k_groups' group in both degrees."""
    text = str(group)
    return {
        "K0": text,
        "K1": text,
        "criterion": "K-groups presented by I - A: cokernel plus free kernel in both degrees",
    }


def core_dimension_data(graph: LabeledGraph) -> dict:
    """The core ladder, {"level", "map"}.

    Every level contributes one circle-algebra block per vertex, so the
    group is free of rank N0 in both degrees; the connecting map is the
    transpose adjacency acting on the vertex blocks, again in both
    degrees.  Its entry [j, i, c] counts the c edges i -> j, read off
    the out-edge lists in O(n + m) and sorted by row, then column.  No
    limit recognition is attempted: the ladder is emitted for
    inspection.
    """
    rows: list[dict[int, int]] = [{} for _ in range(graph.vertex_count)]
    for i, out in enumerate(graph.out_edges):
        for j, _symbol in out:
            rows[j][i] = rows[j].get(i, 0) + 1
    # sources are visited in increasing order, so each row's columns are sorted
    trans = [[j, i, c] for j, row in enumerate(rows) for i, c in row.items()]
    return {"level": str(AbelianGroupPresentation((), graph.vertex_count)), "map": trans}


def bunce_deddens_data(n: int) -> dict:
    """Ordered K-theory ladder of the full-shift core on n symbols, as
    {"level", "K0_map", "K1_map", "K0_limit", "K1_limit", "order_unit"}.

    K0: Z --xN--> Z --xN--> ... with limit the scaled integers Z[1/n]
    and order unit 1 (the unit has class n^m at level m, i.e. value 1).
    K1: Z --id--> Z --id--> ... with limit Z.  This is the invariant of
    the supernatural-number n^infinity limit circle algebra.
    """
    if n < 2:
        raise ValueError("full shift needs at least 2 symbols")
    return {
        "level": "Z",
        "K0_map": [[0, 0, n]],
        "K1_map": [[0, 0, 1]],
        "K0_limit": f"Z[1/{n}]",
        "K1_limit": "Z",
        "order_unit": [1],
    }
