"""K-group computations for decorated graph systems.

The decorated algebra of a left-resolving essential graph has both
K-groups presented by the integer matrix I - A, where A is the ordinary
adjacency matrix (the rotation decorations never enter: they deform the
algebra along paths of automorphisms and leave K-theory untouched):

    K0 = K1 = cokernel(I - A)  (+)  kernel(I - A)

The kernel summand is free, so the direct sum is well defined without
choosing a splitting.  Everything reduces to the invariant factors of
I - A over the integers, computed once per graph by
intlinalg.invariant_factors: sparse elimination of the +-1 entries
that dominate I - A, then the small residual block reduced modulo one
of its nonzero minors, so coefficients stay bounded.  Because I - A is
square, the kernel has the rank of the cokernel's free part.  I - A and
the transpose adjacency of the core ladder are each built in one pass
over the edge lists.

For the full shift on N symbols this collapses to the cyclic group
Z/(N-1) in both degrees; fullshift_k_groups computes that directly and
graph_k_groups on the N-loop graph must agree (asserted).

The gauge-fixed core is an inductive limit of circle algebras; its
per-level dimension data is emitted for inspection by
core_dimension_data, with the transpose adjacency acting as the
connecting multiplicity matrix on the vertex blocks in both degrees.
For full shifts the core's ordered K-theory is the classical
scaled-integers invariant: bunce_deddens_data lays out the colimit
ladder whose K0 maps are multiplication by N (limit Z[1/N], order unit
1) and whose K1 maps are identities (limit Z).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graph import LabeledGraph, full_shift_graph
from .intlinalg import AbelianGroupPresentation, IntMatrix, cokernel

__all__ = [
    "KGroups",
    "graph_k_groups",
    "fullshift_k_groups",
    "InductiveKData",
    "core_dimension_data",
    "bunce_deddens_data",
    "scaled_value",
    "scaled_equal",
    "scaled_normal_form",
]


@dataclass(frozen=True)
class KGroups:
    k0: AbelianGroupPresentation
    k1: AbelianGroupPresentation
    criterion: str

    def to_json(self) -> dict:
        return {"K0": str(self.k0), "K1": str(self.k1), "criterion": self.criterion}


def displacement_matrix(graph: LabeledGraph) -> IntMatrix:
    """I - A for the graph's adjacency matrix A, in one pass over the edges."""
    n = graph.vertex_count
    rows = [[0] * n for _ in range(n)]
    for i, out in enumerate(graph.out_edges):
        row = rows[i]
        row[i] = 1
        for j, _symbol in out:
            row[j] -= 1
    return IntMatrix(tuple(map(tuple, rows)))


def graph_k_groups(graph: LabeledGraph) -> KGroups:
    """Both K-groups of the decorated graph algebra.

    cokernel(I - A) captures the relations among the vertex projections;
    the free kernel summand records the classes that I - A kills.
    """
    coker = cokernel(displacement_matrix(graph))
    # I - A is square, so its kernel rank is the cokernel's free rank
    group = coker.direct_sum_free(coker.free_rank)
    return KGroups(
        k0=group,
        k1=group,
        criterion="K-groups presented by I - A: cokernel plus free kernel in both degrees",
    )


def fullshift_k_groups(n: int) -> KGroups:
    """K-groups of the decorated full shift on n symbols: Z/(n-1) twice.

    Computed directly from the 1x1 matrix I - A = (1 - n) and checked
    against the general graph route on the n-loop graph.
    """
    if n < 2:
        raise ValueError("full shift needs at least 2 symbols")
    torsion = (n - 1,) if n - 1 >= 2 else ()
    direct = AbelianGroupPresentation(torsion, 0)
    via_graph = graph_k_groups(full_shift_graph(n))
    assert via_graph.k0 == direct and via_graph.k1 == direct, (
        f"full shift K-groups disagree: direct {direct}, graph route {via_graph.k0}"
    )
    return KGroups(
        k0=direct,
        k1=direct,
        criterion="full shift on n symbols: both K-groups cyclic of order n - 1",
    )


@dataclass(frozen=True)
class InductiveKData:
    """Dimension data of an inductive limit, one entry per level.

    k0_levels / k1_levels are the per-level groups; k0_maps / k1_maps
    the connecting multiplicity matrices between consecutive levels
    (entry [i][j]: multiplicity of level-l block j inside level-(l+1)
    block i after transposition bookkeeping).  Limit tags are symbolic
    names for recognized limits, or None when no recognition is
    attempted.
    """

    k0_levels: tuple[AbelianGroupPresentation, ...]
    k1_levels: tuple[AbelianGroupPresentation, ...]
    k0_maps: tuple[IntMatrix, ...]
    k1_maps: tuple[IntMatrix, ...]
    k0_limit: str | None = field(default=None)
    k1_limit: str | None = field(default=None)
    order_unit: tuple[int, ...] | None = field(default=None)

    def __post_init__(self):
        assert len(self.k0_maps) == max(0, len(self.k0_levels) - 1)
        assert len(self.k1_maps) == max(0, len(self.k1_levels) - 1)

    def to_json(self) -> dict:
        return {
            "K0_levels": [str(g) for g in self.k0_levels],
            "K1_levels": [str(g) for g in self.k1_levels],
            "K0_maps": [m.to_lists() for m in self.k0_maps],
            "K1_maps": [m.to_lists() for m in self.k1_maps],
            "K0_limit": self.k0_limit,
            "K1_limit": self.k1_limit,
            "order_unit": list(self.order_unit) if self.order_unit else None,
        }


def core_dimension_data(graph: LabeledGraph, depth: int) -> InductiveKData:
    """Per-level K-data of the gauge-fixed core, levels 0..depth.

    Every level contributes one circle-algebra block per vertex, so the
    groups are free of rank N0 in both degrees; the connecting maps are
    the transpose adjacency acting on the vertex blocks, again in both
    degrees.  No limit recognition is attempted: the ladder is emitted
    for inspection.
    """
    if depth < 0:
        raise ValueError("negative depth")
    n = graph.vertex_count
    level = AbelianGroupPresentation((), n)
    rows = [[0] * n for _ in range(n)]
    for i, out in enumerate(graph.out_edges):
        for j, _symbol in out:
            rows[j][i] += 1
    trans = IntMatrix(tuple(map(tuple, rows)))
    return InductiveKData(
        k0_levels=(level,) * (depth + 1),
        k1_levels=(level,) * (depth + 1),
        k0_maps=(trans,) * depth,
        k1_maps=(trans,) * depth,
    )


def bunce_deddens_data(n: int, depth: int) -> InductiveKData:
    """Ordered K-theory ladder of the full-shift core on n symbols.

    K0: Z --xN--> Z --xN--> ... with limit the scaled integers Z[1/n]
    and order unit 1 (the unit has class n^m at level m, i.e. value 1).
    K1: Z --id--> Z --id--> ... with limit Z.  This is the invariant of
    the supernatural-number n^infinity limit circle algebra.
    """
    if n < 2:
        raise ValueError("full shift needs at least 2 symbols")
    if depth < 0:
        raise ValueError("negative depth")
    z = AbelianGroupPresentation((), 1)
    return InductiveKData(
        k0_levels=(z,) * (depth + 1),
        k1_levels=(z,) * (depth + 1),
        k0_maps=(IntMatrix.from_rows([[n]]),) * depth,
        k1_maps=(IntMatrix.identity(1),) * depth,
        k0_limit=f"Z[1/{n}]",
        k1_limit="Z",
        order_unit=(1,),
    )


# ---------------------------------------------------------------------------
# colimit arithmetic for the scaled integers Z[1/n]
#
# An element is written a@m: the integer a sitting at ladder level m.
# The ladder identifies a@m with (n*a)@(m+1); the limit value is a/n^m.


def scaled_value(a: int, m: int, n: int) -> Fraction:
    """Limit coordinate of the class a@m."""
    if m < 0:
        raise ValueError("negative level")
    return Fraction(a, n**m)


def scaled_equal(a: int, m: int, b: int, l: int, n: int) -> bool:
    """Do a@m and b@l define the same class in the limit?"""
    return scaled_value(a, m, n) == scaled_value(b, l, n)


def scaled_normal_form(a: int, m: int, n: int) -> tuple[int, int]:
    """Lowest-level representative of a@m (divide out powers of n)."""
    if m < 0:
        raise ValueError("negative level")
    while m > 0 and a % n == 0:
        a //= n
        m -= 1
    return a, m
