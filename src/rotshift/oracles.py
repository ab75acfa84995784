"""Independent oracles backing the exact decision procedures.

Every exact verdict elsewhere in the package has a second, deliberately
separate route here: floating-point orbit expansion for minimality,
exponential sums for uniform distribution, raw matrix products and the
rotation-decorated walk for admissibility, gcds of minors for the
invariant factors.  None of these share code with the implementations
they check; keeping the two routes independent is what gives the
cross-validation its teeth.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations
from math import floor, gcd, inf, isfinite
from typing import Mapping, Sequence

from .angles import EMPTY_CONTEXT, ExactAngle
from .errors import CapExceeded
from .graph import LabeledGraph
from .intlinalg import IntMatrix
from .subshift import MAX_WORD_LENGTH

__all__ = [
    "OrbitSample",
    "orbit_density",
    "weyl_sums",
    "matrix_product_admissible",
    "decorated_admissible_words",
    "integer_determinant",
    "invariant_factors_via_minors",
    "MAX_ORBIT_GRID",
    "MAX_ORBIT_STEPS",
    "MAX_WEYL_TERMS",
]

MAX_ORBIT_STEPS = 1_000_000
# fibers times (floor(1/eps) + 1) grid points: at the cap (eps 1e-5 on goldenmean.sds)
# `oracle orbit --json` took 0.5-0.6 s with --steps 1000, 1.4 s with MAX_ORBIT_STEPS
MAX_ORBIT_GRID = 200_000
# levels times angles: at the cap, `oracle weyl --json` finishes within
# 2 s with 1 angle and with 10
MAX_WEYL_TERMS = 100_000


# ---------------------------------------------------------------------------
# orbit expansion


@dataclass(frozen=True)
class OrbitSample:
    """Result of a breadth-first orbit expansion over the circle fibers.

    points maps each vertex to the circle points visited in its fiber
    (one representative per dedup cell of width epsilon/4).  gap maps
    each vertex to the largest distance from an epsilon-grid point to
    the nearest visited point (0.5, the circle diameter, for an empty
    fiber).  dense is True when every fiber's gap is below epsilon.
    """

    epsilon: float
    steps_used: int
    points: dict[str, tuple[float, ...]]
    gap: dict[str, float]
    dense: bool


def _circle_distance(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _grid_gap(pts: tuple[float, ...], epsilon: float) -> float:
    """Largest circle distance from a grid point k*epsilon to the sorted
    points pts, 0.5 when pts is empty.

    One sweep walks the grid and the points together.  On each side of
    a grid point g the distance d = |g - p| is monotone in p, so the
    nearest points on either side reach the least d and the first and
    last points reach the least 1 - d: these four give the same float
    as a scan over all points.
    """
    if not pts:
        return 0.5
    worst = 0.0
    i = 0
    for k in range(int(floor(1.0 / epsilon)) + 1):
        g = k * epsilon
        while i < len(pts) and pts[i] <= g:
            i += 1
        nearest = pts[max(i - 1, 0) : i + 1]
        best = min(_circle_distance(g, p) for p in (pts[0], pts[-1], *nearest))
        worst = max(worst, best)
    return worst


def orbit_density(
    graph: LabeledGraph,
    theta: Mapping[str, float],
    start_vertex: str,
    start_point: float,
    steps: int,
    epsilon: float,
) -> OrbitSample:
    """Expand the orbit of one point under all edge rotations.

    States are (vertex, circle point); each edge out of the current
    vertex adds its angle to the point.  Cells of width epsilon/4 keep
    one representative per fiber, bounding memory at about 4/epsilon
    points per vertex.  Expansion stops when the queue drains or after
    the requested number of dequeued states.
    """
    if steps > MAX_ORBIT_STEPS:
        raise CapExceeded("orbit steps", steps, MAX_ORBIT_STEPS)
    if steps < 0:
        raise ValueError("negative step count")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    grid = graph.vertex_count * (floor(1.0 / epsilon) + 1) if 1.0 / epsilon < inf else inf
    if grid > MAX_ORBIT_GRID:
        raise CapExceeded("orbit grid points", grid, MAX_ORBIT_GRID)
    if not isfinite(start_point):
        raise ValueError(f"start point must be finite, got {start_point!r}")
    for s in graph.alphabet:
        if s not in theta:
            raise KeyError(f"no numeric angle for symbol {s!r}")
    cell = epsilon / 4.0
    ncells = int(floor(1.0 / cell)) + 1
    vi = graph.vertex_index
    start = vi[start_vertex]
    seen: list[dict[int, float]] = [dict() for _ in graph.vertices]

    def cell_of(p: float) -> int:
        return min(int(p / cell), ncells - 1)

    p0 = start_point % 1.0
    seen[start][cell_of(p0)] = p0
    queue: list[tuple[int, float]] = [(start, p0)]
    head = 0
    used = 0
    while head < len(queue) and used < steps:
        v, p = queue[head]
        head += 1
        used += 1
        for w, symbol in graph.out_edges[v]:
            q = (p + theta[symbol]) % 1.0
            c = cell_of(q)
            if c not in seen[w]:
                seen[w][c] = q
                queue.append((w, q))

    points = {
        graph.vertices[i]: tuple(sorted(seen[i].values())) for i in range(len(seen))
    }
    gap = {name: _grid_gap(pts, epsilon) for name, pts in points.items()}
    dense = all(g < epsilon for g in gap.values())
    return OrbitSample(
        epsilon=epsilon, steps_used=used, points=points, gap=gap, dense=dense
    )


# ---------------------------------------------------------------------------
# exponential sums


def weyl_sums(theta: Sequence[float], n: int, lmax: int) -> list[tuple[int, float]]:
    """Normalized exponential sums over all words of length n.

    For each level l = 1..lmax returns |(1/N^n) * sum over words of
    e^{2 pi i l (sum of word angles)}|.  The sum over words factors into
    the n-th power of the single-letter sum, which is what makes the
    exact evaluation cheap:  value(l) = |sum_k e^{2 pi i l theta_k} / N| ** n.
    The lmax * N terms are capped at MAX_WEYL_TERMS.
    """
    if lmax * len(theta) > MAX_WEYL_TERMS:
        raise CapExceeded("weyl terms", lmax * len(theta), MAX_WEYL_TERMS)
    if n < 0 or lmax < 1:
        raise ValueError("need n >= 0 and lmax >= 1")
    big_n = len(theta)
    if big_n == 0:
        raise ValueError("empty angle list")
    out = []
    for l in range(1, lmax + 1):
        s = sum(cmath.exp(2j * cmath.pi * l * t) for t in theta)
        out.append((l, abs(s / big_n) ** n))
    return out


# ---------------------------------------------------------------------------
# admissibility through matrix products


def matrix_product_admissible(graph: LabeledGraph, word: Sequence[str]) -> bool:
    """A word is admissible iff the product of its symbol matrices is nonzero.

    Rebuilds the 0/1 matrices from the edge list on the spot; shares no
    code with the support-walk decision route.
    """
    n = graph.vertex_count
    vi = graph.vertex_index
    mats: dict[str, list[list[int]]] = {s: [[0] * n for _ in range(n)] for s in graph.alphabet}
    for src, dst, symbol in graph.edges:
        mats[symbol][vi[src]][vi[dst]] = 1
    prod = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s in word:
        m = mats[s]
        prod = [
            [sum(prod[i][k] * m[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if all(x == 0 for row in prod for x in row):
            return False
    return any(x != 0 for row in prod for x in row)


# ---------------------------------------------------------------------------
# the decorated language
#
# Rotation decorations act on the circle fiber over each vertex by
# automorphisms, so they can never kill a path: the decorated system has
# the same admissible words as the base graph.  The walk below carries
# the accumulated angle per vertex, so that the equality with
# subshift.admissible_words is checked rather than assumed.


def decorated_forward(
    graph: LabeledGraph,
    state: Mapping[int, ExactAngle],
    symbol: str,
    angles: Mapping[str, ExactAngle],
) -> dict[int, ExactAngle]:
    """One decorated step: push each fiber through the symbol's edges,
    rotating the carried function by the symbol's angle.

    Left-resolving makes the result well-defined: a vertex has at most
    one incoming edge with this label, so no two source fibers collide.
    """
    theta = angles[symbol]
    out: dict[int, ExactAngle] = {}
    for i, acc in state.items():
        for j, s in graph.out_edges[i]:
            if s == symbol:
                assert j not in out, "left-resolving violated"
                out[j] = acc + theta
    return out


def decorated_admissible_words(
    graph: LabeledGraph,
    angles: Mapping[str, ExactAngle],
    length: int,
) -> list[tuple[str, ...]]:
    """Admissible words of the rotation-decorated system.

    The decorated system acts on circle-valued functions over the
    vertices; a word survives iff the decorated walk keeps at least one
    fiber alive.  Rotations are invertible so this is provably the same
    language as the base graph's; computing it anyway is the point.
    """
    if length > MAX_WORD_LENGTH:
        raise CapExceeded("word length", length, MAX_WORD_LENGTH)
    missing = [s for s in graph.alphabet if s not in angles]
    if missing:
        raise KeyError(f"no angle assigned to symbols {missing}")
    context = next(iter(angles.values())).context if angles else EMPTY_CONTEXT
    zero = ExactAngle.zero(context)
    start = {i: zero for i in range(graph.vertex_count)}
    words: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...], state: dict[int, ExactAngle]):
        if len(prefix) == length:
            words.append(prefix)
            return
        for symbol in graph.alphabet:
            nxt = decorated_forward(graph, state, symbol, angles)
            if nxt:
                extend(prefix + (symbol,), nxt)

    extend((), start)
    return words


# ---------------------------------------------------------------------------
# exact linear algebra


def integer_determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors_via_minors(m: IntMatrix) -> list[int]:
    """Invariant factors through determinantal divisors.

    d_k = gcd of all k x k minors; the k-th invariant factor is
    d_k / d_{k-1}.  Exponential in the matrix size, which is fine for
    the cross-validation sizes this oracle is used at.  Returns the
    nonzero invariant factors in divisibility order.
    """
    rows, cols = m.rows, m.cols
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = IntMatrix.from_rows(
                    [[m[i, j] for j in csel] for i in rsel]
                )
                g = gcd(g, integer_determinant(sub))
                # gcd(0, x) = |x|; keep scanning until nonzero stabilizes
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors
