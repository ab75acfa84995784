"""Exact integer linear algebra: invariant factors and abelian groups.

Everything runs over Python's unbounded integers; no floating point is
involved anywhere.  Ranks and quotient groups come from
invariant_factors, which takes a sparse matrix, one map from column to
nonzero entry per row, computes only the Smith diagonal, never the
unimodular transforms, and keeps coefficients bounded.  Phase 1 pivots
on +-1 entries, a shortest row first, until none is left; only then
does the remaining block become dense, so phase 2's cubic work runs on
nothing that a unit pivot could have removed.  The independent check
is oracles.invariant_factors_via_minors (determinantal divisors) on
the dense IntMatrix, which shares no code with it; IntMatrix is the
oracles' input and has no other use in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

__all__ = [
    "IntMatrix",
    "invariant_factors",
    "AbelianGroupPresentation",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]


def invariant_factors(rows: Sequence[Mapping[int, int]]) -> tuple[int, ...]:
    """The nonzero invariant factors of a sparse matrix, each dividing
    the next.

    Row i of the matrix is rows[i], a map from column index to entry
    that holds the row's nonzero entries only; an empty map is a zero
    row.  Their number is the rank.  Only the Smith diagonal is
    computed, never the unimodular transforms, in two phases that keep
    every coefficient bounded:

    1. While some row holds an entry +-1, pivot on one in a shortest
       such row, in its column with the fewest entries (little
       fill-in), and replace the block by its Schur complement.  Each
       pivot is a factor 1.  With unit pivots every entry of the
       complement is a minor of the matrix, so entries stay within the
       Hadamard bound.
    2. The residual block has no entry +-1 and no zero row or column.
       Fraction-free elimination gives its rank r and a nonzero r x r
       minor D.  Each of its r factors divides D, so they survive
       reduction modulo D: the block is diagonalized by row and column
       steps with entries kept in [0, D), and each diagonal entry e is
       read as gcd(e, D).  The (rows - r) factors equal to D that this
       adds are the free part and are dropped.

    Kannan-Bachem, SIAM J. Comput. 8 (1979); Hafner-McCurley, SIAM J.
    Comput. 20 (1991).
    """
    units, residual = _eliminate_units(rows)
    if not residual:
        return (1,) * units
    rank, det = _rank_and_minor(residual)
    factors = _diagonal_mod(residual, det)
    factors += [det] * (len(residual) - len(factors))
    return (1,) * units + tuple(_divisibility_chain(factors)[:rank])


def _eliminate_units(rows: Sequence[Mapping[int, int]]) -> tuple[int, list[list[int]]]:
    """Phase 1: the number of unit pivots taken and the dense residual,
    restricted to its nonzero rows and columns.

    Live rows wait in buckets keyed by their length.  A row taken from
    the shortest bucket that holds no +-1 leaves the buckets until an
    elimination step changes it, so no row is searched twice unchanged.
    """
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # fill-in never adds a column, so no row grows past len(cols)
    top = len(cols) + 1
    buckets: list[set[int]] = [set() for _ in range(top)]
    for i, row in live.items():
        buckets[len(row)].add(i)
    shortest = 1
    units = 0
    while True:
        while shortest < top and not buckets[shortest]:
            shortest += 1
        if shortest == top:
            break
        p = buckets[shortest].pop()
        pivot_row = live[p]
        q = None
        for j, x in pivot_row.items():
            if (x == 1 or x == -1) and (q is None or len(cols[j]) < len(cols[q])):
                q = j
        if q is None:
            continue
        del live[p]
        sign = pivot_row.pop(q)
        for j in pivot_row:
            cols[j].discard(p)
        pivot_items = tuple(pivot_row.items())
        members = cols.pop(q)
        members.discard(p)
        for i in members:
            row = live[i]
            buckets[len(row)].discard(i)
            f = row.pop(q) * sign
            for j, x in pivot_items:
                y = row.get(j)
                if y is None:
                    row[j] = -f * x
                    cols[j].add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        cols[j].discard(i)
            length = len(row)
            if length:
                buckets[length].add(i)
                if length < shortest:
                    shortest = length
            else:
                del live[i]
        units += 1
    used = sorted(j for j, members in cols.items() if members)
    return units, [[row.get(j, 0) for j in used] for row in live.values()]


def _rank_and_minor(a: list[list[int]]) -> tuple[int, int]:
    """Rank r of a nonzero matrix and |det| of a nonzero r x r minor,
    by fraction-free (Bareiss) elimination with full pivoting."""
    b = [row[:] for row in a]
    nrows, ncols = len(b), len(b[0])
    prev = 1
    for k in range(min(nrows, ncols)):
        pivot = next(((i, j) for i in range(k, nrows) for j in range(k, ncols) if b[i][j]), None)
        if pivot is None:
            return k, abs(prev)
        i, j = pivot
        b[k], b[i] = b[i], b[k]
        for row in b:
            row[k], row[j] = row[j], row[k]
        p = b[k][k]
        top = b[k][k + 1 :]
        for row in b[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * p - f * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = p
    return min(nrows, ncols), abs(prev)


def _diagonal_mod(a: list[list[int]], d: int) -> list[int]:
    """Diagonalize a modulo d; return gcd(e, d) for each diagonal entry e
    found, until the remaining block vanishes modulo d.

    Every step is invertible over Z/d, which is all that the group
    Z^rows / (columns of a, d * Z^rows) needs.
    """
    b = [[x % d for x in row] for row in a]
    nrows, ncols = len(b), len(b[0])
    out = []
    for t in range(min(nrows, ncols)):
        pivot = _pivot_mod(b, t, d)
        if pivot is None:
            break
        i, j = pivot
        b[t], b[i] = b[i], b[t]
        for row in b[t:]:
            row[t], row[j] = row[j], row[t]
        # Rows from t on are zero left of column t, so row steps act on
        # the slice [t:] only.
        if gcd(b[t][t], d) == 1:
            inverse = pow(b[t][t], -1, d)
            b[t][t:] = [x * inverse % d for x in b[t][t:]]
        while True:
            for i in range(t + 1, nrows):
                x, p = b[i][t], b[t][t]
                if x % p == 0:
                    if x:
                        q = x // p
                        b[i][t:] = [(y - q * z) % d for y, z in zip(b[i][t:], b[t][t:])]
                    continue
                g, s, u = _xgcd(p, x)
                top, row = b[t][t:], b[i][t:]
                b[t][t:] = [(s * y + u * z) % d for y, z in zip(top, row)]
                b[i][t:] = [(p // g * z - x // g * y) % d for y, z in zip(top, row)]
            # Column t is now clear below the pivot.  Where the pivot
            # divides the rest of its row, clearing that row only changes
            # row t, which is never read again.  Otherwise a Bezout column
            # step lowers the pivot and may refill column t: go round again.
            p = b[t][t]
            j = next((j for j in range(t + 1, ncols) if b[t][j] % p), None)
            if j is None:
                break
            x = b[t][j]
            g, s, u = _xgcd(p, x)
            for row in b[t:]:
                y, z = row[t], row[j]
                row[t] = (s * y + u * z) % d
                row[j] = (p // g * z - x // g * y) % d
        out.append(gcd(b[t][t], d))
    return out


def _pivot_mod(b: list[list[int]], t: int, d: int) -> tuple[int, int] | None:
    """A unit modulo d in the block from (t, t) on, else its least
    nonzero entry, else None."""
    least = None
    for i in range(t, len(b)):
        row = b[i]
        for j in range(t, len(row)):
            x = row[j]
            if x:
                if gcd(x, d) == 1:
                    return i, j
                if least is None or x < b[least[0]][least[1]]:
                    least = (i, j)
    return least


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _divisibility_chain(orders: list[int]) -> list[int]:
    """Invariant factors of the direct sum of cyclic groups Z/c, c in
    orders: replace pairs by (gcd, lcm) until each divides the next."""
    c = list(orders)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            g = gcd(c[i], c[j])
            c[i], c[j] = g, c[i] // g * c[j]
    return c


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """A finitely generated abelian group in invariant-factor form.

    torsion is the chain of invariant factors >= 2 (each dividing the
    next); free_rank counts the Z summands.
    """

    torsion: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for x in self.torsion:
            if x < 2:
                raise ValueError(f"torsion factor {x} < 2")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x != 0:
                raise ValueError(f"invariant factors not a chain: {x} does not divide {y}")
        if self.free_rank < 0:
            raise ValueError("negative free rank")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{x}" for x in self.torsion)
        return " + ".join(parts) if parts else "0"
