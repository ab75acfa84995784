"""Integer matrix routines: invariant factors and presentations.

invariant_factors takes sparse rows; the tests hold dense matrices for
the oracles and convert them with conftest.sparse_rows.
"""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build, identity_matrix, sparse_rows, wall_clock_limit
from rotshift.intlinalg import (
    AbelianGroupPresentation,
    IntMatrix,
    _eliminate_units,
    invariant_factors,
)
from rotshift.ktheory import graph_k_groups
from rotshift.oracles import integer_determinant, invariant_factors_via_minors


def test_invariant_factors_examples():
    assert invariant_factors([{}, {}]) == ()
    assert invariant_factors([]) == ()
    assert invariant_factors(sparse_rows(identity_matrix(4))) == (1, 1, 1, 1)
    assert invariant_factors(sparse_rows([[2, 0], [0, 3]])) == (1, 6)
    assert invariant_factors(sparse_rows([[2, 4], [6, 8]])) == (2, 4)
    assert invariant_factors(sparse_rows([[1, 1], [1, 1]])) == (1,)
    assert invariant_factors(sparse_rows([[0, -1], [-1, 1]])) == (1, 1)
    assert invariant_factors(sparse_rows([[1, 0], [0, 0]])) == (1,)


@st.composite
def _small_matrices(draw):
    """Up to 4x4, entries -9..9; some drawn mostly from -1, 0, 1, and
    some made singular by a last row that combines two others."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.sampled_from([-1, 0, 0, 1, 1, 2]) if draw(st.booleans()) else st.integers(-9, 9)
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        c = draw(st.integers(-3, 3))
        entries[-1] = [x + c * y for x, y in zip(entries[0], entries[1])]
    return IntMatrix.from_rows(entries)


@settings(max_examples=150, deadline=None)
@given(_small_matrices())
def test_invariant_factors_agree_with_minor_gcds(m):
    assert list(invariant_factors(sparse_rows(m))) == invariant_factors_via_minors(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_invariant_factors_agree_with_smith_on_displacement_matrices(n, data):
    """I - A for a random nonnegative A with mostly 0/1 entries, against
    Smith's determinantal divisors (gcds of minors)."""
    adjacency = [[data.draw(st.sampled_from([0, 0, 0, 1, 1, 2])) for _ in range(n)] for _ in range(n)]
    m = IntMatrix.from_rows([[(i == j) - adjacency[i][j] for j in range(n)] for i in range(n)])
    assert list(invariant_factors(sparse_rows(m))) == invariant_factors_via_minors(m)


def test_invariant_factors_finish_on_dense_matrices():
    """Dense square draws up to 8x8 with entries -30..30, where row and
    column clearing without reduction modulo a determinant grows
    coefficients without bound.  The factors multiply out to |det|;
    up to 6x6 they also match the minor gcds."""
    rng = random.Random(4)
    with wall_clock_limit(10.0):
        for _ in range(300):
            n = rng.randint(2, 8)
            m = IntMatrix.from_rows([[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)])
            factors = invariant_factors(sparse_rows(m))
            det = integer_determinant(m)
            if det:
                assert prod(factors) == abs(det)
            else:
                assert len(factors) < n
            if n <= 6:
                assert list(factors) == invariant_factors_via_minors(m)


@st.composite
def _sparse_matrices(draw):
    """Up to 6x6, most entries 0, the rest from -2..3 with +-1 likely."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3])
    return IntMatrix.from_rows([[draw(entry) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_unit_elimination_leaves_no_unit_and_keeps_the_rank(m):
    """Phase 1's postcondition: the residual has no entry +-1 and no zero
    row or column, and its rank plus the unit pivots is the rank of m."""
    units, residual = _eliminate_units(sparse_rows(m))
    assert all(x not in (1, -1) for row in residual for x in row)
    assert all(any(row) for row in residual)
    assert all(any(col) for col in zip(*residual))
    residual_rank = len(invariant_factors_via_minors(IntMatrix.from_rows(residual))) if residual else 0
    assert units + residual_rank == len(invariant_factors_via_minors(m))


def test_cokernel_examples():
    """The cokernel of a square map is read off its invariant factors:
    the factors >= 2 are its torsion, and each missing factor is a Z."""
    # an invertible map has the trivial cokernel: every factor is 1
    assert invariant_factors(sparse_rows([[0, -1], [-1, 1]])) == (1, 1)
    # coker [[2]] = Z/2
    assert invariant_factors(sparse_rows([[2]])) == (2,)
    # coker of the zero 2x2 map is Z^2: no factor at all
    assert invariant_factors(sparse_rows([[0, 0], [0, 0]])) == ()
    # mixed: [[2,0],[0,0]] -> Z + Z/2
    assert invariant_factors(sparse_rows([[2, 0], [0, 0]])) == (2,)
    # its negative is I - A when v1 has three loops and v2 one; the
    # kernel adds one more Z to both K-groups
    graph = build(("v1", "v2"), (("v1", "v1", "a"), ("v1", "v1", "b"), ("v1", "v1", "c"), ("v2", "v2", "a")))
    group = graph_k_groups(graph)
    assert group == AbelianGroupPresentation((2,), 2)
    assert str(group) == "Z^2 + Z/2"


def _product(a, b):
    return IntMatrix.from_rows(
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)] for row in a.entries]
    )


def _random_unimodular(rng, n):
    m = identity_matrix(n)
    rows = [list(r) for r in m.entries]
    for _ in range(6):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            rows[i][k] += c * rows[j][k]
    return IntMatrix.from_rows(rows)


def test_cokernel_unimodular_invariance():
    """M and U M V have one cokernel, so one list of invariant factors,
    for unimodular U, V."""
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        u = _random_unimodular(rng, n)
        v = _random_unimodular(rng, n)
        scrambled = _product(_product(u, m), v)
        assert invariant_factors(sparse_rows(m)) == invariant_factors(sparse_rows(scrambled))


def test_presentation_strings():
    assert str(AbelianGroupPresentation((), 0)) == "0"
    assert str(AbelianGroupPresentation((), 1)) == "Z"
    assert str(AbelianGroupPresentation((), 2)) == "Z^2"
    assert str(AbelianGroupPresentation((2, 6), 0)) == "Z/2 + Z/6"
    assert str(AbelianGroupPresentation((3,), 2)) == "Z^2 + Z/3"


@pytest.mark.parametrize(
    "torsion, free_rank, message",
    [
        ((1,), 0, "torsion factor 1 < 2"),
        ((2, 3), 0, "2 does not divide 3"),
        ((2,), -1, "negative free rank"),
    ],
)
def test_presentation_checks(torsion, free_rank, message):
    with pytest.raises(ValueError, match=message):
        AbelianGroupPresentation(torsion, free_rank)


def test_matrix_helpers():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m[(0, 1)] == 2
    assert m.entries == ((1, 2), (3, 4))
    assert (m.rows, m.cols) == (2, 2)
    with pytest.raises(ValueError, match="^ragged rows$"):
        IntMatrix.from_rows([[1, 2], [3]])
