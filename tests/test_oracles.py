"""The independent numeric and algebraic oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build, goldenmean, identity_matrix, random_graph
from rotshift.errors import CapExceeded
from rotshift.graph import full_shift_graph
from rotshift.intlinalg import IntMatrix
from rotshift.oracles import (
    MAX_ORBIT_STEPS,
    integer_determinant,
    invariant_factors_via_minors,
    matrix_product_admissible,
    orbit_density,
    weyl_sums,
)

GOLDEN = 0.618033988749894


# -- orbit sampling -------------------------------------------------------------


def test_orbit_irrational_rotation_dense():
    graph = full_shift_graph(2)
    sample = orbit_density(graph, {"s1": 0.0, "s2": GOLDEN}, "v", 0.0, 10_000, 0.05)
    assert sample.dense
    assert sample.gap["v"] < 0.05


def test_orbit_half_rotation_stays_on_grid():
    graph = full_shift_graph(2)
    sample = orbit_density(graph, {"s1": 0.0, "s2": 0.5}, "v", 0.0, 10_000, 0.3)
    assert sample.points["v"] == (0.0, 0.5)
    for x in sample.points["v"]:
        assert min(abs(x - 0.0), abs(x - 0.5)) < 1e-9


def test_orbit_unreachable_fiber_counts_as_gap_half():
    graph = build(("v1", "v2"), (("v1", "v1", "a"), ("v2", "v2", "b")), ("a", "b"))
    sample = orbit_density(graph, {"a": GOLDEN, "b": 0.0}, "v1", 0.0, 500, 0.05)
    assert sample.points["v2"] == ()
    assert sample.gap["v2"] == 0.5
    assert not sample.dense


def test_orbit_gaps_monotone_in_steps():
    graph = full_shift_graph(2)
    theta = {"s1": 0.0, "s2": GOLDEN}
    last = None
    for steps in (10, 50, 200, 1000, 5000):
        sample = orbit_density(graph, theta, "v", 0.0, steps, 0.01)
        if last is not None:
            assert sample.gap["v"] <= last + 1e-12
        last = sample.gap["v"]


def test_orbit_respects_graph_structure():
    # on the golden mean graph the fiber over v2 is reached only via b
    graph, _ = goldenmean()
    sample = orbit_density(
        graph, {"a": GOLDEN, "b": 0.25, "c": 0.0}, "v1", 0.0, 5_000, 0.05
    )
    assert sample.points["v2"]
    assert sample.dense


def test_orbit_guards():
    graph = full_shift_graph(2)
    with pytest.raises(CapExceeded, match="orbit steps"):
        orbit_density(graph, {"s1": 0.0, "s2": 0.5}, "v", 0.0, MAX_ORBIT_STEPS + 1, 0.1)
    with pytest.raises(ValueError):
        orbit_density(graph, {"s1": 0.0, "s2": 0.5}, "v", 0.0, 10, 0.0)
    with pytest.raises(ValueError):
        orbit_density(graph, {"s1": 0.0, "s2": 0.5}, "v", 0.0, 10, 1.0)
    with pytest.raises(KeyError):
        orbit_density(graph, {"s1": 0.0}, "v", 0.0, 10, 0.1)


def brute_grid_gap(pts, epsilon):
    """Largest distance from a grid point k*epsilon to its nearest point
    of pts, every grid point against every point; 0.5 when pts is empty."""
    if not pts:
        return 0.5

    def circle_distance(x, y):
        d = abs(x - y) % 1.0
        return min(d, 1.0 - d)

    grid = [k * epsilon for k in range(math.floor(1.0 / epsilon) + 1)]
    return max(min(circle_distance(g, p) for p in pts) for g in grid)


@settings(max_examples=200, deadline=None)
@given(
    system=st.sampled_from(["goldenmean", "fullshift2", "fullshift3"]),
    angles=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=3, max_size=3),
    start_point=st.floats(-2.0, 2.0),
    steps=st.integers(0, 300),
    epsilon=st.one_of(st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.01]), st.floats(0.002, 0.9)),
)
def test_orbit_gap_matches_brute_force_grid_scan(system, angles, start_point, steps, epsilon):
    """The one-sweep gap equals, float for float, the scan of every grid
    point against every visited point."""
    graph = goldenmean()[0] if system == "goldenmean" else full_shift_graph(int(system[-1]))
    theta = dict(zip(graph.alphabet, angles))
    sample = orbit_density(graph, theta, graph.vertices[0], start_point, steps, epsilon)
    for vertex, pts in sample.points.items():
        assert sample.gap[vertex] == brute_grid_gap(pts, epsilon)


# -- exponential sums ------------------------------------------------------------


def test_weyl_rational_peak():
    table = dict(weyl_sums([0.0, 0.5], 100, 4))
    assert abs(table[2] - 1.0) < 1e-12
    assert table[1] < 1e-12
    assert abs(table[4] - 1.0) < 1e-12


def test_weyl_irrational_decays():
    """All levels decay for an irrational difference, given enough length.

    The decay rate at level l is |cos(pi*l*g)|, which sits very close
    to 1 when l is a continued-fraction denominator of g (34 is the
    worst below 50, surviving past word length 8000).  Word length 10^4
    pushes every level below the 10^-3 threshold.
    """
    table = weyl_sums([0.0, GOLDEN], 10_000, 50)
    assert max(v for _, v in table) < 1e-3
    # at short word lengths the convergent levels are still large
    short = dict(weyl_sums([0.0, GOLDEN], 200, 50))
    assert short[34] > 0.5


def test_weyl_formula_spot_check():
    # |(1 + e^{2 pi i l theta}) / 2| ** n for two angles 0, theta
    theta = 0.3
    n = 7
    table = dict(weyl_sums([0.0, theta], n, 3))
    for level in (1, 2, 3):
        s = complex(1, 0) + complex(
            math.cos(2 * math.pi * level * theta), math.sin(2 * math.pi * level * theta)
        )
        assert abs(table[level] - (abs(s) / 2) ** n) < 1e-12


def test_weyl_guards():
    with pytest.raises(ValueError):
        weyl_sums([0.0, 0.5], -1, 3)
    with pytest.raises(ValueError):
        weyl_sums([0.0, 0.5], 5, 0)
    with pytest.raises(ValueError):
        weyl_sums([], 5, 3)


# -- matrix admissibility oracle ----------------------------------------------------


def test_matrix_oracle_goldenmean():
    graph, _ = goldenmean()
    assert matrix_product_admissible(graph, ("b", "c"))
    assert not matrix_product_admissible(graph, ("b", "b"))
    assert matrix_product_admissible(graph, ())


# -- integer determinant --------------------------------------------------------------


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def test_integer_determinant_examples():
    assert integer_determinant(identity_matrix(3)) == 1
    assert integer_determinant(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
    assert integer_determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert integer_determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert integer_determinant(IntMatrix(())) == 1  # the empty product
    with pytest.raises(ValueError):
        integer_determinant(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))


def test_integer_determinant_matches_cofactors():
    rng = random.Random(31337)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert integer_determinant(IntMatrix.from_rows(rows)) == _cofactor_det(rows)


def test_minors_route_examples():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert invariant_factors_via_minors(m) == [2, 4]
    assert invariant_factors_via_minors(IntMatrix.from_rows([[0, 0], [0, 0]])) == []
    assert invariant_factors_via_minors(identity_matrix(2)) == [1, 1]
