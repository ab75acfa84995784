"""K-groups of the boundary algebras and the inductive limit ladders."""

import random
import time
import tracemalloc
from math import prod

import pytest

from conftest import (
    adjacency,
    build,
    bundled_systems,
    goldenmean,
    hamiltonian_graph,
    identity_minus_adjacency,
    random_graph,
    reducible3,
    sparse_rows,
    wall_clock_limit,
)
from rotshift import ktheory
from rotshift.errors import GraphValidationError
from rotshift.fileformat import parse_system_file
from rotshift.graph import full_shift_graph
from rotshift.intlinalg import AbelianGroupPresentation, IntMatrix, invariant_factors
from rotshift.ktheory import (
    bunce_deddens_data,
    core_dimension_data,
    graph_k_groups,
    k_theory_json,
)
from rotshift.oracles import integer_determinant, invariant_factors_via_minors


def test_full_shift_k_groups():
    # I - A is the 1x1 matrix (1 - n): both groups are Z/(n-1)
    for n in range(2, 7):
        kg = graph_k_groups(full_shift_graph(n))
        assert kg == AbelianGroupPresentation((n - 1,) if n > 2 else (), 0)
        assert str(kg) == ("0" if n == 2 else f"Z/{n - 1}")


def test_goldenmean_k_trivial():
    graph, _ = goldenmean()
    assert str(graph_k_groups(graph)) == "0"


def test_permutation_cycle_gives_free_part():
    graph = build(("v1", "v2"), (("v1", "v2", "a"), ("v2", "v1", "b")))
    assert str(graph_k_groups(graph)) == "Z^2"


def test_k0_equals_k1_always():
    rng = random.Random(2024)
    for _ in range(30):
        kg = graph_k_groups(random_graph(rng))
        section = k_theory_json(kg)
        assert section["K0"] == section["K1"] == str(kg)


def test_torsion_order_is_absolute_determinant():
    rng = random.Random(451)
    checked = 0
    for _ in range(40):
        graph = random_graph(rng)
        det = integer_determinant(identity_minus_adjacency(graph))
        if det == 0:
            continue
        checked += 1
        kg = graph_k_groups(graph)
        assert kg.free_rank == 0
        assert prod(kg.torsion) == abs(det)
    assert checked >= 10


def test_k_groups_finish_on_mid_sized_graphs():
    """40-64 vertices: row and column clearing without reduction modulo a
    determinant never finished on half of these; the invariant factors
    take milliseconds."""
    rng = random.Random(2026)
    for i in range(10):
        graph = hamiltonian_graph(rng, 40 + 24 * i // 9, 3 + i % 3)
        start = time.perf_counter()
        with wall_clock_limit(10.0):
            kg = graph_k_groups(graph)
        assert time.perf_counter() - start < 2.0
        det = integer_determinant(identity_minus_adjacency(graph))
        assert (kg.free_rank == 0) == (det != 0)
        if det:
            assert prod(kg.torsion) == abs(det)


def _k_groups_from_minors(m: IntMatrix) -> AbelianGroupPresentation:
    """Both K-groups of a graph whose I - A is m, by the minor-gcd oracle."""
    factors = invariant_factors_via_minors(m)
    return AbelianGroupPresentation(tuple(x for x in factors if x >= 2), 2 * (m.rows - len(factors)))


def _rows_handed_to_invariant_factors(monkeypatch, graph):
    """The sparse rows that graph_k_groups passes to invariant_factors,
    and its result."""
    handed = []

    def spy(rows):
        handed.append([dict(row) for row in rows])
        return invariant_factors(rows)

    monkeypatch.setattr(ktheory, "invariant_factors", spy)
    kg = graph_k_groups(graph)
    (rows,) = handed
    return rows, kg


def test_sparse_rows_are_identity_minus_adjacency(monkeypatch):
    rng = random.Random(7)
    for _ in range(20):
        graph = random_graph(rng)
        rows, _ = _rows_handed_to_invariant_factors(monkeypatch, graph)
        assert rows == sparse_rows(identity_minus_adjacency(graph))


@pytest.mark.parametrize(
    "graph, i_minus_a",
    [
        pytest.param(
            # v1's single loop cancels its diagonal to 0, which is dropped
            build(("v1", "v2"), (("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v1", "c"))),
            [[0, -1], [-1, 1]],
            id="loop-cancels-diagonal",
        ),
        pytest.param(
            # v2's only out-edge is a loop, so its row is empty
            build(("v1", "v2"), (("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v2", "c"))),
            [[0, -1], [0, 0]],
            id="only-a-loop-empty-row",
        ),
        pytest.param(
            # two loops on v1 leave -1 on the diagonal
            build(
                ("v1", "v2"),
                (("v1", "v1", "a"), ("v1", "v1", "b"), ("v1", "v2", "c"), ("v2", "v1", "c")),
            ),
            [[-1, -1], [-1, 1]],
            id="two-loops",
        ),
        pytest.param(
            # parallel edges v1 -> v2 with two symbols give -2
            build(
                ("v1", "v2"),
                (("v1", "v2", "a"), ("v1", "v2", "b"), ("v2", "v1", "a"), ("v2", "v2", "c")),
            ),
            [[1, -2], [-1, 0]],
            id="parallel-edges",
        ),
        *(pytest.param(full_shift_graph(n), [[1 - n]], id=f"full-shift-{n}") for n in (2, 3, 5)),
    ],
)
def test_sparse_rows_corners_match_minor_gcds(monkeypatch, graph, i_minus_a):
    """graph_k_groups builds I - A as sparse rows from the out-edge lists.
    On each corner of that build the rows it hands to invariant_factors hold
    exactly the nonzero entries of the dense I - A written out here, and
    the K-groups agree with that matrix's minor gcds."""
    m = IntMatrix.from_rows(i_minus_a)
    assert identity_minus_adjacency(graph) == m
    rows, kg = _rows_handed_to_invariant_factors(monkeypatch, graph)
    assert rows == sparse_rows(m)
    assert kg == _k_groups_from_minors(m)


def test_k_groups_of_a_long_cycle_build_no_square_matrix():
    """On a 1000-vertex single cycle I - A has 2000 nonzero entries; a
    dense n x n build takes over 16 MB, the sparse rows well under 2."""
    n = 1000
    vertices = [f"v{i}" for i in range(n)]
    graph = build(vertices, [(vertices[i], vertices[(i + 1) % n], "a") for i in range(n)])
    graph.out_edges  # built and cached before measuring
    tracemalloc.start()
    try:
        kg = graph_k_groups(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(kg) == "Z^2"
    assert peak < 2_000_000, f"graph_k_groups peaked at {peak} bytes"


def test_reducible3_k_groups():
    graph, _ = reducible3()
    # I - A = [[0,-1,0],[0,1,-1],[0,0,0]]: rank 2, no torsion, kernel rank 1
    assert str(graph_k_groups(graph)) == "Z^2"


def test_to_json():
    assert k_theory_json(graph_k_groups(full_shift_graph(4))) == {
        "K0": "Z/3",
        "K1": "Z/3",
        "criterion": "K-groups presented by I - A: cokernel plus free kernel in both degrees",
    }


# -- stationary dimension ladders ------------------------------------------------


def transpose_triples(graph):
    """The nonzero entries of the dense transpose adjacency, as
    [row, column, multiplicity], row by row."""
    a = adjacency(graph)
    n = graph.vertex_count
    return [[j, i, a[i][j]] for j in range(n) for i in range(n) if a[i][j]]


def test_core_dimension_data_shapes():
    graph, _ = reducible3()
    # one map, the transpose of the adjacency, in both degrees
    assert core_dimension_data(graph) == {
        "level": "Z^3",
        "map": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1]],
    }
    assert transpose_triples(graph) == [[0, 0, 1], [1, 0, 1], [2, 1, 1], [2, 2, 1]]


def test_core_map_is_the_sparse_transpose_adjacency():
    """On the bundled systems and on random graphs, many with parallel
    edges, the core map lists exactly the nonzero entries of the dense
    transpose adjacency, sorted by row, then column."""
    graphs = []
    for path in bundled_systems():
        try:
            graphs.append(parse_system_file(path).graph())
        except GraphValidationError:
            continue
    rng = random.Random(4242)
    graphs += [random_graph(rng, max_vertices=8, max_symbols=4) for _ in range(300)]
    parallel = 0
    for graph in graphs:
        data = core_dimension_data(graph)
        assert data["level"] == str(AbelianGroupPresentation((), graph.vertex_count))
        assert data["map"] == transpose_triples(graph)
        parallel += any(c > 1 for _, _, c in data["map"])
    assert len(graphs) == 305 and parallel >= 50


def test_bunce_deddens_ladder():
    assert bunce_deddens_data(3) == {
        "level": "Z",
        "K0_map": [[0, 0, 3]],
        "K1_map": [[0, 0, 1]],
        "K0_limit": "Z[1/3]",
        "K1_limit": "Z",
        "order_unit": [1],
    }
    with pytest.raises(ValueError, match="at least 2 symbols"):
        bunce_deddens_data(1)
