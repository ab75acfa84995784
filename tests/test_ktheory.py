"""K-groups of the boundary algebras and the inductive limit ladders."""

import random
import time
from math import prod

import pytest

from conftest import build, goldenmean, hamiltonian_graph, random_graph, reducible3, wall_clock_limit
from rotshift.graph import full_shift_graph
from rotshift.intlinalg import AbelianGroupPresentation, IntMatrix
from rotshift.ktheory import (
    bunce_deddens_data,
    core_dimension_data,
    displacement_matrix,
    graph_k_groups,
)
from rotshift.oracles import integer_determinant


def test_full_shift_k_groups():
    # I - A is the 1x1 matrix (1 - n): both groups are Z/(n-1)
    for n in range(2, 7):
        kg = graph_k_groups(full_shift_graph(n))
        assert kg.k0 == kg.k1 == AbelianGroupPresentation((n - 1,) if n > 2 else (), 0)
        assert str(kg.k0) == ("0" if n == 2 else f"Z/{n - 1}")


def test_goldenmean_k_trivial():
    graph, _ = goldenmean()
    kg = graph_k_groups(graph)
    assert str(kg.k0) == str(kg.k1) == "0"


def test_permutation_cycle_gives_free_part():
    graph = build(("v1", "v2"), (("v1", "v2", "a"), ("v2", "v1", "b")))
    kg = graph_k_groups(graph)
    assert str(kg.k0) == "Z^2"
    assert kg.k0 == kg.k1


def test_k0_equals_k1_always():
    rng = random.Random(2024)
    for _ in range(30):
        graph = random_graph(rng)
        kg = graph_k_groups(graph)
        assert kg.k0 == kg.k1


def test_torsion_order_is_absolute_determinant():
    rng = random.Random(451)
    checked = 0
    for _ in range(40):
        graph = random_graph(rng)
        m = displacement_matrix(graph)
        det = integer_determinant(m)
        if det == 0:
            continue
        checked += 1
        kg = graph_k_groups(graph)
        assert kg.k0.free_rank == 0
        assert prod(kg.k0.torsion) == abs(det)
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
        det = integer_determinant(displacement_matrix(graph))
        assert (kg.k0.free_rank == 0) == (det != 0)
        if det:
            assert prod(kg.k0.torsion) == abs(det)


def _adjacency(graph):
    """A[i][j] = number of edges vertex i -> vertex j, from graph.edges."""
    n, vi = graph.vertex_count, graph.vertex_index
    rows = [[0] * n for _ in range(n)]
    for e in graph.edges:
        rows[vi[e.src]][vi[e.dst]] += 1
    return rows


def test_displacement_matrix_is_identity_minus_adjacency():
    rng = random.Random(7)
    for _ in range(20):
        graph = random_graph(rng)
        a = _adjacency(graph)
        n = graph.vertex_count
        expected = IntMatrix.from_rows([[(i == j) - a[i][j] for j in range(n)] for i in range(n)])
        assert displacement_matrix(graph) == expected


def test_reducible3_k_groups():
    graph, _ = reducible3()
    # I - A = [[0,-1,0],[0,1,-1],[0,0,0]]: rank 2, no torsion, kernel rank 1
    kg = graph_k_groups(graph)
    assert str(kg.k0) == "Z^2"


def test_to_json():
    kg = graph_k_groups(full_shift_graph(4))
    j = kg.to_json()
    assert j == {"K0": "Z/3", "K1": "Z/3", "criterion": kg.criterion}


# -- stationary dimension ladders ------------------------------------------------


def test_core_dimension_data_shapes():
    graph, _ = reducible3()
    data = core_dimension_data(graph, 3)
    n = graph.vertex_count
    assert data.depth == 3
    assert data.level.free_rank == n and not data.level.torsion
    # the connecting map is the transpose of the adjacency in both degrees
    adjacency = _adjacency(graph)
    transpose = [list(col) for col in zip(*adjacency)]
    assert adjacency != transpose  # asymmetric on purpose
    assert data.k0_map.to_lists() == data.k1_map.to_lists() == transpose
    assert data.k0_limit is None and data.k1_limit is None


def test_bunce_deddens_ladder():
    data = bunce_deddens_data(3, 4)
    assert data.depth == 4
    assert data.k0_map.to_lists() == [[3]]
    assert data.k1_map.to_lists() == [[1]]
    assert data.k0_limit == "Z[1/3]"
    assert data.k1_limit == "Z"
    assert data.order_unit == (1,)
    j = data.to_json()
    assert j["K0_limit"] == "Z[1/3]" and j["K1_limit"] == "Z"
    assert j["order_unit"] == [1]
