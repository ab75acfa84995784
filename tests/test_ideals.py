"""Invariant saturated vertex sets, their lattice, and quotients."""

import random

import pytest

from conftest import (
    brute_force_ideals,
    build,
    goldenmean,
    random_graph,
    reducible3,
    wall_clock_limit,
)
from rotshift.errors import CapExceeded, NotInvariantSaturated
from rotshift.graph import full_shift_graph
from rotshift.ideals import (
    MAX_IDEAL_VERTICES,
    MAX_IDEALS,
    classify_subset,
    enumerate_invariant_saturated,
    hasse_edges,
    quotient_system,
)
from rotshift.subshift import admissible_words
from rotshift.verdicts import is_irreducible


def test_classify_reducible3():
    graph, _ = reducible3()
    assert classify_subset(graph, frozenset({1, 2})) == (True, True)  # {v2, v3}
    assert classify_subset(graph, frozenset({2})) == (True, False)  # {v3} absorbs v2
    invariant, _ = classify_subset(graph, frozenset({0}))  # v1 leaks to v2
    assert not invariant
    assert classify_subset(graph, frozenset())[0]
    assert classify_subset(graph, frozenset({0, 1, 2}))[1]


def test_enumeration_reducible3_is_a_chain():
    graph, _ = reducible3()
    subs = enumerate_invariant_saturated(graph)
    assert [graph.vertex_names(w) for w in subs] == [[], ["v2", "v3"], ["v1", "v2", "v3"]]
    assert hasse_edges(subs) == [(0, 1), (1, 2)]


def test_irreducible_graphs_have_trivial_lattice():
    rng = random.Random(88)
    found = 0
    for _ in range(60):
        graph = random_graph(rng, max_vertices=5, max_symbols=3)
        if not is_irreducible(graph).is_yes:
            continue
        found += 1
        subs = enumerate_invariant_saturated(graph)
        assert len(subs) == 2
        assert subs[0] == frozenset()
        assert subs[1] == frozenset(range(graph.vertex_count))
    assert found >= 10


def test_two_component_graph():
    # two disjoint loops: both components invariant and saturated
    graph = build(
        ("v1", "v2"),
        (("v1", "v1", "a"), ("v2", "v2", "b")),
        ("a", "b"),
    )
    subs = enumerate_invariant_saturated(graph)
    names = [tuple(graph.vertex_names(w)) for w in subs]
    assert names == [(), ("v1",), ("v2",), ("v1", "v2")]
    covers = hasse_edges(subs)
    assert (0, 1) in covers and (0, 2) in covers
    assert (1, 3) in covers and (2, 3) in covers
    assert (0, 3) not in covers


def test_quotient_reducible3():
    graph, _ = reducible3()
    q = quotient_system(graph, frozenset({1, 2}))
    assert q.vertices == ("v1",)
    assert q.alphabet == ("a",)
    # quotient language embeds in the original language
    for k in range(6):
        assert set(admissible_words(q, k)) <= set(admissible_words(graph, k))


def test_quotient_rejects_bad_subsets():
    graph, _ = reducible3()
    with pytest.raises(NotInvariantSaturated):
        quotient_system(graph, frozenset({2}))  # invariant, not saturated
    with pytest.raises(NotInvariantSaturated):
        quotient_system(graph, frozenset({0, 1, 2}))  # nothing survives
    # indices outside the vertex range are refused by name, not read
    # (5 would raise IndexError, -1 would alias the last vertex)
    for bad in (5, -1):
        with pytest.raises(NotInvariantSaturated, match=f"index {bad},"):
            quotient_system(graph, [0, 1, 2, bad])
    # the empty subset is allowed and leaves the system untouched
    q = quotient_system(graph, frozenset())
    assert q.vertices == graph.vertices
    assert q.alphabet == graph.alphabet


def test_enumeration_cap():
    graph = full_shift_graph(2)
    # single vertex is fine
    assert len(enumerate_invariant_saturated(graph)) == 2
    wide = build(
        tuple(f"v{i}" for i in range(21)),
        tuple((f"v{i}", f"v{(i+1) % 21}", "a") for i in range(21)),
        ("a",),
    )
    with pytest.raises(CapExceeded):
        enumerate_invariant_saturated(wide)


def test_goldenmean_trivial_lattice():
    graph, _ = goldenmean()
    subs = enumerate_invariant_saturated(graph)
    assert [graph.vertex_names(w) for w in subs] == [[], ["v1", "v2"]]


def _layered_graph(rng: random.Random, max_vertices: int):
    """A random valid graph with planted structure.

    Components (each a cycle on symbol a, plus random inner edges) and
    transient vertices are laid out in a random order; edges between
    them only run forward.  A transient vertex sits strictly between the
    first and the last component and gets one edge in and one edge out.
    Vertex indices are shuffled against that order."""
    n = rng.randint(1, max_vertices)
    transient = rng.randint(0, (n - 2) // 2) if n >= 3 else 0
    sizes = [1] * (n - transient)
    while len(sizes) > 1 and rng.random() < 0.5:  # merge into larger components
        k = rng.randrange(len(sizes) - 1)
        sizes[k : k + 2] = [sizes[k] + sizes[k + 1]]
    if len(sizes) < 2:
        sizes, transient = [n], 0
    units: list[list[int]] = []
    names = list(range(n))
    rng.shuffle(names)
    for size in sizes:
        units.append([names.pop() for _ in range(size)])
    middle = [[names.pop()] for _ in range(transient)]
    for unit in middle:
        units.insert(rng.randint(1, len(units) - 1), unit)
    edges = {}  # (target, symbol) -> source

    def add(src, dst, symbols):
        free = [s for s in symbols if (dst, s) not in edges]
        if free:
            edges[(dst, rng.choice(free))] = src

    for unit in units:
        if unit not in middle:
            for k, v in enumerate(unit):
                edges[(unit[(k + 1) % len(unit)], "a")] = v
            for _ in range(rng.randint(0, len(unit))):
                add(rng.choice(unit), rng.choice(unit), "bc")
    for pos, unit in enumerate(units):
        if unit in middle:  # at most 5 of them, so "fghij" never runs out
            add(rng.choice([v for u in units[:pos] for v in u]), unit[0], "f")
            add(unit[0], rng.choice([v for u in units[pos + 1 :] for v in u]), "fghij")
        for later in units[pos + 1 :]:
            if rng.random() < 0.3:
                add(rng.choice(unit), rng.choice(later), "de")
    vertices = tuple(f"v{i}" for i in range(n))
    triples = [(vertices[src], vertices[dst], s) for (dst, s), src in edges.items()]
    alphabet = tuple(sorted({s for _, s in edges}))
    return build(vertices, triples, alphabet)


def _on_no_cycle(graph) -> int:
    """How many vertices lie on no cycle (the transient ones)."""
    count = 0
    for start in graph.vertices:
        seen, frontier = set(), [start]
        while frontier:
            v = frontier.pop()
            for e in graph.edges:
                if e[0] == v and e[1] not in seen:
                    seen.add(e[1])
                    frontier.append(e[1])
        count += start not in seen
    return count


def test_enumeration_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    transient = larger = 0
    for _ in range(300):
        graph = _layered_graph(rng, max_vertices=12)
        expected = brute_force_ideals(graph)
        subs = enumerate_invariant_saturated(graph)
        assert subs == expected, graph
        covers = [
            (i, j)
            for i, a in enumerate(expected)
            for j, b in enumerate(expected)
            if a < b and not any(a < c < b for c in expected)
        ]
        assert hasse_edges(subs) == covers
        transient += _on_no_cycle(graph) > 0
        larger += len(expected) > 3
    assert transient >= 100 and larger >= 150


def test_chain_of_twenty_loops_is_fast():
    # v(i+1) feeds vi and every vertex carries a loop: the ideals are the
    # 21 initial segments v0..v(k-1)
    n = MAX_IDEAL_VERTICES
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [(v, v, "a") for v in vertices]
    edges += [(vertices[i + 1], vertices[i], "b") for i in range(n - 1)]
    graph = build(vertices, edges, ("a", "b"))
    with wall_clock_limit(0.5):
        subs = enumerate_invariant_saturated(graph)
        covers = hasse_edges(subs)
    assert subs == [frozenset(range(k)) for k in range(n + 1)]
    assert covers == [(k, k + 1) for k in range(n)]


def _disjoint_loops(n):
    vertices = tuple(f"v{i}" for i in range(n))
    return build(vertices, [(v, v, "a") for v in vertices], ("a",))


def test_ten_disjoint_loops_give_the_boolean_lattice_fast():
    # 2^10 ideals, the cap itself; each one covers-up by adding one loop
    graph = _disjoint_loops(10)
    with wall_clock_limit(1):
        subs = enumerate_invariant_saturated(graph)
        covers = hasse_edges(subs)
    assert len(subs) == MAX_IDEALS == 1024
    assert len(covers) == 5120
    assert all(subs[i] < subs[j] and len(subs[j] - subs[i]) == 1 for i, j in covers)
    assert covers == sorted(covers)


def test_twenty_disjoint_loops_hit_the_ideal_count_cap():
    graph = _disjoint_loops(MAX_IDEAL_VERTICES)
    with wall_clock_limit(1):
        with pytest.raises(CapExceeded) as info:
            enumerate_invariant_saturated(graph)
    assert info.value.what == "ideal count"
    assert info.value.cap == MAX_IDEALS
