"""Invariant saturated vertex sets, their lattice, and quotients."""

import random

import pytest

from conftest import build, goldenmean, random_graph, reducible3
from rotshift.errors import CapExceeded, NotInvariantSaturated
from rotshift.graph import full_shift_graph
from rotshift.ideals import (
    classify_subset,
    enumerate_invariant_saturated,
    hasse_edges,
    quotient_system,
)
from rotshift.subshift import admissible_words, is_admissible
from rotshift.verdicts import is_irreducible


def test_classify_reducible3():
    graph, _ = reducible3()
    tail = classify_subset(graph, frozenset({1, 2}))  # {v2, v3}
    assert tail.invariant and tail.saturated
    sink = classify_subset(graph, frozenset({2}))  # {v3} absorbs v2
    assert sink.invariant and not sink.saturated
    head = classify_subset(graph, frozenset({0}))  # v1 leaks to v2
    assert not head.invariant
    assert classify_subset(graph, frozenset()).invariant
    assert classify_subset(graph, frozenset({0, 1, 2})).saturated


def test_enumeration_reducible3_is_a_chain():
    graph, _ = reducible3()
    subs = enumerate_invariant_saturated(graph)
    assert [s.names(graph) for s in subs] == [[], ["v2", "v3"], ["v1", "v2", "v3"]]
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
        assert subs[0].vertices == frozenset()
        assert subs[1].vertices == frozenset(range(graph.vertex_count))
    assert found >= 10


def test_two_component_graph():
    # two disjoint loops: both components invariant and saturated
    graph = build(
        ("v1", "v2"),
        (("v1", "v1", "a"), ("v2", "v2", "b")),
        ("a", "b"),
    )
    subs = enumerate_invariant_saturated(graph)
    names = [tuple(s.names(graph)) for s in subs]
    assert names == [(), ("v1",), ("v2",), ("v1", "v2")]
    covers = hasse_edges(subs)
    assert (0, 1) in covers and (0, 2) in covers
    assert (1, 3) in covers and (2, 3) in covers
    assert (0, 3) not in covers


def test_quotient_reducible3():
    graph, _ = reducible3()
    q = quotient_system(graph, frozenset({1, 2}))
    assert q.graph.vertices == ("v1",)
    assert q.surviving_alphabet == ("a",)
    assert q.warning is None
    # quotient language embeds in the original language
    for k in range(6):
        for w in admissible_words(q.graph, k):
            assert is_admissible(graph, w)


def test_quotient_rejects_bad_subsets():
    graph, _ = reducible3()
    with pytest.raises(NotInvariantSaturated):
        quotient_system(graph, frozenset({2}))  # invariant, not saturated
    with pytest.raises(NotInvariantSaturated):
        quotient_system(graph, frozenset({0, 1, 2}))  # nothing survives
    # the empty subset is allowed and leaves the system untouched
    q = quotient_system(graph, frozenset())
    assert q.graph.vertices == graph.vertices
    assert q.surviving_alphabet == graph.alphabet


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
    assert [s.names(graph) for s in subs] == [[], ["v1", "v2"]]
