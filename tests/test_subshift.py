"""Language of the shift: supports, admissible words, decorated
language invariance."""

import itertools
import random

import pytest

from conftest import (
    brute_admissible,
    build,
    gen,
    goldenmean,
    random_angles,
    random_graph,
    rat,
    reducible3,
)
from rotshift import subshift
from rotshift.errors import CapExceeded
from rotshift.graph import full_shift_graph
from rotshift.oracles import matrix_product_admissible
from rotshift.subshift import (
    MAX_WORD_LENGTH,
    admissible_words,
    decorated_subshift_equals_base,
    forward_support,
    full_support,
    is_admissible,
)


def test_forward_support_examples():
    graph, _ = goldenmean()
    full = full_support(graph)
    assert full == frozenset({0, 1})
    assert forward_support(graph, full, "a") == frozenset({0})
    assert forward_support(graph, full, "b") == frozenset({1})
    assert forward_support(graph, {1}, "a") == frozenset()
    assert forward_support(graph, {1}, "c") == frozenset({0})


def test_goldenmean_words_frozen():
    graph, _ = goldenmean()
    words = admissible_words(graph, 2)
    assert ["".join(w) for w in words] == ["aa", "ab", "bc", "ca", "cb"]
    for bad in ("ac", "ba", "bb", "cc"):
        assert not is_admissible(graph, tuple(bad))
    assert is_admissible(graph, ())
    assert is_admissible(graph, ("b", "c", "a"))


def test_admissibility_agrees_with_matrix_oracle_and_brute_force():
    graph, _ = goldenmean()
    for k in range(5):
        for word in itertools.product(graph.alphabet, repeat=k):
            walk = is_admissible(graph, word)
            assert walk == matrix_product_admissible(graph, word)
            assert walk == brute_admissible(graph, word)


def test_admissibility_on_random_graphs():
    rng = random.Random(991)
    for _ in range(15):
        graph = random_graph(rng, max_vertices=4, max_symbols=2)
        for word in itertools.product(graph.alphabet, repeat=4):
            assert is_admissible(graph, word) == matrix_product_admissible(graph, word)


def test_word_count_monotone_and_factor_closed():
    graph, _ = reducible3()
    previous = None
    for k in range(6):
        words = set(admissible_words(graph, k))
        if previous is not None:
            # every admissible word extends some shorter one and every
            # factor of an admissible word is admissible
            assert {w[:-1] for w in words} <= previous
            for w in words:
                assert w[1:] in words or len(w) <= 1 or is_admissible(graph, w[1:])
        previous = words


def test_word_cap():
    graph, _ = goldenmean()
    with pytest.raises(CapExceeded):
        admissible_words(graph, MAX_WORD_LENGTH + 1)


def test_full_shift_words():
    graph = full_shift_graph(2)
    assert len(admissible_words(graph, 5)) == 32


# -- decorated language ---------------------------------------------------------


def test_decoration_never_changes_language():
    graph, angles = goldenmean()
    ok, witness = decorated_subshift_equals_base(graph, angles, 6)
    assert ok and witness is None


def test_decoration_invariance_random():
    rng = random.Random(321)
    for _ in range(8):
        graph = random_graph(rng, max_vertices=4, max_symbols=3)
        angles = random_angles(rng, graph)
        ok, witness = decorated_subshift_equals_base(graph, angles, 5)
        assert ok, witness


def test_decorated_negative_control(monkeypatch):
    """Running the decorated side on a graph with an edge removed must
    trip the checker.

    This guards against the comparison silently comparing a language
    with itself.
    """
    graph, angles = goldenmean()
    # drop the loop: the decorated side loses every word containing "a"
    crippled = build(
        ("v1", "v2"),
        (("v1", "v2", "b"), ("v2", "v1", "c")),
        ("b", "c"),
    )
    decorated = subshift.decorated_admissible_words
    monkeypatch.setattr(
        subshift,
        "decorated_admissible_words",
        lambda _graph, angles, length: decorated(crippled, angles, length),
    )
    ok, witness = decorated_subshift_equals_base(graph, angles, 4)
    assert not ok
    assert witness is not None and "a" in witness
