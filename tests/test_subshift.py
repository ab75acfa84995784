"""Language of the shift: admissible words against the matrix-product,
brute-force and decorated-language oracles."""

import itertools
import random

import pytest

from conftest import (
    brute_admissible,
    build,
    goldenmean,
    random_angles,
    random_graph,
    reducible3,
)
from rotshift.errors import CapExceeded
from rotshift.graph import full_shift_graph
from rotshift.oracles import decorated_admissible_words, matrix_product_admissible
from rotshift.subshift import MAX_WORD_LENGTH, admissible_words


def test_goldenmean_words_frozen():
    graph, _ = goldenmean()
    words = admissible_words(graph, 2)
    assert ["".join(w) for w in words] == ["aa", "ab", "bc", "ca", "cb"]
    assert admissible_words(graph, 0) == [()]
    assert ("b", "c", "a") in admissible_words(graph, 3)


def test_admissibility_agrees_with_matrix_oracle_and_brute_force():
    graph, _ = goldenmean()
    for k in range(5):
        candidates = list(itertools.product(graph.alphabet, repeat=k))
        words = admissible_words(graph, k)
        assert words == [w for w in candidates if matrix_product_admissible(graph, w)]
        assert words == [w for w in candidates if brute_admissible(graph, w)]


def test_admissibility_on_random_graphs():
    rng = random.Random(991)
    for _ in range(15):
        graph = random_graph(rng, max_vertices=4, max_symbols=2)
        candidates = itertools.product(graph.alphabet, repeat=4)
        oracle = [w for w in candidates if matrix_product_admissible(graph, w)]
        assert admissible_words(graph, 4) == oracle


def test_word_count_monotone_and_factor_closed():
    graph, _ = reducible3()
    previous = None
    for k in range(6):
        words = set(admissible_words(graph, k))
        if previous is not None:
            # every admissible word extends some shorter one and every
            # factor of an admissible word is admissible
            assert {w[:-1] for w in words} <= previous
            assert {w[1:] for w in words} <= previous
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
    for k in range(7):
        assert admissible_words(graph, k) == decorated_admissible_words(graph, angles, k)


def test_decoration_invariance_random():
    rng = random.Random(321)
    for _ in range(8):
        graph = random_graph(rng, max_vertices=4, max_symbols=3)
        angles = random_angles(rng, graph)
        for k in range(6):
            assert admissible_words(graph, k) == decorated_admissible_words(graph, angles, k)


def test_decorated_oracle_checks():
    graph, angles = goldenmean()
    with pytest.raises(CapExceeded, match="word length"):
        decorated_admissible_words(graph, angles, MAX_WORD_LENGTH + 1)
    del angles["b"]
    with pytest.raises(KeyError, match=r"no angle assigned to symbols \['b'\]"):
        decorated_admissible_words(graph, angles, 2)


def test_decorated_negative_control():
    """The decorated oracle run on the graph with an edge removed must
    disagree with the base language.

    This guards against the oracle reproducing a language without
    reading the graph, which would make the comparisons above compare a
    language with itself.
    """
    graph, angles = goldenmean()
    # drop the loop: the decorated side loses every word containing "a"
    crippled = build(
        ("v1", "v2"),
        (("v1", "v2", "b"), ("v2", "v1", "c")),
        ("b", "c"),
    )
    base = admissible_words(graph, 4)
    decorated = decorated_admissible_words(crippled, angles, 4)
    lost = set(base) - set(decorated)
    assert lost and all("a" in w for w in lost)
    assert set(decorated) < set(base)
