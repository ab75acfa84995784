"""The sofic language presented by a labeled graph.

A word is admissible exactly when some path in the graph reads it.
Everything here is computed through *support walks*: starting from a
set of vertices, each symbol maps the set to the endpoints of the
correspondingly labeled edges leaving it.  A word is admissible iff the
walk from the full vertex set stays nonempty, which agrees with the
independent criterion "the product of the symbol matrices is nonzero"
(see oracles.matrix_product_admissible for that second route).

Rotation decorations act on the circle fiber over each vertex by
automorphisms, so they can never kill a path: the decorated system has
the same admissible words as the base graph.  decorated_admissible_words
recomputes the language through the decorated machinery (tracking the
accumulated angle per vertex) so that the equality can be checked
rather than assumed.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .angles import EMPTY_CONTEXT, ExactAngle
from .errors import CapExceeded
from .graph import LabeledGraph

__all__ = [
    "forward_support",
    "is_admissible",
    "admissible_words",
    "decorated_admissible_words",
    "decorated_subshift_equals_base",
    "MAX_WORD_LENGTH",
]

MAX_WORD_LENGTH = 12


def forward_support(graph: LabeledGraph, support: Iterable[int], symbol: str) -> frozenset[int]:
    """Endpoints of symbol-labeled edges leaving the given vertex set.

    Monotone in the support and distributes over unions; the empty set
    is absorbing.
    """
    out = graph.out_edges
    return frozenset(w for v in support for w, s in out[v] if s == symbol)


def full_support(graph: LabeledGraph) -> frozenset[int]:
    return frozenset(range(graph.vertex_count))


def is_admissible(graph: LabeledGraph, word: Sequence[str]) -> bool:
    """Support walk from the full vertex set; nonempty end means a path reads the word."""
    support = full_support(graph)
    for symbol in word:
        if symbol not in graph.symbol_index:
            raise KeyError(f"symbol {symbol!r} not in alphabet {graph.alphabet}")
        support = forward_support(graph, support, symbol)
        if not support:
            return False
    return True


def admissible_words(graph: LabeledGraph, length: int) -> list[tuple[str, ...]]:
    """All admissible words of exactly the given length, lexicographically
    sorted in the declared alphabet order.  length 0 yields the empty word."""
    if length > MAX_WORD_LENGTH:
        raise CapExceeded("word length", length, MAX_WORD_LENGTH)
    if length < 0:
        raise ValueError("negative word length")
    out, si = graph.out_edges, graph.symbol_index
    words: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...], support: Iterable[int]):
        if len(prefix) == length:
            words.append(prefix)
            return
        # every nonempty image in one pass; left-resolving keeps the
        # targets of one symbol distinct
        images: dict[str, list[int]] = {}
        for v in support:
            for w, s in out[v]:
                images.setdefault(s, []).append(w)
        for symbol in sorted(images, key=si.__getitem__):
            extend(prefix + (symbol,), images[symbol])

    extend((), range(graph.vertex_count))
    return words


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


def decorated_subshift_equals_base(
    graph: LabeledGraph,
    angles: Mapping[str, ExactAngle],
    max_length: int,
) -> tuple[bool, tuple[str, ...] | None]:
    """Compare the decorated language against the base language.

    Returns (True, None) when they agree for every word length up to
    max_length, else (False, first counterexample word) with words
    ordered by length then lexicographically.
    """
    for length in range(max_length + 1):
        base = admissible_words(graph, length)
        deco = decorated_admissible_words(graph, angles, length)
        if base != deco:
            diff = set(base).symmetric_difference(deco)
            witness = min(diff, key=graph.word_sort_key)
            return False, witness
        # sorted order must agree as well; admissible enumeration is
        # already lexicographic for both routes
    return True, None
