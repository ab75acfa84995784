"""The sofic language presented by a labeled graph.

A word is admissible exactly when some path in the graph reads it.
admissible_words, the route `rotshift words` runs, lists them by a
*support walk*: starting from the full vertex set, each symbol maps the
set to the endpoints of the correspondingly labeled edges leaving it,
and a word survives while that set stays nonempty.  Two independent
routes in rotshift.oracles check it: matrix_product_admissible (the
product of the symbol matrices is nonzero) and
decorated_admissible_words (the same language read through the
rotation-decorated fibers).
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapExceeded
from .graph import LabeledGraph

__all__ = ["admissible_words", "MAX_WORD_LENGTH", "MAX_WORDS", "MAX_WORD_SCANS"]

MAX_WORD_LENGTH = 12
MAX_WORDS = 100_000
# under a second of support walk at the 5-8 M out-edges per second
# measured on 1000-vertex graphs
MAX_WORD_SCANS = 5_000_000


def admissible_words(graph: LabeledGraph, length: int) -> list[tuple[str, ...]]:
    """All admissible words of exactly the given length, lexicographically
    sorted in the declared alphabet order.  length 0 yields the empty word.

    Raises CapExceeded as soon as the list holds more than MAX_WORDS
    words, or the walk has scanned more than MAX_WORD_SCANS out-edges.
    The walk scans the out-edges of every support it visits, so few
    words over large supports can pass the second cap long before the
    first."""
    if length > MAX_WORD_LENGTH:
        raise CapExceeded("word length", length, MAX_WORD_LENGTH)
    if length < 0:
        raise ValueError("negative word length")
    out, si = graph.out_edges, graph.symbol_index
    words: list[tuple[str, ...]] = []
    scanned = 0

    def extend(prefix: tuple[str, ...], support: Iterable[int]):
        nonlocal scanned
        if len(prefix) == length:
            words.append(prefix)
            if len(words) > MAX_WORDS:
                raise CapExceeded("word count", f"at least {len(words)}", MAX_WORDS)
            return
        # every nonempty image in one pass; left-resolving keeps the
        # targets of one symbol distinct
        images: dict[str, list[int]] = {}
        for v in support:
            for w, s in out[v]:
                images.setdefault(s, []).append(w)
        scanned += sum(map(len, images.values()))
        if scanned > MAX_WORD_SCANS:
            raise CapExceeded("word search out-edges", f"at least {scanned}", MAX_WORD_SCANS)
        for symbol in sorted(images, key=si.__getitem__):
            extend(prefix + (symbol,), images[symbol])

    extend((), range(graph.vertex_count))
    return words
