"""Graph validation and full-shift graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build, goldenmean, reference_validate
from rotshift.errors import CapExceeded, GraphValidationError
from rotshift.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    full_shift_graph,
    validate_graph,
)


# -- validation ---------------------------------------------------------------


def test_empty_graph_rejected():
    with pytest.raises(GraphValidationError) as info:
        validate_graph((), (), ())
    assert info.value.kind == "empty-graph"


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError) as info:
        build(("v1",), (("v1", "v1", "a"), ("v1", "v1", "a")))
    assert info.value.kind == "duplicate-edge"
    assert info.value.witness()["error"] == "duplicate-edge"


@pytest.mark.parametrize(
    "vertices, alphabet, message",
    [
        (("v1", "v2", "v1"), ("a",), "duplicate vertex id 'v1'"),
        (("v1",), ("a", "b", "a"), "duplicate alphabet symbol 'a'"),
    ],
)
def test_duplicate_vertex_or_symbol_rejected(vertices, alphabet, message):
    with pytest.raises(ValueError, match=message):
        validate_graph(vertices, (("v1", "v1", "a"),), alphabet)


def test_unknown_vertex_and_symbol():
    with pytest.raises(GraphValidationError) as info:
        validate_graph(("v1",), (("v1", "v9", "a"),), ("a",))
    assert info.value.kind == "unknown-vertex"
    with pytest.raises(GraphValidationError) as info:
        validate_graph(("v1",), (("v1", "v1", "z"),), ("a",))
    assert info.value.kind == "unknown-symbol"


@pytest.mark.parametrize(
    "edges, witness",
    [
        # an unknown symbol on edge 1 comes before the duplicate on edge 3
        (
            (("v1", "v1", "z"), ("v1", "v2", "b"), ("v1", "v2", "b"), ("v2", "v9", "a")),
            {"error": "unknown-symbol", "symbol": "z", "edge": ["v1", "v1", "z"]},
        ),
        (
            (("v1", "v1", "a"), ("v1", "v1", "a"), ("v1", "v9", "b")),
            {"error": "duplicate-edge", "edge": ["v1", "v1", "a"]},
        ),
        # within one edge the source is checked before the target and the symbol
        (
            (("v1", "v1", "a"), ("v8", "v9", "z")),
            {"error": "unknown-vertex", "vertex": "v8", "edge": ["v8", "v9", "z"]},
        ),
        # the first (target, symbol) slot to repeat is the one whose first edge comes first
        (
            (("v1", "v2", "b"), ("v2", "v1", "a"), ("v2", "v2", "b"), ("v1", "v1", "a"), ("v1", "v2", "a")),
            {"error": "not-left-resolving", "vertex": "v2", "symbol": "b", "edges": [["v1", "v2", "b"], ["v2", "v2", "b"]]},
        ),
        (
            (("v1", "v1", "a"), ("v2", "v1", "b")),
            {"error": "not-essential", "vertex": "v2", "direction": "incoming"},
        ),
        ((("v1", "v2", "a"), ("v2", "v1", "a")), {"error": "unused-symbol", "symbol": "b"}),
    ],
    ids=["unknown-symbol-before-duplicate", "duplicate-before-unknown-vertex", "source-first", "left-resolving", "essential", "unused"],
)
def test_validation_reports_the_first_of_several_defects(edges, witness):
    with pytest.raises(GraphValidationError) as info:
        validate_graph(("v1", "v2"), edges, ("a", "b"))
    assert info.value.witness() == witness


KINDS = ("empty-graph", "duplicate-edge", "unknown-vertex", "unknown-symbol", "not-left-resolving", "not-essential", "unused-symbol")


@pytest.mark.parametrize(
    "vertices, edges, alphabet, kind, message, witness",
    [
        ((), (), (), "empty-graph", "graph has no vertices", {"error": "empty-graph", "detail": "graph has no vertices"}),
        (
            ("v1",),
            (("v1", "v1", "a"), ("v1", "v1", "a")),
            ("a",),
            "duplicate-edge",
            "edge ('v1', 'v1', 'a') is declared twice",
            {"error": "duplicate-edge", "edge": ["v1", "v1", "a"]},
        ),
        (
            ("v1",),
            (("v1", "v9", "a"),),
            ("a",),
            "unknown-vertex",
            "edge ('v1', 'v9', 'a') refers to undeclared vertex 'v9'",
            {"error": "unknown-vertex", "vertex": "v9", "edge": ["v1", "v9", "a"]},
        ),
        (
            ("v1",),
            (("v1", "v1", "z"),),
            ("a",),
            "unknown-symbol",
            "edge ('v1', 'v1', 'z') uses undeclared symbol 'z'",
            {"error": "unknown-symbol", "symbol": "z", "edge": ["v1", "v1", "z"]},
        ),
        (
            ("v1", "v2"),
            (("v1", "v1", "a"), ("v2", "v1", "a"), ("v1", "v2", "b")),
            ("a", "b"),
            "not-left-resolving",
            "vertex 'v1' has 2 incoming edges labeled 'a' (from v1, v2)",
            {"error": "not-left-resolving", "vertex": "v1", "symbol": "a", "edges": [["v1", "v1", "a"], ["v2", "v1", "a"]]},
        ),
        (
            ("v1", "v2"),
            (("v1", "v1", "a"), ("v1", "v2", "b")),
            ("a", "b"),
            "not-essential",
            "vertex 'v2' has no outgoing edge",
            {"error": "not-essential", "vertex": "v2", "direction": "outgoing"},
        ),
        (
            ("v1",),
            (("v1", "v1", "a"),),
            ("a", "b"),
            "unused-symbol",
            "alphabet symbol 'b' labels no edge",
            {"error": "unused-symbol", "symbol": "b"},
        ),
    ],
    ids=KINDS,
)
def test_each_defect_kind_pins_its_message_and_witness(vertices, edges, alphabet, kind, message, witness):
    with pytest.raises(GraphValidationError) as info:
        validate_graph(vertices, edges, alphabet)
    assert (info.value.kind, str(info.value), info.value.witness()) == (kind, message, witness)


DEFECTS = ("duplicate-edge", "unknown-vertex", "unknown-symbol", "not-left-resolving", "not-essential", "unused-symbol")


@st.composite
def defective_graphs(draw):
    """A valid graph (a cycle through every vertex labeled a, plus at most
    one b- and one c-edge into each vertex) in a drawn edge order, with
    up to three drawn defects injected into its lists."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [(v, vertices[(i + 1) % len(vertices)], "a") for i, v in enumerate(vertices)]
    for dst in vertices:
        for s in ("b", "c"):
            if draw(st.booleans()):
                edges.append((draw(st.sampled_from(vertices)), dst, s))
    edges = list(draw(st.permutations(edges)))
    alphabet = [s for s in ("a", "b", "c") if any(e[2] == s for e in edges)]

    def anywhere(items):
        return draw(st.integers(0, len(items)))

    def some_edge():
        return draw(st.integers(0, len(edges) - 1))

    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        if defect == "duplicate-edge":
            edges.insert(anywhere(edges), draw(st.sampled_from(edges)))
        elif defect == "unknown-vertex":
            i, end = some_edge(), draw(st.integers(0, 1))
            edges[i] = (*edges[i][:end], "x", *edges[i][end + 1 :])
        elif defect == "unknown-symbol":
            i = some_edge()
            edges[i] = (*edges[i][:2], "z")
        elif defect == "not-left-resolving":
            _src, dst, s = draw(st.sampled_from(edges))
            edges.insert(anywhere(edges), (draw(st.sampled_from(vertices)), dst, s))
        elif defect == "not-essential":
            # a new vertex with an edge in at most one direction
            w = f"w{len(vertices)}"
            vertices.insert(anywhere(vertices), w)
            direction = draw(st.sampled_from(["none", "outgoing", "incoming"]))
            if direction != "none":
                other, s = draw(st.sampled_from(vertices)), draw(st.sampled_from(alphabet))
                edges.insert(anywhere(edges), (w, other, s) if direction == "outgoing" else (other, w, s))
        else:
            alphabet.insert(anywhere(alphabet), f"u{len(alphabet)}")
    return vertices, edges, alphabet


def validation_outcome(validate, *args):
    """The kind, message and witness of the defect validate raises, or
    the edges of the graph it accepts."""
    try:
        result = validate(*args)
    except GraphValidationError as exc:
        return exc.kind, str(exc), exc.witness()
    return getattr(result, "edges", result)


@settings(max_examples=400, deadline=None)
@given(defective_graphs())
def test_validation_matches_reference_on_injected_defects(graph):
    """The bulk set checks and the ordered walks that name the first
    defect agree with the one-edge-at-a-time reference."""
    assert validation_outcome(validate_graph, *graph) == validation_outcome(reference_validate, *graph)


def test_left_resolving_violation_witnessed():
    with pytest.raises(GraphValidationError) as info:
        build(
            ("v1", "v2"),
            (("v1", "v1", "a"), ("v2", "v1", "a"), ("v1", "v2", "b")),
        )
    w = info.value.witness()
    assert w["error"] == "not-left-resolving"
    assert w["vertex"] == "v1" and w["symbol"] == "a"
    assert len(w["edges"]) == 2


def test_essential_requires_in_and_out_edges():
    # v2 has no outgoing edge
    with pytest.raises(GraphValidationError) as info:
        build(("v1", "v2"), (("v1", "v1", "a"), ("v1", "v2", "b")))
    assert info.value.kind == "not-essential"
    assert info.value.witness()["vertex"] == "v2"
    assert info.value.witness()["direction"] == "outgoing"
    # v2 has no incoming edge
    with pytest.raises(GraphValidationError) as info:
        build(("v1", "v2"), (("v1", "v1", "a"), ("v2", "v1", "b")))
    assert info.value.kind == "not-essential"
    assert info.value.witness()["direction"] == "incoming"


def test_unused_symbol_rejected():
    with pytest.raises(GraphValidationError) as info:
        validate_graph(("v1",), (("v1", "v1", "a"),), ("a", "b"))
    assert info.value.kind == "unused-symbol"


@pytest.mark.parametrize(
    "edges",
    [(("v1", "v1"),), (("v1", "v1", "a", "x"),), (("v1", "v1", "a"), ("v1", "v1", "b", "x"))],
    ids=["pair", "quadruple", "quadruple-after-triple"],
)
def test_edge_that_is_no_triple_rejected(edges):
    with pytest.raises(ValueError):
        validate_graph(("v1",), edges, ("a", "b"))


def test_edges_are_the_tuples_passed_in():
    edges = (("v1", "v1", "a"), ("v1", "v1", "b"))
    graph = validate_graph(("v1",), edges, ("a", "b"))
    assert all(kept is given for kept, given in zip(graph.edges, edges, strict=True))
    assert validate_graph(("v1",), [list(e) for e in edges], ("a", "b")).edges == edges


def test_caps_enforced():
    n = MAX_VERTICES + 1
    vertices = tuple(f"v{i}" for i in range(n))
    with pytest.raises(CapExceeded):
        validate_graph(vertices, (), ("a",))
    edges = tuple(("v1", "v1", f"s{i}") for i in range(MAX_EDGES + 1))
    with pytest.raises(CapExceeded):
        validate_graph(("v1",), edges, tuple(f"s{i}" for i in range(MAX_EDGES + 1)))


def test_vertex_and_symbol_indexes():
    graph, _ = goldenmean()
    assert graph.vertex_index == {"v1": 0, "v2": 1}
    assert graph.symbol_index == {"a": 0, "b": 1, "c": 2}
    assert graph.vertex_count == 2


def test_out_edges_list_targets_and_symbols_in_declared_order():
    graph, _ = goldenmean()
    assert graph.out_edges == (((0, "a"), (1, "b")), ((0, "c"),))


# -- derived graphs --------------------------------------------------------------


def test_full_shift_graph_shape():
    g = full_shift_graph(4)
    assert g.vertices == ("v",)
    assert g.alphabet == ("s1", "s2", "s3", "s4")
    assert len(g.edges) == 4
