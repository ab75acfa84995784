"""The plain-text system description format."""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_systems, corpus_texts, outcome, reference_parse, wall_clock_limit
from rotshift.angles import ExactAngle
from rotshift.errors import ParseError
from rotshift.fileformat import parse_system, parse_system_file, serialize_system

GOOD = """\
# a comment up front
[generators]
g = 0.618033988749894
h

[alphabet]
a = 1*g      # decorated
b            # zero angle
c = 1/2

[vertices]
v1
v2

[edges]
v1 -> v1 : a
v1 -> v2 : b   # trailing comment
v2 -> v1 : c
"""


def test_parse_good_document():
    doc = parse_system(GOOD)
    assert doc.context.ids == ("g", "h")
    assert doc.generator_values == {"g": 0.618033988749894}
    assert doc.alphabet == ("a", "b", "c")
    assert doc.vertices == ("v1", "v2")
    assert doc.edges == (("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v1", "c"))
    assert doc.angles["b"].is_zero()
    assert str(doc.angles["a"]) == "0 + 1*g"
    assert str(doc.angles["c"]) == "1/2"


def test_round_trip():
    doc = parse_system(GOOD)
    again = parse_system(serialize_system(doc))
    assert again == doc
    # serialization is a fixed point
    assert serialize_system(again) == serialize_system(doc)


def test_generators_section_optional():
    doc = parse_system(
        "[alphabet]\na\n[vertices]\nv\n[edges]\nv -> v : a\n"
    )
    assert doc.context.ids == ()
    assert doc.angles["a"].is_zero()


def test_float_angles_with_overrides():
    doc = parse_system(GOOD)
    theta = doc.float_angles({})
    assert abs(theta["a"] - 0.618033988749894) < 1e-15
    assert theta["b"] == 0.0
    theta2 = doc.float_angles({"g": 0.25})
    assert abs(theta2["a"] - 0.25) < 1e-15


def test_graph_accessor_validates():
    doc = parse_system(GOOD)
    graph = doc.graph()
    assert graph.vertices == ("v1", "v2")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("stray\n[alphabet]\na\n", "before any section"),
        ("[what]\n", "unknown section"),
        ("[alphabet]\na\n[generators]\ng\n", "out of order"),
        ("[alphabet]\na\n[alphabet]\nb\n", "out of order"),
        ("[generators]\n2bad\n", "bad generator name"),
        ("[generators]\ng\ng\n", "declared twice"),
        ("[generators]\ng = abc\n", "bad numeric value"),
        ("[generators]\ng = nan\n", "bad numeric value 'nan'"),
        ("[generators]\ng = 1e400\n", "bad numeric value '1e400'"),
        ("[alphabet]\na\na\n", "declared twice"),
        ("[alphabet]\n-x\n", "bad symbol name"),
        ("[alphabet]\na\n[vertices]\nv\nv\n", "declared twice"),
        ("[alphabet]\na\n[vertices]\nbad name\n", "bad vertex name"),
        ("[alphabet]\na\n[vertices]\nv\n[edges]\nv v : a\n", "bad edge syntax"),
        ("[alphabet]\na = 1/0\n[vertices]\nv\n[edges]\nv -> v : a\n", "bad angle"),
        ("[alphabet]\na = 1*q\n[vertices]\nv\n[edges]\nv -> v : a\n", "bad angle"),
        ("[vertices]\nv\n[edges]\nv -> v : a\n", "empty [alphabet]"),
        ("[alphabet]\na\n[edges]\nv -> v : a\n", "empty [vertices]"),
        ("[alphabet]\na\n[vertices]\nv\n", "empty [edges]"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert fragment in str(info.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_system("[alphabet]\na\na\n")
    assert info.value.line == 3


def test_bundled_systems_parse():
    root = os.path.join(os.path.dirname(__file__), "..", "systems")
    paths = sorted(glob.glob(os.path.join(root, "*.sds")))
    assert len(paths) >= 5
    for path in paths:
        doc = parse_system_file(path)
        assert doc.alphabet
        if os.path.basename(path) != "bad.sds":
            doc.graph()
        again = parse_system(serialize_system(doc))
        assert again == doc


def same_outcome(text):
    """parse_system and the line-at-a-time reference agree on text: equal
    documents (compared by value and by repr), or the same error type,
    message and line."""
    new, ref = outcome(parse_system, text), outcome(reference_parse, text)
    assert new == ref
    assert repr(new) == repr(ref)


def bundled_texts():
    texts = []
    for path in bundled_systems():
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


BASE_TEXTS = [GOOD, *bundled_texts()]


@pytest.mark.parametrize("workload", ["bundled", "lattice", "kgroups"])
def test_parse_matches_reference_on_corpora(workload):
    texts = BASE_TEXTS if workload == "bundled" else corpus_texts(workload)
    assert texts
    for text in texts:
        same_outcome(text)


# one-line edits that reach every check of the parser
EXTRA_LINES = [
    "",
    "   \t ",
    "# a comment",
    "[ Edges ]",
    "[edges]",
    "[vertices]",
    "[ALPHABET]",
    "[generators]",
    "[what]",
    "[]",
    "[",
    "[v1]",
    "v1",
    "v1 # trailing",
    "v1 v2",
    "2bad",
    "a = 1/2",
    "a = 1/0",
    "a = 1*zz",
    "a =",
    "g = 0.5",
    "g = nan",
    "v1 -> v1 : a",
    "v1->v2:b",
    "v1 -> v1 : a # comment",
    "v1 ->",
    "v2 : a",
    "v1 -> -> v1 : a",
    "v1 - > v1 : a",
    "v1\t->\tv2\t:\tb",
    "a->b -> c : d",
    "v1 -> v1 : a b",
    "-> v1 : a",
    "v 2",
]
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def mutated_texts(draw):
    lines = draw(st.sampled_from(BASE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["delete", "duplicate", "garble", "insert", "comment", "split-edge"]))
        if op == "delete" and lines:
            del lines[min(at, len(lines) - 1)]
        elif op == "duplicate" and lines:
            lines.insert(at, lines[min(at, len(lines) - 1)])
        elif op == "garble" and lines:
            lines[min(at, len(lines) - 1)] = draw(st.text(alphabet="ab v1:->=[]#*/+- \t0", max_size=12))
        elif op == "insert":
            lines.insert(at, draw(st.sampled_from(EXTRA_LINES)))
        elif op == "comment" and lines:
            lines[min(at, len(lines) - 1)] += " # note"
        elif op == "split-edge":
            lines[at:at] = ["a ->", "b : c"]
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, seps))


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_parse_matches_reference_on_mutations(text):
    same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "v\n[alphabet]\na\n",
        "[alphabet]\na\n[what]\n[vertices]\nbad name\n",
        "[alphabet]\na\na\n[what]\n",
        "[vertices]\nv\n[edges]\nv -> v : a\n[ Edges ]\n",
        "[alphabet]\na\n[vertices]\nv\n[edges]\nv ->\nv : a\n",
        "[alphabet]\na\n[vertices]\nv\n[edges]\nv -> v : a\r\nv v : a\r\n",
        "[alphabet]\na = 1*g\n[vertices]\nv\nw\nv\n",
        "[generators]\ng = x\n2g\n",
        "",
        # a row of six tokens, then one of four: each is a bad edge
        "[alphabet]\na\n[vertices]\nv1\n[edges]\nv1 -> v1 : a b\n-> v1 : a\n",
        "[alphabet]\nb\nd\n[vertices]\nv1\nv2\n[edges]\nv1\t->\tv2\t:\tb\na->b -> c : d\nv2 v1 : b\n",
        # a '\r' next to a comment still ends a line
        "[alphabet]\na # note\r\n[vertices]\nv\nv\n",
        "[alphabet]\na\r# note\n[vertices]\nv\nv\n",
        "[alphabet]\na\n[vertices]\nv1\nv 2\n",
    ],
)
def test_first_defect_in_file_order(text):
    """A defect is reported at its line even when a later section or
    header is bad too; a file with no defect line fails on what is missing."""
    same_outcome(text)
    with pytest.raises(ParseError):
        parse_system(text)


def test_edge_tokens_match_the_regex():
    """Rows split at any whitespace give the edges the regex gives, a
    source that holds '->' included."""
    text = "[alphabet]\nb\nd\n[vertices]\nv1\nv2\n[edges]\nv1\t->\tv2\t:\tb\na->b -> c : d\n"
    same_outcome(text)
    assert parse_system(text).edges == (("v1", "v2", "b"), ("a->b", "c", "d"))


def cap_text(n=1000, k=10):
    """n vertices and n*k edges v -> v+j mod n labeled s_j, j < k, with
    comments and blank lines: left-resolving and essential."""
    lines = ["# parse at the caps", "[alphabet]"]
    lines += [f"s{j} = {j}/{k}" for j in range(k)]
    lines += ["", "[vertices]   # one per line"]
    lines += [f"v{i}" for i in range(n)]
    lines += ["", "[edges]"]
    for i in range(n):
        lines += [f"v{i} -> v{(i + j) % n} : s{j}" for j in range(k)]
        lines += ["", f"# after v{i}"]
    return "\n".join(lines) + "\n"


def test_parse_at_caps_within_budget():
    """The caps' worth of vertices and edges parses and validates in well
    under a second (tens of milliseconds); only super-linear work fails."""
    text = cap_text()
    with wall_clock_limit(1.0):
        graph = parse_system(text).graph()
    assert (graph.vertex_count, len(graph.edges)) == (1000, 10_000)
