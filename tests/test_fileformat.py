"""The plain-text system description format."""

import glob
import os

import pytest

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
    theta = doc.float_angles()
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
