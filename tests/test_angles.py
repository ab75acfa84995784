"""Exact angle arithmetic: group laws, decidability, parsing, floats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotshift.angles import (
    EMPTY_CONTEXT,
    ExactAngle,
    MAX_ANGLE_BITS,
    MAX_GENERATORS,
    GeneratorContext,
    parse_angle,
)
from conftest import outcome, reference_parse_angle
from rotshift.errors import AngleSyntaxError, CapExceeded, ContextMismatch, MissingGeneratorValue

CTX = GeneratorContext(("g", "h"))
VALUES = {"g": 0.618033988749894, "h": 0.414213562373095}


@st.composite
def exact_angles(draw):
    p = draw(st.integers(-24, 24))
    q = draw(st.integers(1, 12))
    coeffs = {}
    for name in CTX.ids:
        if draw(st.booleans()):
            coeffs[name] = Fraction(draw(st.integers(-10, 10)), draw(st.integers(1, 12)))
    return ExactAngle.make(CTX, Fraction(p, q), coeffs)


def circle_distance(x, y):
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


# -- group laws -------------------------------------------------------------


@given(exact_angles(), exact_angles(), exact_angles())
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(exact_angles())
def test_identity_and_inverse(a):
    zero = ExactAngle.zero(CTX)
    assert a + zero == a
    assert (a + (-a)).is_zero()
    assert a - a == ExactAngle.zero(CTX)


@given(exact_angles())
def test_canonical_form(a):
    assert 0 <= a.rational < 1
    assert all(c != 0 for _, c in a.coefficients)
    names = [n for n, _ in a.coefficients]
    assert names == [n for n in CTX.ids if n in names]


def test_structural_equality_is_semantic():
    a = ExactAngle.make(CTX, Fraction(7, 2), {"g": Fraction(2, 4)})
    b = ExactAngle.make(CTX, Fraction(1, 2), {"g": Fraction(1, 2)})
    assert a == b
    assert hash(a) == hash(b)


# -- decidable predicates ----------------------------------------------------


def test_rationality_and_zero():
    assert not ExactAngle.make(CTX, Fraction(3, 4)).coefficients
    assert ExactAngle.make(CTX, 0, {"g": Fraction(1)}).coefficients
    assert ExactAngle.make(CTX, 5).is_zero()
    g = ExactAngle.make(CTX, 0, {"g": Fraction(1, 3)})
    assert (g + g + g - ExactAngle.make(CTX, 0, {"g": Fraction(1)})).is_zero()
    assert ExactAngle.make(CTX, Fraction(5, 6)).rational.denominator == 6


def test_generator_terms_cancel_exactly():
    a = ExactAngle.make(CTX, Fraction(1, 3), {"g": Fraction(2, 5)})
    b = ExactAngle.make(CTX, Fraction(1, 6), {"g": Fraction(-2, 5), "h": Fraction(1)})
    s = a + b
    assert s.rational == Fraction(1, 2)
    assert s.coefficients == (("h", Fraction(1)),)


# -- context handling --------------------------------------------------------


def test_context_mismatch_on_mixed_generators():
    other = GeneratorContext(("w",))
    a = ExactAngle.make(CTX, 0, {"g": Fraction(1)})
    b = ExactAngle.make(other, 0, {"w": Fraction(1)})
    with pytest.raises(ContextMismatch):
        a + b


def test_empty_context_merges_freely():
    a = ExactAngle.make(CTX, 0, {"g": Fraction(1)})
    b = ExactAngle.make(EMPTY_CONTEXT, Fraction(1, 2))
    assert (a + b).context == CTX


def test_context_validation():
    with pytest.raises(ValueError):
        GeneratorContext(("g", "g"))
    with pytest.raises(ValueError):
        GeneratorContext(("2bad",))


def test_context_caps_the_generator_count():
    names = tuple(f"g{k}" for k in range(MAX_GENERATORS + 1))
    assert GeneratorContext(names[:-1]).ids == names[:-1]
    with pytest.raises(CapExceeded) as info:
        GeneratorContext(names)
    assert str(info.value) == f"generators: requested {MAX_GENERATORS + 1}, cap is {MAX_GENERATORS}"


def test_make_rejects_undeclared_generator():
    with pytest.raises(ContextMismatch):
        ExactAngle.make(CTX, 0, {"nope": Fraction(1)})


# -- parsing and formatting ---------------------------------------------------


@pytest.mark.parametrize(
    "text,rational,coeffs",
    [
        ("0", Fraction(0), ()),
        ("1/2", Fraction(1, 2), ()),
        ("-1/3", Fraction(2, 3), ()),
        ("1*g", Fraction(0), (("g", Fraction(1)),)),
        ("-1*g", Fraction(0), (("g", Fraction(-1)),)),
        ("1/2+1*g", Fraction(1, 2), (("g", Fraction(1)),)),
        ("1/2 - 2/3*h + 1*g", Fraction(1, 2), (("g", Fraction(1)), ("h", Fraction(-2, 3)))),
        ("3/4*g+1/4*g", Fraction(0), (("g", Fraction(1)),)),
        ("7/2", Fraction(1, 2), ()),
    ],
)
def test_parse_examples(text, rational, coeffs):
    a = parse_angle(text, CTX)
    assert a.rational == rational
    assert a.coefficients == coeffs


@given(exact_angles())
def test_parse_format_round_trip(a):
    assert parse_angle(str(a), CTX) == a


@pytest.mark.parametrize(
    "text",
    ["", "  ", "1+1", "1/0", "1/0*g", "1**g", "g", "1.5", "x*g", "1*", "*g", "++1"],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(AngleSyntaxError):
        parse_angle(text, CTX)


def test_parse_rejects_undeclared_generator():
    with pytest.raises(ContextMismatch):
        parse_angle("1*w", CTX)


@st.composite
def angle_expressions(draw):
    """Angle text with spaces and tabs and signed rational and generator
    terms.  Half the draws may also hold zero denominators, undeclared or
    malformed generator names, stray '*' and other junk terms."""
    rough = draw(st.booleans())
    space = st.sampled_from(["", " ", "\t", " \t "])
    rat = st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 40).map(str),
        st.sampled_from(["", "", *(f"/{q}" for q in range(1, 13)), *(["/0"] if rough else [])]),
    )
    names = st.sampled_from(["g", "h", *(["w", "g*h", "", "1"] if rough else [])])
    kinds = {
        "rat": rat,
        "gen": st.builds("{}*{}".format, rat, names),
        "junk": st.sampled_from(["*", "**g", "1/", "/2", "1.5", "x"]),
    }
    term = st.sampled_from(["rat", "gen", "gen", "gen", *(["junk"] if rough else [])]).flatmap(kinds.get)
    terms = draw(st.lists(term, max_size=4))
    parts = []
    for i, t in enumerate(terms):
        if i and t[:1] not in "+-":
            t = draw(st.sampled_from(["+", "-", *([""] if rough else [])])) + t
        parts.append(draw(space) + t + draw(space))
    return "".join(parts)


def same_angle(text):
    """The int-reading parser gives the angle the Fraction(str) route and
    ExactAngle.make give, or the same exception type and message."""
    new, ref = outcome(parse_angle, text, CTX), outcome(reference_parse_angle, text, CTX)
    assert new == ref
    assert repr(new) == repr(ref)


@settings(max_examples=400, deadline=None)
@given(angle_expressions())
def test_parse_angle_matches_fraction_str_reference(text):
    same_angle(text)


@pytest.mark.parametrize(
    "text",
    ["", " \t ", "0/7", "3/0", "-3/0*g", "+1/2", "- 1/2", "1*g + 1*g", "1*g - 1*g", "2/4*g+-1/2*g",
     "1/2 + 1/3", "1*w", "1*", "*g", "1 * g", "\t3/4\t- 1/6*h", "-0", "1/2*g*h", "٣/4"],
)
def test_parse_angle_matches_reference_on_corners(text):
    same_angle(text)


# -- numeric evaluation --------------------------------------------------------


def test_to_float_basics():
    a = ExactAngle.make(CTX, Fraction(1, 4), {"g": Fraction(2)})
    expected = (0.25 + 2 * VALUES["g"]) % 1.0
    assert abs(a.to_float(VALUES) - expected) < 1e-15
    assert 0 <= a.to_float(VALUES) < 1


def test_to_float_defaults_and_missing():
    a = ExactAngle.make(GeneratorContext(("g",)), 0, {"g": Fraction(1)})
    with pytest.raises(MissingGeneratorValue):
        a.to_float({"h": 0.5})


@settings(max_examples=60)
@given(st.lists(exact_angles(), min_size=1, max_size=100))
def test_float_homomorphism_on_addition_chains(chain):
    """Chains of up to 100 additions stay within 2^-38 of the float sum."""
    exact = chain[0]
    approx = chain[0].to_float(VALUES)
    for a in chain[1:]:
        exact = exact + a
        approx = (approx + a.to_float(VALUES)) % 1.0
    assert circle_distance(exact.to_float(VALUES), approx) < 2.0**-38


# -- integer coordinates ---------------------------------------------------------


# a coordinate: zero, small, a multiple of the denominator or past 2^64
coordinate = st.one_of(
    st.just(0), st.integers(-5, 5), st.integers(-(2**80), 2**80), st.integers(-3, 3).map(lambda k: k * 2**70)
)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 3),
    st.one_of(st.integers(1, 12), st.integers(1, 2**70), st.just(2**70)),
    st.lists(coordinate, min_size=4, max_size=4),
)
def test_format_integer_coordinates_matches_str(k, common, coords):
    context = GeneratorContext(("g", "h", "x1", "y_2")[:k])
    rational, *terms = coords[: k + 1]
    angle = ExactAngle.make(
        context, Fraction(rational, common), {g: Fraction(c, common) for g, c in zip(context.ids, terms)}
    )
    assert ExactAngle.format_integer_coordinates(context, common, coords[: k + 1]) == str(angle)


@given(st.lists(exact_angles(), min_size=1, max_size=6))
def test_integer_coordinates_write_back_each_angle(chain):
    angles = {f"s{i}": a for i, a in enumerate(chain)}
    context, common, coords = ExactAngle.integer_coordinates(angles)
    for key, a in angles.items():
        assert ExactAngle.format_integer_coordinates(context, common, coords[key]) == str(a)


AT_CAP = 2**MAX_ANGLE_BITS - 1  # the largest int of MAX_ANGLE_BITS bits


@pytest.mark.parametrize(
    "rational, coefficient, bits",
    [
        (Fraction(1, AT_CAP), 0, None),
        (Fraction(0), Fraction(-AT_CAP), None),
        (Fraction(1, AT_CAP + 1), 0, f"at least {MAX_ANGLE_BITS + 1}"),
        (Fraction(0), Fraction(AT_CAP + 1), MAX_ANGLE_BITS + 1),
        # neither L nor the coefficient passes the cap; their product does
        (Fraction(1, 2**2048), Fraction(2**2048), MAX_ANGLE_BITS + 1),
    ],
    ids=["L-at-cap", "entry-at-cap", "L-past-cap", "entry-past-cap", "product-past-cap"],
)
def test_integer_coordinates_cap_the_bits_of_L_and_of_every_entry(rational, coefficient, bits):
    angles = {"a": ExactAngle.make(CTX, rational, {"g": coefficient}), "b": ExactAngle.zero(CTX)}
    if bits is None:
        _, common, coords = ExactAngle.integer_coordinates(angles)
        assert max(common.bit_length(), *(abs(x).bit_length() for x in coords["a"])) == MAX_ANGLE_BITS
    else:
        with pytest.raises(CapExceeded) as info:
            ExactAngle.integer_coordinates(angles)
        assert str(info.value) == f"angle coordinate bits: requested {bits}, cap is {MAX_ANGLE_BITS}"


def test_str_is_canonical():
    a = ExactAngle.make(CTX, Fraction(1, 2), {"g": Fraction(-1, 3), "h": Fraction(2)})
    assert str(a) == "1/2 - 1/3*g + 2*h"
    assert str(ExactAngle.zero(CTX)) == "0"
