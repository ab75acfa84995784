"""Exact rotation angles.

An angle is a point of the circle group R/Z written as

    rational  +  sum_i  c_i * g_i      (mod 1)

with a reduced rational part, finitely many nonzero rational
coefficients c_i, and declared generators g_i that stand for irrational
reals assumed rationally independent of 1 and of each other.  Under
that assumption equality, rationality and vanishing are all decidable
by comparing coefficients, which is what makes the exact verdicts in
the rest of the package possible.

Angles are immutable.  Arithmetic canonicalizes eagerly: the rational
part is reduced into [0, 1) and zero coefficients are dropped, so
structural equality is semantic equality.

The verdicts read the angles only as one integer table,
ExactAngle.integer_coordinates, whose entries are capped at
MAX_ANGLE_BITS bits.  The Fraction arithmetic (+ and -, read through
coefficients and rational) is the independent route the tests check
that table against; in the package only the decorated-language oracle
(oracles.decorated_admissible_words) adds angles.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from typing import Iterable, Mapping

from .errors import (
    AngleSyntaxError,
    CapExceeded,
    ContextMismatch,
    MissingGeneratorValue,
)

__all__ = [
    "GeneratorContext",
    "ExactAngle",
    "parse_angle",
    "EMPTY_CONTEXT",
    "DEFAULT_GENERATOR_VALUE",
    "MAX_ANGLE_BITS",
    "MAX_GENERATORS",
]

# (sqrt(5) - 1) / 2, truncated to 15 digits.  Used as the numeric stand-in
# for a generator whenever no explicit value is supplied.
DEFAULT_GENERATOR_VALUE = 0.618033988749894

# Bits of L and of every integer_coordinates entry.  The verdicts write
# sums of at most 2 * MAX_VERTICES entries, far below the ~14 284 bits
# (4300 digits) that CPython's int-to-str conversion accepts.
MAX_ANGLE_BITS = 4096

# Declared generators per context.  A No from irrational_cycle writes
# every potential with up to G + 1 terms: on a 1000-vertex cycle that
# took 27-41 ms at 32 generators and 44-75 ms at 64 (best of 5, three
# runs, 2 vCPU, CPython 3.11), so 32 fits the 50 ms budget at the caps.
MAX_GENERATORS = 32

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


@dataclass(frozen=True)
class GeneratorContext:
    """Ordered list of declared irrational generators, at most
    MAX_GENERATORS of them.

    Only the names take part in exact arithmetic and equality; numeric
    stand-ins for the oracles live with the document that declares
    them (fileformat.SystemDocument.generator_values).
    """

    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) > MAX_GENERATORS:
            raise CapExceeded("generators", len(self.ids), MAX_GENERATORS)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate generator ids: {self.ids}")
        for name in self.ids:
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad generator id {name!r}")


EMPTY_CONTEXT = GeneratorContext(())


def _merge_contexts(a: GeneratorContext, b: GeneratorContext) -> GeneratorContext:
    if a.ids == b.ids or not b.ids:
        return a
    if not a.ids:
        return b
    raise ContextMismatch(f"cannot combine angles over generators {a.ids} and {b.ids}")


@dataclass(frozen=True)
class ExactAngle:
    """A circle-group element with decidable rationality.

    Do not call the constructor with unreduced data; use :meth:`make`
    or :func:`parse_angle`.
    """

    context: GeneratorContext
    rational: Fraction
    coefficients: tuple[tuple[str, Fraction], ...]

    # -- construction -------------------------------------------------

    @classmethod
    def make(
        cls,
        context: GeneratorContext,
        rational: Fraction | int = 0,
        coefficients: Mapping[str, Fraction] | Iterable[tuple[str, Fraction]] = (),
    ) -> "ExactAngle":
        items = dict(coefficients)
        for name in items:
            if name not in context.ids:
                raise ContextMismatch(f"generator {name!r} not declared in context {context.ids}")
        ordered = tuple(
            (name, Fraction(items[name]))
            for name in context.ids
            if name in items and items[name] != 0
        )
        return cls(context, Fraction(rational) % 1, ordered)

    @classmethod
    def zero(cls, context: GeneratorContext) -> "ExactAngle":
        return cls.make(context, 0)

    # -- integer coordinates ------------------------------------------

    @staticmethod
    def integer_coordinates(angles: Mapping[str, "ExactAngle"]):
        """Put the angles over one common denominator L, the lcm of every
        rational part's and coefficient's denominator.  Returns the merged
        context (EMPTY_CONTEXT mixes with any, as in addition), L, and per
        key the int tuple (rational*L, c_1*L, ..., c_k*L) in generator
        order; sums of tuples are sums of angles, unreduced mod 1.  Raises
        CapExceeded once L or an entry has more than MAX_ANGLE_BITS bits."""
        context, common = EMPTY_CONTEXT, 1
        for a in angles.values():
            context = _merge_contexts(context, a.context)
            common = lcm(common, a.rational.denominator, *(c.denominator for _, c in a.coefficients))
            if common.bit_length() > MAX_ANGLE_BITS:
                raise CapExceeded("angle coordinate bits", f"at least {common.bit_length()}", MAX_ANGLE_BITS)
        position = {name: i for i, name in enumerate(context.ids, 1)}
        zeros = [0] * len(context.ids)
        coords = {}
        bits = 0
        for key, a in angles.items():
            row = [a.rational.numerator * (common // a.rational.denominator), *zeros]
            for name, c in a.coefficients:
                row[position[name]] = c.numerator * (common // c.denominator)
            coords[key] = row = tuple(row)
            bits = max(bits, *map(int.bit_length, row))
        if bits > MAX_ANGLE_BITS:
            raise CapExceeded("angle coordinate bits", bits, MAX_ANGLE_BITS)
        return context, common, coords

    @staticmethod
    def format_integer_coordinates(context: GeneratorContext, common: int, coords) -> str:
        """str() of the angle of one integer_coordinates tuple, written
        without building the angle: the rational part reduced mod 1 and
        every nonzero coefficient in lowest terms."""
        rational, *terms = coords
        parts = [_ratio_text(rational % common, common)]
        for name, c in zip(context.ids, terms):
            if c:
                parts.append(f"{'-' if c < 0 else '+'} {_ratio_text(abs(c), common)}*{name}")
        return " ".join(parts)

    # -- group structure ----------------------------------------------

    def __add__(self, other: "ExactAngle") -> "ExactAngle":
        ctx = _merge_contexts(self.context, other.context)
        coeffs = dict(self.coefficients)
        for name, c in other.coefficients:
            coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return ExactAngle.make(ctx, self.rational + other.rational, coeffs)

    def __neg__(self) -> "ExactAngle":
        return ExactAngle.make(
            self.context, -self.rational, {n: -c for n, c in self.coefficients}
        )

    def __sub__(self, other: "ExactAngle") -> "ExactAngle":
        return self + (-other)

    # -- decidable predicates -----------------------------------------

    def is_zero(self) -> bool:
        """True iff the angle is an integer, i.e. trivial in R/Z."""
        return self.rational == 0 and not self.coefficients

    # -- numeric evaluation -------------------------------------------

    def to_float(self, values: Mapping[str, float]) -> float:
        """Approximate the angle in [0, 1) using numeric generator values.

        The mapping must cover every generator the angle uses, else
        MissingGeneratorValue; the callers fill in
        DEFAULT_GENERATOR_VALUE where no value is given.  An angle whose
        value overflows a float raises ValueError.
        """
        x = float(self.rational)
        for name, c in self.coefficients:
            if name not in values:
                raise MissingGeneratorValue(name)
            try:
                x += float(c) * values[name]
            except OverflowError:
                x = inf
        if not isfinite(x):
            raise ValueError(f"angle {self} is too large for a float")
        return x % 1.0

    # -- presentation ---------------------------------------------------

    def __str__(self) -> str:
        parts = [str(self.rational)]
        for name, c in self.coefficients:
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)}*{name}")
        return " ".join(parts)


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for p >= 0 and q > 0."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _parse_rat(chunk: str, whole: str) -> tuple[int, int]:
    """Numerator and denominator of a chunk that matches _RAT_RE.  A
    numeral past CPython's int-string limit raises CapExceeded."""
    num, _, den = chunk.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        digits = max(len(num.lstrip("+-")), len(den))
        raise CapExceeded("angle numeral digits", digits, sys.get_int_max_str_digits()) from None
    if not q:
        raise AngleSyntaxError(f"zero denominator in {chunk!r} (in {whole!r})")
    return p, q


def parse_angle(text: str, context: GeneratorContext) -> ExactAngle:
    """Parse an angle expression.

    Grammar (whitespace-insensitive)::

        angle  :=  rat
                |  rat (('+' | '-') rat '*' ident)+
                |  rat? (('+' | '-')? rat '*' ident)+
        rat    :=  int | int '/' posint

    Every identifier must be declared in ``context``.  A numeral past
    CPython's int-string limit raises CapExceeded.
    """
    stripped = text.strip()
    if not stripped:
        raise AngleSyntaxError("empty angle expression")
    # split into signed chunks; signs only occur between terms or leading
    compact = stripped.replace(" ", "").replace("\t", "")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if not chunks or "".join(chunks) != compact:
        raise AngleSyntaxError(f"cannot tokenize angle expression {text!r}")
    rational = None
    coeffs: dict[str, Fraction] = {}
    for chunk in chunks:
        coef_text, star, ident = chunk.partition("*")
        if star:
            if not _RAT_RE.match(coef_text):
                raise AngleSyntaxError(f"bad coefficient {coef_text!r} in {text!r}")
            if not _IDENT_RE.match(ident):
                raise AngleSyntaxError(f"bad generator name {ident!r} in {text!r}")
            if ident not in context.ids:
                raise ContextMismatch(f"generator {ident!r} not declared (have {context.ids})")
            c = Fraction(*_parse_rat(coef_text, text))
            coeffs[ident] = coeffs[ident] + c if ident in coeffs else c
        else:
            if rational is not None:
                raise AngleSyntaxError(f"two rational terms in angle expression {text!r}")
            if not _RAT_RE.match(chunk):
                raise AngleSyntaxError(f"bad rational term {chunk!r} in {text!r}")
            p, q = _parse_rat(chunk, text)
            rational = Fraction(p % q, q)
    # canonical in one step: every name is declared, so only order and zeros remain
    terms = tuple((name, coeffs[name]) for name in context.ids if coeffs.get(name))
    return ExactAngle(context, rational or Fraction(0), terms)
