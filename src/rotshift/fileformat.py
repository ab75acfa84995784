"""The plain-text system description format.

A system file declares the irrational generators, the alphabet with its
exact angles, the vertices, and the labeled edges::

    # golden mean shift, symbol a decorated with the generator g
    [generators]
    g = 0.618033988749894      # optional numeric stand-in for oracles

    [alphabet]
    a = 1*g
    b                          # omitted angle means 0
    c = 0

    [vertices]
    v1
    v2

    [edges]
    v1 -> v1 : a
    v1 -> v2 : b
    v2 -> v1 : c

'#' starts a comment anywhere on a line; blank lines and surrounding
whitespace are insignificant.  Section order is fixed as above, except
[generators] may be omitted when no generator is used.  Parsing and
serialization round-trip: serialize(parse(text)) reparses to an equal
document, and documents are serialized in canonical form (angles
reduced, declared orders preserved).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import isfinite, nan
from typing import Mapping

from .angles import NAME_RE, ExactAngle, GeneratorContext, parse_angle
from .errors import AngleSyntaxError, ContextMismatch, ParseError
from .graph import LabeledGraph, validate_graph

__all__ = ["SystemDocument", "parse_system", "parse_system_file", "serialize_system"]

_SECTIONS = ("generators", "alphabet", "vertices", "edges")
# one edge per line; [^\S\n] keeps a match of the joined [edges] lines inside one line
_EDGE_RE = re.compile(r"^(\S+)[^\S\n]*->[^\S\n]*(\S+)[^\S\n]*:[^\S\n]*(\S+)$", re.M)
# a nonempty list of names joined by newlines
_NAMES_RE = re.compile("{0}(?:\n{0})*".format(NAME_RE.pattern))


@dataclass(frozen=True)
class SystemDocument:
    """Parsed system description: graph data plus exact angle decoration."""

    context: GeneratorContext
    alphabet: tuple[str, ...]
    angles: dict[str, ExactAngle]
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    generator_values: dict[str, float] = field(default_factory=dict)

    def graph(self) -> LabeledGraph:
        """Validate and freeze the graph part (may raise GraphValidationError)."""
        return validate_graph(self.vertices, self.edges, self.alphabet)

    def float_angles(self, overrides: Mapping[str, float]) -> dict[str, float]:
        """Numeric angle per symbol, for the floating-point oracles.

        A generator stands for the overriding value, else the file's
        value; ExactAngle.to_float applies the default to the rest.
        """
        values = {**self.generator_values, **overrides}
        return {s: a.to_float(values) for s, a in self.angles.items()}


def parse_system(text: str) -> SystemDocument:
    """Check each section in bulk; a walk over its lines runs only when a
    check fails, to raise the first defect in file order.

    Comments are cut line by line, and only when the text holds a '#';
    a regex over the whole text could join a carriage return before a
    comment to the line feed after it.  Each name list is one fullmatch
    of the names joined by newlines, plus one count of the distinct
    names.  [edges] is split at whitespace into token columns, which
    must be five per row with '->' and ':' in the second and fourth;
    any other spacing is read by one regex over the joined rows.
    """
    raw = text.splitlines()
    lines = [line.partition("#")[0].strip() for line in raw] if "#" in text else list(map(str.strip, raw))
    heads = [i for i, line in enumerate(lines) if line[:1] == "[" and line[-1:] == "]"]
    stray = next((i for i in range(heads[0] if heads else len(lines)) if lines[i]), None)
    if stray is not None:
        raise ParseError(f"content before any section: {lines[stray]!r}", stray + 1)
    # section name -> (index of its first line, its lines); a bad header
    # ends the sections and is raised after every defect above it
    sections: dict[str, tuple[int, list[str]]] = {}
    bad_header = None
    for i, end in zip(heads, heads[1:] + [len(lines)]):
        name = lines[i][1:-1].strip().lower()
        if name not in _SECTIONS:
            bad_header = ParseError(f"unknown section [{name}]", i + 1)
            break
        if not sections.keys().isdisjoint(_SECTIONS[_SECTIONS.index(name) :]):
            bad_header = ParseError(f"section [{name}] out of order", i + 1)
            break
        sections[name] = (i + 1, lines[i + 1 : end])

    # [generators] holds a line or two: one walk both checks and reads it
    gen_names: dict[str, None] = {}
    gen_values: dict[str, float] = {}
    first, body = sections.get("generators", (0, []))
    for lineno, line in enumerate(body, start=first + 1):
        if not line:
            continue
        name, _, value = (p.strip() for p in line.partition("="))
        if not NAME_RE.fullmatch(name):
            raise ParseError(f"bad generator name {name!r}", lineno)
        if name in gen_names:
            raise ParseError(f"generator {name!r} declared twice", lineno)
        gen_names[name] = None
        if value:
            try:
                number = float(value)
            except ValueError:
                number = nan
            if not isfinite(number):
                raise ParseError(f"bad numeric value {value!r} for generator {name!r}", lineno)
            gen_values[name] = number

    entries = [line.partition("=") for line in sections.get("alphabet", (0, []))[1] if line]
    alphabet = [name.strip() for name, _, _ in entries]
    vertices = list(filter(None, sections.get("vertices", (0, []))[1]))
    for kind, section, names in (("symbol", "alphabet", alphabet), ("vertex", "vertices", vertices)):
        if (not names or _NAMES_RE.fullmatch("\n".join(names))) and len(set(names)) == len(names):
            continue
        first, body = sections[section]
        seen: set[str] = set()
        for lineno, name in zip((n for n, line in enumerate(body, start=first + 1) if line), names):
            if not NAME_RE.fullmatch(name):
                raise ParseError(f"bad {kind} name {name!r}", lineno)
            if name in seen:
                raise ParseError(f"{kind} {name!r} declared twice", lineno)
            seen.add(name)

    first, body = sections.get("edges", (0, []))
    rows = list(filter(None, body))
    try:
        srcs, arrows, dsts, colons, symbols = zip(*map(str.split, rows), strict=True)
        spaced = arrows.count("->") == colons.count(":") == len(rows)
    except ValueError:  # no rows, or a row of other than five tokens
        spaced = False
    edges = list(zip(srcs, dsts, symbols)) if spaced else _EDGE_RE.findall("\n".join(rows))
    if len(edges) < len(rows):
        for lineno, line in enumerate(body, start=first + 1):
            if line and not _EDGE_RE.match(line):
                raise ParseError(f"bad edge syntax {line!r} (want 'src -> dst : symbol')", lineno)
    if bad_header is not None:
        raise bad_header

    context = GeneratorContext(tuple(gen_names))
    zero = ExactAngle.zero(context)
    angles: dict[str, ExactAngle] = {}
    for symbol, (_, _, expr) in zip(alphabet, entries):
        expr = expr.strip()
        try:
            angles[symbol] = parse_angle(expr, context) if expr else zero
        except (AngleSyntaxError, ContextMismatch) as exc:
            raise ParseError(f"bad angle for symbol {symbol!r}: {exc}") from exc
    for name, found in (("alphabet", alphabet), ("vertices", vertices), ("edges", edges)):
        if not found:
            raise ParseError(f"missing or empty [{name}] section")
    return SystemDocument(context, tuple(alphabet), angles, tuple(vertices), tuple(edges), gen_values)


def parse_system_file(path) -> SystemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def serialize_system(doc: SystemDocument) -> str:
    """Canonical text form; parse(serialize(doc)) == doc."""
    values = doc.generator_values
    gens = [f"{name} = {values[name]!r}" if name in values else name for name in doc.context.ids]
    lines = ["[generators]", *gens, ""] if gens else []
    lines += ["[alphabet]", *(s if doc.angles[s].is_zero() else f"{s} = {doc.angles[s]}" for s in doc.alphabet), ""]
    lines += ["[vertices]", *doc.vertices, "", "[edges]", *(f"{a} -> {b} : {s}" for a, b, s in doc.edges), ""]
    return "\n".join(lines)
