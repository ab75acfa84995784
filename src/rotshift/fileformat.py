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

from .angles import DEFAULT_GENERATOR_VALUE, ExactAngle, GeneratorContext, parse_angle
from .errors import ParseError
from .graph import LabeledGraph, validate_graph

__all__ = ["SystemDocument", "parse_system", "parse_system_file", "serialize_system"]

_SECTIONS = ("generators", "alphabet", "vertices", "edges")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_EDGE_RE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*:\s*(\S+)$")


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

    def float_angles(self, overrides: Mapping[str, float] | None = None) -> dict[str, float]:
        """Numeric angle per symbol, for the floating-point oracles.

        A generator stands for the overriding value, else the file's
        value, else DEFAULT_GENERATOR_VALUE.
        """
        values = {
            **dict.fromkeys(self.context.ids, DEFAULT_GENERATOR_VALUE),
            **self.generator_values,
            **(overrides or {}),
        }
        return {s: a.to_float(values) for s, a in self.angles.items()}


def parse_system(text: str) -> SystemDocument:
    section = None
    # names as dict keys: constant-time duplicate checks, declared order kept
    gen_names: dict[str, None] = {}
    gen_values: dict[str, float] = {}
    alphabet: list[str] = []
    raw_angles: dict[str, str | None] = {}
    vertices: dict[str, None] = {}
    edges: list[tuple[str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if section is not None and _SECTIONS.index(name) <= _SECTIONS.index(section):
                raise ParseError(f"section [{name}] out of order", lineno)
            section = name
            continue
        if section is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        if section == "generators":
            name, _, value = (p.strip() for p in line.partition("="))
            if not _NAME_RE.match(name):
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
        elif section == "alphabet":
            name, eq, expr = (p.strip() for p in line.partition("="))
            if not _NAME_RE.match(name):
                raise ParseError(f"bad symbol name {name!r}", lineno)
            if name in raw_angles:
                raise ParseError(f"symbol {name!r} declared twice", lineno)
            alphabet.append(name)
            raw_angles[name] = expr if eq else None
        elif section == "vertices":
            if not _NAME_RE.match(line):
                raise ParseError(f"bad vertex name {line!r}", lineno)
            if line in vertices:
                raise ParseError(f"vertex {line!r} declared twice", lineno)
            vertices[line] = None
        elif section == "edges":
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError(f"bad edge syntax {line!r} (want 'src -> dst : symbol')", lineno)
            edges.append((m.group(1), m.group(2), m.group(3)))

    context = GeneratorContext(tuple(gen_names))
    angles: dict[str, ExactAngle] = {}
    for symbol in alphabet:
        expr = raw_angles[symbol]
        if expr is None or expr == "":
            angles[symbol] = ExactAngle.zero(context)
        else:
            try:
                angles[symbol] = parse_angle(expr, context)
            except Exception as exc:
                raise ParseError(f"bad angle for symbol {symbol!r}: {exc}") from exc
    if not alphabet:
        raise ParseError("missing or empty [alphabet] section")
    if not vertices:
        raise ParseError("missing or empty [vertices] section")
    if not edges:
        raise ParseError("missing or empty [edges] section")
    return SystemDocument(
        context=context,
        alphabet=tuple(alphabet),
        angles=angles,
        vertices=tuple(vertices),
        edges=tuple(edges),
        generator_values=gen_values,
    )


def parse_system_file(path) -> SystemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def serialize_system(doc: SystemDocument) -> str:
    """Canonical text form; parse(serialize(doc)) == doc."""
    lines: list[str] = []
    if doc.context.ids:
        lines.append("[generators]")
        for name in doc.context.ids:
            if name in doc.generator_values:
                lines.append(f"{name} = {doc.generator_values[name]!r}")
            else:
                lines.append(name)
        lines.append("")
    lines.append("[alphabet]")
    for s in doc.alphabet:
        angle = doc.angles[s]
        if angle.is_zero():
            lines.append(s)
        else:
            lines.append(f"{s} = {angle}")
    lines.append("")
    lines.append("[vertices]")
    lines.extend(doc.vertices)
    lines.append("")
    lines.append("[edges]")
    for src, dst, symbol in doc.edges:
        lines.append(f"{src} -> {dst} : {symbol}")
    lines.append("")
    return "\n".join(lines)
