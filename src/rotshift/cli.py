"""Command-line interface.

Subcommands:

* validate FILE: check the description, its size caps and angle caps,
  and echo the declared orders.
* words FILE -k N: admissible words of length N, one per line.
* analyze FILE | --angles LIST: full verdict report, of one input or
  the other; both together are a usage error.
* ktheory FILE [--af-core] [--bunce-deddens]: K-groups and the
  stationary ladders, each map as sparse [row, column, multiplicity]
  triples.
* ideals FILE: invariant saturated subsets, lattice and quotients.
* oracle orbit FILE ... / oracle weyl ...: the numeric oracles.

Each subcommand imports its own modules when it runs; validate loads
only angles, errors, fileformat, graph and report.

Each subcommand returns its payload and its text lines and writes
nothing; main alone writes the output and sets the exit code.
`--json` prints exactly json.dumps(payload, indent=2) and a newline.

Exit codes: 0 success, 2 graph validation failure (the report header
with the defect's witness is still emitted), 1 usage or IO errors,
out-of-range argument values and exceeded size caps; stdout stays
empty on exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from . import __version__
from .angles import NAME_RE, ExactAngle, GeneratorContext, parse_angle
from .errors import ParseError, RotshiftError
from .fileformat import SystemDocument, parse_system, serialize_system
from .graph import LabeledGraph, full_shift_graph
from .report import analyze_document, validation_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _read_document(path: str) -> tuple[SystemDocument, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RotshiftError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_system(text), text
    except ParseError as exc:
        raise RotshiftError(f"{path}: {exc}") from exc


def _gen_overrides(pairs: list[str] | None, declared: tuple[str, ...]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or ():
        name, eq, value = pair.partition("=")
        if not eq:
            raise RotshiftError(f"--gen wants name=value, got {pair!r}")
        name = name.strip()
        if name not in declared:
            raise RotshiftError(
                f"--gen names undeclared generator {name!r} (declared: {', '.join(declared) or 'none'})"
            )
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise RotshiftError(f"bad numeric value in --gen {pair!r}")
        out[name] = number
    return out


_escape = json.encoder.encode_basestring_ascii
_scalar = json.JSONEncoder().encode


def _indented_json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), written in one pass.

    The stdlib writes indented JSON with pure-Python generators; here
    its C string escaper does the strings and its compact encoder every
    scalar but str and int, so floats, NaN and Infinity come out as
    json.dumps writes them.  A dict's text is one join of its keys and
    its children's texts, str and int children written in place.  A
    dict held under several keys of one dict, as condition (I) entries
    are, is written once for that dict: its text is the same at each
    key, all at one indent.
    """
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        head = "{" + inner
        separator = "," + inner
        parts = []
        written: dict[int, str] = {}  # id of a dict child -> its text
        for k, v in value.items():
            parts.append(head + _escape(k) + ": ")
            head = separator
            kind = type(v)
            if kind is str:
                parts.append(_escape(v))
            elif kind is int:
                parts.append(int.__repr__(v))
            elif kind is dict:
                text = written.get(id(v))
                if text is None:
                    text = written[id(v)] = _indented_json(v, inner)
                parts.append(text)
            else:
                parts.append(_indented_json(v, inner))
        parts.append(indent + "}")
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        separator = "," + inner
        if isinstance(value[0], str):
            try:  # a list of strings, escaped in one C loop
                return "[" + inner + separator.join(map(_escape, value)) + indent + "]"
            except TypeError:  # a later item is no string
                pass
        body = separator.join([int.__repr__(v) if type(v) is int else _indented_json(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    return _scalar(value)


def _emit(payload: dict, as_json: bool, text_lines: Iterable[str]) -> None:
    """Print payload as JSON, or else the text lines.  Commands whose
    lines cost time pass them as a generator, which --json never runs."""
    if as_json:
        print(_indented_json(payload))
    else:
        for line in text_lines:
            print(line)


class _Invalid(Exception):
    """A graph failed validation; the one argument is the report, which
    main writes before it exits 2."""


def _read_graph(args) -> tuple[SystemDocument, dict, LabeledGraph]:
    """Read and validate args.file: (document, report header, graph).

    The header carries version, input_digest and validation.  A
    validation failure raises _Invalid with the header; a size cap
    raises CapExceeded, which main reports with exit 1.
    """
    doc, text = _read_document(args.file)
    header, graph = validation_report(doc, text)
    if graph is None:
        raise _Invalid(header)
    return doc, header, graph


def _generator_context(text: str) -> GeneratorContext:
    """Declare every identifier that follows a '*' in text as a
    generator, in order of first appearance.  The angle grammar has no
    other place for one, so the exponent of a float literal such as
    1e-3 declares nothing."""
    names = (NAME_RE.match(part.lstrip()) for part in text.split("*")[1:])
    return GeneratorContext(tuple(dict.fromkeys(m[0] for m in names if m)))


def _angles_document(angle_list: str) -> SystemDocument:
    """Build an n-loop full-shift document from a comma-separated list
    of exact angle expressions; names after '*' are auto-declared as
    generators in order of first appearance."""
    exprs = [chunk.strip() for chunk in angle_list.split(",")]
    if any(not chunk for chunk in exprs):
        raise RotshiftError("empty entry in --angles list")
    context = _generator_context(angle_list)
    try:
        angles = [parse_angle(expr, context) for expr in exprs]
    except RotshiftError as exc:
        raise RotshiftError(f"bad --angles list: {exc}") from exc
    graph = full_shift_graph(len(angles))
    return SystemDocument(context, graph.alphabet, dict(zip(graph.alphabet, angles)), graph.vertices, graph.edges)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> tuple[dict, Iterable[str]]:
    doc, header, graph = _read_graph(args)
    ExactAngle.integer_coordinates(doc.angles)  # the angle caps analyze applies
    lines = [
        "validation: ok",
        f"vertices: {' '.join(graph.vertices)}",
        f"alphabet: {' '.join(graph.alphabet)}",
        f"edges: {len(graph.edges)}",
    ]
    return header, lines


def _cmd_words(args) -> tuple[dict, Iterable[str]]:
    from .subshift import admissible_words

    _doc, _header, graph = _read_graph(args)
    words = admissible_words(graph, args.length)
    payload = {
        "length": args.length,
        "alphabet": list(graph.alphabet),
        "count": len(words),
        "words": words,  # tuples, which the JSON writer writes as lists
    }
    return payload, (" ".join(w) if w else "(empty word)" for w in words)


def _analyze_lines(doc: SystemDocument, report: dict) -> Iterator[str]:
    """The text form of an analyze report."""
    yield f"validation: ok ({len(doc.vertices)} vertices, {len(doc.alphabet)} symbols)"
    for key in (
        "condition_I",
        "irreducible",
        "irrational_cycle",
        "g_minimal",
        "simple_O",
        "purely_infinite_O",
    ):
        section = report[key]
        yield f"{key}: {section['verdict']}  [{section['criterion']}]"
    fs = report["fullshift"]
    yield f"fullshift.F_simple: {fs['F_simple']['verdict']}"
    yield f"fullshift.uniformly_distributed: {fs['uniformly_distributed']['verdict']}"
    kt = report["k_theory"]
    yield f"k_theory: K0 = {kt['K0']}, K1 = {kt['K1']}"
    if report["ideals"] is not None:
        pretty = ["{" + ",".join(w) + "}" for w in report["ideals"]["invariant_saturated"]]
        yield f"ideals: {' '.join(pretty)}"
    for w in report["warnings"]:
        yield f"warning: {w}"


def _cmd_analyze(args) -> tuple[dict, Iterable[str]]:
    if args.angles is not None:
        if args.file is not None:
            raise RotshiftError(
                f"analyze takes a FILE or --angles, not both (got {args.file!r} and --angles {args.angles!r})"
            )
        doc = _angles_document(args.angles)
        text = serialize_system(doc)
    else:
        if args.file is None:
            raise RotshiftError("analyze needs a FILE or --angles")
        doc, text = _read_document(args.file)
    report, ok = analyze_document(doc, text)
    if not ok:
        raise _Invalid(report)
    return report, _analyze_lines(doc, report)


def _cmd_ktheory(args) -> tuple[dict, Iterable[str]]:
    from .ktheory import bunce_deddens_data, core_dimension_data, graph_k_groups, k_theory_json

    _doc, _header, graph = _read_graph(args)
    n = len(graph.alphabet)
    # checked before the K-groups run, which can take minutes
    if args.bunce_deddens and (graph.vertex_count != 1 or n < 2):
        raise RotshiftError("--bunce-deddens needs a single-vertex full shift")
    payload: dict = {"k_theory": k_theory_json(graph_k_groups(graph))}
    if args.af_core:
        payload["af_core"] = core_dimension_data(graph)
    if args.bunce_deddens:
        payload["bunce_deddens"] = bunce_deddens_data(n)

    def lines() -> Iterator[str]:
        yield f"K0 = K1 = {payload['k_theory']['K0']}"
        if args.af_core:
            yield f"core level: rank {graph.vertex_count} in both degrees"
            yield f"connecting map (both degrees) as [row, column, multiplicity]: {payload['af_core']['map']}"
        if args.bunce_deddens:
            ladder = payload["bunce_deddens"]
            yield (
                f"scaled-integer ladder: K0 = Z --x{n}--> Z (limit {ladder['K0_limit']}, "
                f"order unit 1), K1 = Z --id--> Z (limit {ladder['K1_limit']})"
            )

    return payload, lines()


def _cmd_ideals(args) -> tuple[dict, Iterable[str]]:
    from .ideals import enumerate_invariant_saturated, hasse_edges, quotient_system

    _doc, _header, graph = _read_graph(args)
    subsets = enumerate_invariant_saturated(graph)
    entries = []
    for w in subsets:
        entry: dict = {"vertices": graph.vertex_names(w)}
        if 0 < len(w) < graph.vertex_count:
            q = quotient_system(graph, w)
            entry["quotient"] = {"vertices": list(q.vertices), "surviving_alphabet": list(q.alphabet)}
        entries.append(entry)
    covers = hasse_edges(subsets)

    def lines() -> Iterator[str]:
        for entry in entries:
            label = "{" + ",".join(entry["vertices"]) + "}"
            if "quotient" in entry:
                q = entry["quotient"]
                label += (
                    f"  -> quotient on {{{','.join(q['vertices'])}}}"
                    f" with alphabet {{{','.join(q['surviving_alphabet'])}}}"
                )
            yield label
        yield "lattice covers: " + ", ".join(f"{i}<{j}" for i, j in covers)

    return {"invariant_saturated": entries, "hasse": covers}, lines()


def _cmd_oracle_orbit(args) -> tuple[dict, Iterable[str]]:
    from .oracles import orbit_density

    doc, _header, graph = _read_graph(args)
    overrides = _gen_overrides(args.gen, doc.context.ids)
    theta = doc.float_angles(overrides)
    start_vertex = args.start_vertex or graph.vertices[0]
    if start_vertex not in graph.vertex_index:
        raise RotshiftError(f"unknown start vertex {start_vertex!r}")
    sample = orbit_density(graph, theta, start_vertex, args.start_point, args.steps, args.eps)
    payload = {
        "epsilon": sample.epsilon,
        "steps_used": sample.steps_used,
        "dense": sample.dense,
        "gap": sample.gap,
        "points_per_fiber": {v: len(p) for v, p in sample.points.items()},
    }
    lines = [
        f"epsilon: {sample.epsilon}",
        f"steps used: {sample.steps_used}",
    ]
    for v in graph.vertices:
        lines.append(
            f"fiber {v}: {len(sample.points[v])} points, gap {sample.gap[v]:.6f}"
        )
    lines.append(f"dense: {sample.dense}")
    return payload, lines


def _parse_float_or_expr(chunk: str, overrides: dict[str, float]) -> float:
    """A float literal, a fraction or an angle expression evaluated at
    the --gen values, by ExactAngle.to_float; NaN or an infinity is a
    ParseError."""
    try:
        value = float(chunk)
    except ValueError:
        try:
            value = float(Fraction(chunk))
        except OverflowError:
            value = math.inf
        except (ValueError, ZeroDivisionError):
            value = parse_angle(chunk, _generator_context(chunk)).to_float(overrides)
    if not math.isfinite(value):
        raise ParseError(f"non-finite angle {chunk!r}")
    return value


def _cmd_oracle_weyl(args) -> tuple[dict, Iterable[str]]:
    from .oracles import weyl_sums

    overrides = _gen_overrides(args.gen, _generator_context(args.angles).ids)
    try:
        theta = [
            _parse_float_or_expr(chunk.strip(), overrides)
            for chunk in args.angles.split(",")
        ]
    except RotshiftError as exc:
        raise RotshiftError(f"bad --angles list: {exc}") from exc
    table = weyl_sums(theta, args.n, args.lmax)
    payload = {
        "angles": theta,
        "n": args.n,
        "table": [{"level": l, "value": v} for l, v in table],
        "max_value": max(v for _, v in table),
    }
    lines = [f"level {l}: {v:.12f}" for l, v in table]
    lines.append(f"max over levels: {payload['max_value']:.12f}")
    return payload, lines


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="rotshift", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rotshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = parser.commands = {}  # command name -> its parser, which main calls directly

    p = commands["validate"] = sub.add_parser("validate", help="validate a system description")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = commands["words"] = sub.add_parser("words", help="admissible words of a given length")
    p.add_argument("file")
    p.add_argument("-k", "--length", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_words)

    p = commands["analyze"] = sub.add_parser("analyze", help="full verdict report")
    p.add_argument("file", nargs="?")
    p.add_argument("--angles", default=None, help="comma-separated exact angles (full shift)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = commands["ktheory"] = sub.add_parser("ktheory", help="K-groups and inductive ladders")
    p.add_argument("file")
    p.add_argument("--af-core", action="store_true", help="the gauge core's stationary ladder")
    p.add_argument("--bunce-deddens", action="store_true", help="the scaled-integer ladder of a full shift")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ktheory)

    p = commands["ideals"] = sub.add_parser("ideals", help="invariant saturated subsets and quotients")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ideals)

    p = commands["oracle"] = sub.add_parser("oracle", help="numeric oracles")
    orc = p.add_subparsers(dest="oracle_command", required=True)

    q = orc.add_parser("orbit", help="breadth-first orbit density sampling")
    q.add_argument("file")
    q.add_argument("--steps", type=int, default=100_000)
    q.add_argument("--eps", type=float, default=0.05)
    q.add_argument("--start-vertex", default=None)
    q.add_argument("--start-point", type=float, default=0.0)
    q.add_argument("--gen", action="append", metavar="NAME=VALUE")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_oracle_orbit)

    q = orc.add_parser("weyl", help="normalized exponential sums")
    q.add_argument("--angles", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--lmax", type=int, required=True)
    q.add_argument("--gen", action="append", metavar="NAME=VALUE")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_oracle_weyl)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command, write what it returns and return the exit code.

    argv defaults to sys.argv[1:].  When its first argument names a
    command, that command's own parser reads the rest, and the
    top-level parser reports what it leaves over, as a full parse
    would.  The top-level parser reads argv only when the first
    argument names no command: -h, --version, a typo or nothing.
    Every error after argument parsing reaches the handler here, which
    writes its one `error:` line to stderr."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        payload, lines = args.func(args)
        _emit(payload, args.json, lines)
    except _Invalid as exc:
        (report,) = exc.args
        _emit(report, args.json, ["validation: FAILED", _indented_json(report["validation"])])
        return EXIT_INVALID
    except (RotshiftError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
