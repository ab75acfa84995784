"""Shared builders for the test suite.

Everything here is deliberately written against the public constructors
only.  The brute-force helpers (word search, simple cycle enumeration,
closure-per-vertex irreducibility) reimplement their questions from
scratch so they can serve as oracles for the package's cleverer
routines.
"""

from __future__ import annotations

import glob
import importlib.util
import itertools
import os
import random
import re
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import isfinite, nan

from rotshift.angles import EMPTY_CONTEXT, ExactAngle, GeneratorContext
from rotshift.errors import AngleSyntaxError, ContextMismatch, GraphValidationError, ParseError
from rotshift.fileformat import SystemDocument
from rotshift.graph import LabeledGraph, full_shift_graph, validate_graph
from rotshift.intlinalg import IntMatrix

GCTX = GeneratorContext(("g",))
SYSTEMS = os.path.join(os.path.dirname(__file__), "..", "systems")


def bundled_systems() -> list[str]:
    """Paths of the bundled systems/*.sds files, sorted by name."""
    return sorted(glob.glob(os.path.join(SYSTEMS, "*.sds")))


def corpus_texts(workload: str, seed: int = 1) -> list[str]:
    """The system texts of one bench/corpus.py workload."""
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", os.path.join(os.path.dirname(__file__), "..", "bench", "corpus.py")
    )
    corpus = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(corpus)
    return [case.text for case in corpus.build(workload, seed)]


def patch_everywhere(monkeypatch, module, name: str, replacement) -> None:
    """Replace module.name in every loaded rotshift module that binds it,
    so callers that imported the name directly see the replacement too."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rotshift" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


@contextmanager
def wall_clock_limit(seconds):
    """Fail with TimeoutError instead of hanging past the limit."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rat(p, q=1, ctx=GCTX):
    return ExactAngle.make(ctx, Fraction(p, q))


def gen(c=1, p=0, q=1, ctx=GCTX):
    """Angle p/q + c*g."""
    return ExactAngle.make(ctx, Fraction(p, q), {"g": Fraction(c)})


def build(vertices, edges, alphabet=None) -> LabeledGraph:
    if alphabet is None:
        alphabet = tuple(dict.fromkeys(e[2] for e in edges))
    return validate_graph(tuple(vertices), tuple(edges), tuple(alphabet))


def goldenmean():
    """Golden mean shift on two vertices; loop a carries the generator."""
    graph = build(
        ("v1", "v2"),
        (("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v1", "c")),
        ("a", "b", "c"),
    )
    angles = {"a": gen(1), "b": rat(0), "c": rat(0)}
    return graph, angles


def reducible3():
    """v1 feeds v2 feeds v3, loops at both ends, no way back."""
    graph = build(
        ("v1", "v2", "v3"),
        (
            ("v1", "v1", "a"),
            ("v1", "v2", "b"),
            ("v2", "v3", "c"),
            ("v3", "v3", "d"),
        ),
        ("a", "b", "c", "d"),
    )
    angles = {"a": rat(0), "b": rat(0), "c": rat(0), "d": gen(1)}
    return graph, angles


def fullshift(angle_list, ctx=GCTX):
    """Full shift on len(angle_list) symbols s1..sn with the given angles."""
    n = len(angle_list)
    graph = full_shift_graph(n)
    angles = {f"s{i+1}": a for i, a in enumerate(angle_list)}
    return graph, angles


def two_cycle(angle_ab, angle_ba):
    """Two vertices joined in a single directed 2-cycle."""
    graph = build(
        ("v1", "v2"),
        (("v1", "v2", "a"), ("v2", "v1", "b")),
        ("a", "b"),
    )
    return graph, {"a": angle_ab, "b": angle_ba}


# ---------------------------------------------------------------------------
# integer matrices


def adjacency(graph: LabeledGraph) -> list[list[int]]:
    """A[i][j] = number of edges vertex i -> vertex j, from graph.edges."""
    n, vi = graph.vertex_count, graph.vertex_index
    rows = [[0] * n for _ in range(n)]
    for e in graph.edges:
        rows[vi[e[0]]][vi[e[1]]] += 1
    return rows


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def identity_minus_adjacency(graph: LabeledGraph) -> IntMatrix:
    """I - A written out densely, for the oracles."""
    a = adjacency(graph)
    n = graph.vertex_count
    return IntMatrix.from_rows([[(i == j) - a[i][j] for j in range(n)] for i in range(n)])


def sparse_rows(matrix) -> list[dict[int, int]]:
    """A dense matrix (an IntMatrix or a list of rows) as the sparse rows
    that intlinalg takes: per row, a map from column to nonzero entry."""
    entries = matrix.entries if isinstance(matrix, IntMatrix) else matrix
    return [{j: x for j, x in enumerate(row) if x} for row in entries]


# ---------------------------------------------------------------------------
# exhaustive catalogs and random generators


def enumerate_left_resolving(n_vertices: int, n_symbols: int):
    """Yield every valid graph on exactly these vertices and symbols.

    Left-resolving means each (target, symbol) pair admits at most one
    source, so the whole class is swept by choosing, for every such
    pair, either "no edge" or a source vertex.  validate_graph then
    filters to essential graphs using the full alphabet.
    """
    vertices = tuple(f"v{i+1}" for i in range(n_vertices))
    symbols = tuple("abcde"[:n_symbols])
    pairs = list(itertools.product(range(n_vertices), range(n_symbols)))
    for assignment in itertools.product(range(n_vertices + 1), repeat=len(pairs)):
        edges = []
        for (target, sym), choice in zip(pairs, assignment):
            if choice:
                edges.append((vertices[choice - 1], vertices[target], symbols[sym]))
        try:
            yield validate_graph(vertices, tuple(edges), symbols)
        except GraphValidationError:
            continue


def random_graph(rng: random.Random, max_vertices=6, max_symbols=3) -> LabeledGraph:
    """A random valid graph, by rejection sampling over source choices."""
    for _ in range(2000):
        n = rng.randint(1, max_vertices)
        k = rng.randint(1, max_symbols)
        vertices = tuple(f"v{i+1}" for i in range(n))
        symbols = tuple("abcde"[:k])
        edges = []
        for target in range(n):
            for sym in range(k):
                choice = rng.randint(0, n)
                if choice:
                    edges.append((vertices[choice - 1], vertices[target], symbols[sym]))
        try:
            return validate_graph(vertices, tuple(edges), symbols)
        except GraphValidationError:
            continue
    raise RuntimeError("rejection sampling failed to find a valid graph")


def layered_graph(rng: random.Random, max_vertices=8, max_symbols=3, shifts=None) -> LabeledGraph:
    """A random valid graph with planted reducible structure.

    The vertices fall into consecutive blocks; an edge stays inside its
    block or runs to a later one, and some singleton blocks take no
    inner edge, so their vertex lies on no cycle.  Draws have several
    strongly connected components and transient vertices far more often
    than random_graph.  With shifts (one int per symbol) every vertex
    also gets a grade in 0..2, and an edge labeled by the i-th symbol
    raises the grade by shifts[i], so along every cycle the shifts of
    its labels sum to 0.  Rejection sampling, as in random_graph."""
    graded = shifts is not None
    shifts = shifts or (0,) * max_symbols
    for attempt in range(5000):
        if attempt % 100 == 0:  # small graphs pass far more often: keep the size a while
            n = rng.randint(1, max_vertices)
            k = rng.randint(1, max_symbols)
        vertices = tuple(f"v{i+1}" for i in range(n))
        symbols = tuple("abcde"[:k])
        block = [0]
        for _i in range(1, n):
            block.append(block[-1] + (rng.random() < 0.4))
        transient = {
            b for b in range(1, block[-1]) if block.count(b) == 1 and rng.random() < 0.5
        }
        density = rng.uniform(0.4, 0.9)
        grade = [rng.randint(0, 2) if graded else 0 for _ in range(n)]
        edges = []
        for target in range(n):
            for i, sym in enumerate(symbols):
                sources = [
                    s for s in range(n)
                    if (block[s] < block[target] or (block[s] == block[target] and block[s] not in transient))
                    and grade[target] - grade[s] == shifts[i]
                ]
                if sources and rng.random() < density:
                    edges.append((vertices[rng.choice(sources)], vertices[target], sym))
        try:
            return validate_graph(vertices, tuple(edges), symbols)
        except GraphValidationError:
            continue
    raise RuntimeError("rejection sampling failed to find a valid graph")


def hamiltonian_graph(
    rng: random.Random, n_vertices: int, n_symbols: int, extra_p: float = 0.5
) -> LabeledGraph:
    """A sparse irreducible graph: a Hamiltonian cycle on symbol a0, plus
    each (target, symbol) pair of the other symbols given one random
    source with probability extra_p.  Left-resolving and essential by
    construction; a symbol that drew no edge gets one."""
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    symbols = tuple(f"a{k}" for k in range(n_symbols))
    edges = [(vertices[i], vertices[(i + 1) % n_vertices], symbols[0]) for i in range(n_vertices)]
    for sym in symbols[1:]:
        targets = [v for v in vertices if rng.random() < extra_p] or [rng.choice(vertices)]
        edges += [(rng.choice(vertices), v, sym) for v in targets]
    return validate_graph(vertices, tuple(edges), symbols)


def random_angles(rng: random.Random, graph: LabeledGraph, ctx=GCTX):
    """Random exact angle per symbol: small rational plus optional g term."""
    out = {}
    for s in graph.alphabet:
        p = rng.randint(0, 5)
        q = rng.randint(1, 6)
        c = rng.choice([-2, -1, 0, 0, 1, 2])
        out[s] = ExactAngle.make(ctx, Fraction(p, q), {"g": Fraction(c)})
    return out


def mixed_angles(rng: random.Random, graph: LabeledGraph, shifts=None):
    """Random exact angle per symbol over 0-2 generators g, h.

    Rational parts and coefficients have mixed denominators.  Without
    shifts many coefficients are 0; with them (one int per symbol, as
    for layered_graph) the i-th symbol's generator terms are shifts[i]
    times one common random vector, so they cancel along every cycle of
    a graph graded by the same shifts.  An angle without generator terms
    is put over EMPTY_CONTEXT half the time, so it mixes with the rest."""
    ctx = GeneratorContext(("g", "h")[: rng.randint(0, 2)])

    def coefficient(choices):
        return Fraction(rng.choice(choices), rng.choice((1, 2, 3, 5)))

    slope = {name: coefficient((-2, -1, 1, 2)) for name in ctx.ids}
    out = {}
    for i, s in enumerate(graph.alphabet):
        rational = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4, 5, 6, 8, 12)))
        if shifts:
            coeffs = {name: shifts[i] * c for name, c in slope.items()}
        else:
            coeffs = {name: coefficient((-2, -1, 0, 0, 0, 1, 2)) for name in ctx.ids}
        if not any(coeffs.values()) and rng.random() < 0.5:
            out[s] = ExactAngle.make(EMPTY_CONTEXT, rational)
        else:
            out[s] = ExactAngle.make(ctx, rational, coeffs)
    return out


# ---------------------------------------------------------------------------
# brute-force reference computations (kept independent of the package)


def brute_count_words(graph: LabeledGraph, start_name: str, length: int, stop_at=2) -> int:
    """How many distinct label words of the given length leave a vertex.

    Depth-first over label words, tracking the set of endpoints of all
    paths realizing the current prefix by scanning the raw edge list.
    Stops as soon as stop_at words are complete.
    """
    by_source: dict[tuple[str, str], list[str]] = {}
    for src, dst, sym in graph.edges:
        by_source.setdefault((src, sym), []).append(dst)

    found = 0

    def walk(states: frozenset[str], depth: int) -> None:
        nonlocal found
        if found >= stop_at:
            return
        if depth == length:
            found += 1
            return
        for sym in graph.alphabet:
            nxt = frozenset(
                d for s in states for d in by_source.get((s, sym), ())
            )
            if nxt:
                walk(nxt, depth + 1)

    walk(frozenset({start_name}), 0)
    return found


def brute_admissible(graph: LabeledGraph, word) -> bool:
    """Word admissibility by scanning raw edges, no supports, no matrices."""
    states = set(graph.vertices)
    for sym in word:
        states = {e[1] for e in graph.edges if e[0] in states and e[2] == sym}
        if not states:
            return False
    return True


def simple_cycles(graph: LabeledGraph):
    """Every vertex-simple directed cycle, as a list of (src, dst, symbol) edges.

    Each cycle is produced exactly once, rooted at its smallest vertex
    index.  Parallel edges with different labels give distinct cycles,
    which matters because the decoration depends on labels.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    out_by_vertex: dict[int, list[tuple[str, str, str]]] = {i: [] for i in range(len(graph.vertices))}
    for e in graph.edges:
        out_by_vertex[index[e[0]]].append(e)

    cycles = []

    def extend(root: int, current: int, path: list[tuple[str, str, str]], visited: set[int]):
        for e in out_by_vertex[current]:
            t = index[e[1]]
            if t == root:
                cycles.append(path + [e])
            elif t > root and t not in visited:
                extend(root, t, path + [e], visited | {t})

    for root in range(len(graph.vertices)):
        extend(root, root, [], {root})
    return cycles


def cycle_angle(cycle, angles):
    total = None
    for e in cycle:
        total = angles[e[2]] if total is None else total + angles[e[2]]
    return total


def brute_force_ideals(graph: LabeledGraph) -> list[frozenset[int]]:
    """Every invariant saturated vertex subset, by testing all 2^n subsets
    against the definitions, smallest first and then lexicographically on
    the sorted index tuples.  Successor sets come from the raw edge list."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    succ: list[set[int]] = [set() for _ in range(n)]
    for e in graph.edges:
        succ[index[e[0]]].add(index[e[1]])
    found = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            w = frozenset(combo)
            invariant = all(succ[i] <= w for i in w)
            saturated = all(i in w for i in range(n) if succ[i] <= w)
            if invariant and saturated:
                found.append(w)
    return found


def closure_irreducibility(graph: LabeledGraph) -> list[str] | None:
    """None when every vertex reaches every vertex; otherwise the forward
    closure of the first vertex (in declared order) that does not, as
    names in declared order.  One search per vertex over the raw edge
    list, with no strongly connected components."""
    for start in graph.vertices:
        closure = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in graph.edges:
                if e[0] == v and e[1] not in closure:
                    closure.add(e[1])
                    frontier.append(e[1])
        if len(closure) != len(graph.vertices):
            return [v for v in graph.vertices if v in closure]
    return None


# ---------------------------------------------------------------------------
# reference parsers: the line-at-a-time loop and the Fraction(str) angle
# reader, kept as oracles for the package's parsers


_REF_SECTIONS = ("generators", "alphabet", "vertices", "edges")
_REF_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_EDGE_RE = re.compile(r"^(\S+)\s*->\s*(\S+)\s*:\s*(\S+)$")
_REF_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?\Z")


def _reference_rat(chunk: str, whole: str) -> Fraction:
    try:
        return Fraction(chunk)
    except ZeroDivisionError:
        raise AngleSyntaxError(f"zero denominator in {chunk!r} (in {whole!r})") from None


def reference_parse_angle(text: str, context: GeneratorContext = EMPTY_CONTEXT) -> ExactAngle:
    """parse_angle read through Fraction(str) and ExactAngle.make."""
    stripped = text.strip()
    if not stripped:
        raise AngleSyntaxError("empty angle expression")
    chunks = re.findall(r"[+-]?[^+-]+", stripped.replace(" ", "").replace("\t", ""))
    if not chunks or "".join(chunks) != stripped.replace(" ", "").replace("\t", ""):
        raise AngleSyntaxError(f"cannot tokenize angle expression {text!r}")
    rational = Fraction(0)
    seen_rational = False
    coeffs: dict[str, Fraction] = {}
    for chunk in chunks:
        if "*" in chunk:
            coef_text, _, ident = chunk.partition("*")
            if not _REF_RAT_RE.match(coef_text):
                raise AngleSyntaxError(f"bad coefficient {coef_text!r} in {text!r}")
            if not _REF_NAME_RE.match(ident):
                raise AngleSyntaxError(f"bad generator name {ident!r} in {text!r}")
            if ident not in context.ids:
                raise ContextMismatch(f"generator {ident!r} not declared (have {context.ids})")
            coeffs[ident] = coeffs.get(ident, Fraction(0)) + _reference_rat(coef_text, text)
        else:
            if seen_rational:
                raise AngleSyntaxError(f"two rational terms in angle expression {text!r}")
            if not _REF_RAT_RE.match(chunk):
                raise AngleSyntaxError(f"bad rational term {chunk!r} in {text!r}")
            rational = _reference_rat(chunk, text)
            seen_rational = True
    return ExactAngle.make(context, rational, coeffs)


def reference_parse(text: str) -> SystemDocument:
    """parse_system one line at a time, raising at the first defect met."""
    section = None
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
            if name not in _REF_SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if section is not None and _REF_SECTIONS.index(name) <= _REF_SECTIONS.index(section):
                raise ParseError(f"section [{name}] out of order", lineno)
            section = name
            continue
        if section is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        if section == "generators":
            name, _, value = (p.strip() for p in line.partition("="))
            if not _REF_NAME_RE.match(name):
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
            if not _REF_NAME_RE.match(name):
                raise ParseError(f"bad symbol name {name!r}", lineno)
            if name in raw_angles:
                raise ParseError(f"symbol {name!r} declared twice", lineno)
            alphabet.append(name)
            raw_angles[name] = expr if eq else None
        elif section == "vertices":
            if not _REF_NAME_RE.match(line):
                raise ParseError(f"bad vertex name {line!r}", lineno)
            if line in vertices:
                raise ParseError(f"vertex {line!r} declared twice", lineno)
            vertices[line] = None
        elif section == "edges":
            m = _REF_EDGE_RE.match(line)
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
                angles[symbol] = reference_parse_angle(expr, context)
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


def reference_validate(vertices, edges, alphabet) -> tuple[tuple[str, str, str], ...]:
    """validate_graph one edge at a time: the first defect in the order
    its docstring gives raises, else the edges come back as tuples."""
    if not vertices:
        raise GraphValidationError("empty-graph", "graph has no vertices", detail="graph has no vertices")
    seen: list[tuple[str, str, str]] = []
    for e in map(tuple, edges):
        if e in seen:
            raise GraphValidationError("duplicate-edge", f"edge {e} is declared twice", edge=list(e))
        seen.append(e)
        for v in e[:2]:
            if v not in vertices:
                raise GraphValidationError(
                    "unknown-vertex", f"edge {e} refers to undeclared vertex {v!r}", vertex=v, edge=list(e)
                )
        if e[2] not in alphabet:
            raise GraphValidationError(
                "unknown-symbol", f"edge {e} uses undeclared symbol {e[2]!r}", symbol=e[2], edge=list(e)
            )
    for e in seen:
        group = [f for f in seen if f[1:] == e[1:]]
        if len(group) > 1:
            _src, v, s = e
            sources = ", ".join(f[0] for f in group)
            raise GraphValidationError(
                "not-left-resolving",
                f"vertex {v!r} has {len(group)} incoming edges labeled {s!r} (from {sources})",
                vertex=v,
                symbol=s,
                edges=[list(f) for f in group],
            )
    for v in vertices:
        for direction, end in (("outgoing", 0), ("incoming", 1)):
            if not any(e[end] == v for e in seen):
                raise GraphValidationError(
                    "not-essential", f"vertex {v!r} has no {direction} edge", vertex=v, direction=direction
                )
    for s in alphabet:
        if not any(e[2] == s for e in seen):
            raise GraphValidationError("unused-symbol", f"alphabet symbol {s!r} labels no edge", symbol=s)
    return tuple(seen)


def outcome(parse, *args):
    """What a parser returns, or the type, message and line of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc), getattr(exc, "line", None))
