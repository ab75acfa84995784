"""Exact verdicts about the rotation-decorated graph system.

Each decision procedure returns a VerdictReport: a three-valued verdict
(Yes / No / Unknown), a machine-checkable certificate whenever the
verdict is definite, and a criterion tag naming the mathematical fact
the verdict rests on.  Unknown verdicts name the hypothesis that could
not be established; the package never guesses past what the underlying
sufficient conditions cover.

Decisions implemented:

* condition (I): every vertex emits at least two distinct one-sided
  infinite label sequences.  Each vertex is decided by one support
  walk from depth 0 that stops where two symbols are readable; the
  frozen supports and the record of those seen are built only after a
  single-symbol step.  Failing vertices get their unique eventually
  periodic label sequence as the certificate.
* irreducibility: the underlying digraph is strongly connected,
  equivalently no proper nonempty vertex subset is forward closed.
  Decided by one forward search and, when that covers every vertex,
  the component count of the condensation.
* irrational cycle: some closed path has an irrational total rotation
  angle.  Decided exactly by spanning-tree potentials per strongly
  connected component; all cycle angles are rational iff every edge
  defect (edge angle minus potential difference) is rational.  A
  potential is an int rational coordinate and a tuple of generator
  coordinates over one common denominator, so each inner edge is
  tested by one tuple comparison, and the cycle denominator is one gcd
  over the rational defects.  A strongly connected graph reuses the
  irreducibility decision's tree from vertex 0, and an acyclic
  singleton component takes no search.  Both certificates write their
  angles straight from the int tuples.
* minimality of the decorated system: dense orbits in the disjoint
  union of circle fibers.  Irreducible + irrational cycle gives Yes;
  a reducible graph or all-rational cycles give No with witnesses.
* simplicity / pure infiniteness of the associated algebra, through
  the sufficient criteria that condition (I) supports.
* full shifts: simplicity of the gauge-fixed core and uniform
  distribution of the angle sums, one fact decided once by
  fullshift_of_graph from the differences to the first angle, which
  decide every pairwise difference.  It applies to a graph of one
  vertex with two or more symbols, the Cuntz-Krieger full shift;
  on any other graph both verdicts are Unknown.  The differences are
  read off the very int table the irrational-cycle search keeps on the
  graph, so no verdict does Fraction arithmetic on ExactAngle.

Components come from graph.condensation (Tarjan over out_edges, the
graph's one adjacency list); every other path question is one
breadth-first search, _bfs_tree, read by _tree_path.

Every per-graph fact is read through one keeper, kept(graph, decide,
*angles), which decides it once per graph object and angle assignment
and keeps it on the graph, next to its condensation: condition (I),
the irreducibility decision (_forward_closed, whose tree from vertex 0
the cycle search reuses), the cycle search, minimality and the angle
table.  The composites (minimality, simplicity, pure infiniteness) and
report.analyze_document read them there, so calls on one graph with
equal angles share them, and a composite whose first hypothesis fails
never decides the later ones.  Of irreducibility the composites read
only the decision, so only is_irreducible builds the covering walk.
A new graph object, or a changed angle assignment, decides afresh.
Certificates are read-only: a kept fact's certificate, or part of it,
is the same object in the composites built on it, and vertices whose
condition (I) branching entries are equal share one entry object.
Composites copy a kept certificate before adding to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import add, sub
from typing import Container, Mapping, Sequence

from .angles import ExactAngle
from .graph import LabeledGraph

__all__ = [
    "VerdictReport",
    "kept",
    "condition_I",
    "is_irreducible",
    "irrational_cycle",
    "graph_minimality",
    "crossed_product_simplicity",
    "pure_infiniteness",
    "fullshift_of_graph",
    "check_angle_assignment",
]

YES = "Yes"
NO = "No"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class VerdictReport:
    verdict: str
    certificate: dict | None
    criterion: str
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        assert self.verdict in (YES, NO, UNKNOWN)
        if self.verdict in (YES, NO):
            assert self.certificate is not None, "definite verdicts need a certificate"

    @property
    def is_yes(self) -> bool:
        return self.verdict == YES

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "certificate": self.certificate, "criterion": self.criterion}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def kept(graph: LabeledGraph, decide, *angles: Mapping[str, ExactAngle]):
    """decide(graph, *angles), decided once per graph object and angle
    assignment.  The results live in one dict in the graph's __dict__,
    keyed by the deciding function, each with a snapshot of the angles,
    and decide runs again only when the angles differ from it.  No kept
    fact refers to the graph, so the graph is freed by reference
    counting."""
    facts = graph.__dict__.setdefault("_kept", {})
    fact = facts.get(decide)
    if fact is None or fact[0] != angles:
        snapshot = tuple(map(dict, angles))
        fact = facts[decide] = (snapshot, decide(graph, *snapshot))
    return fact[1]


def check_angle_assignment(graph: LabeledGraph, angles: Mapping[str, ExactAngle]) -> None:
    missing = [s for s in graph.alphabet if s not in angles]
    if missing:
        raise KeyError(f"angle assignment misses symbols {missing}")


# ---------------------------------------------------------------------------
# condition (I)


def condition_I(graph: LabeledGraph) -> VerdictReport:
    """Does every vertex emit at least two distinct infinite label words?

    From each vertex, walk the support sets, starting at depth 0 with
    the vertex alone.  If at some depth two symbols label edges out of
    the support, both extend to infinite words (the graph is essential),
    so the vertex branches; its certificate names the depth and the
    first two such symbols in alphabet order.  While exactly one symbol
    is readable, every out-edge carries it and the next support is the
    set of all out-neighbours.  If that goes on forever the walk is
    eventually periodic in the finite lattice of supports, and the
    vertex emits a single infinite sequence: that sequence is the
    failure certificate.  The frozen supports and the record of those
    seen are built only once a single-symbol step is taken, so a vertex
    that branches at depth 0 costs one set of symbols.  Vertices whose
    branching entries are equal share one (read-only) entry object,
    looked up by depth and symbol set, so the alphabet-order sort runs
    once per distinct set.
    """
    criterion = "condition (I): two distinct infinite label words from every vertex"
    branching: dict[str, dict] = {}
    failures: dict[str, dict] = {}
    # (depth, symbol set) and (depth, first symbol, second symbol) -> entry
    entries: dict[tuple, dict] = {}
    si = graph.symbol_index
    out = graph.out_edges
    for start in range(graph.vertex_count):
        support = (start,)  # a frozenset after the first step
        trail: list[str] = []
        while True:
            symbols = {s for v in support for _w, s in out[v]}
            if len(symbols) > 1:
                depth = len(trail)
                key = (depth, frozenset(symbols))
                entry = entries.get(key)
                if entry is None:
                    first = sorted(symbols, key=si.__getitem__)[:2]
                    entry = entries[key] = entries.setdefault((depth, *first), {"depth": depth, "symbols": first})
                branching[graph.vertices[start]] = entry
                break
            (symbol,) = symbols  # essential graphs always offer a continuation
            if not trail:
                seen = {frozenset(support): 0}
            trail.append(symbol)
            support = frozenset([w for v in support for w, _s in out[v]])
            if support in seen:
                cut = seen[support]
                failures[graph.vertices[start]] = {
                    "prefix": trail[:cut],
                    "period": trail[cut:],
                }
                break
            seen[support] = len(trail)
    if failures:
        return VerdictReport(NO, {"unique_word": failures}, criterion)
    return VerdictReport(YES, {"branching": branching}, criterion)


# ---------------------------------------------------------------------------
# breadth-first trees


def _bfs_tree(
    adjacency: Sequence[Sequence[tuple[int, str]]],
    root: int,
    allowed: Container[int] | None = None,
    goal: int | None = None,
) -> dict[int, tuple[int, str] | None]:
    """Breadth-first tree {vertex: (reached_from, symbol) | None} in
    visiting order, entering only vertices in allowed (if given) and
    stopping once goal is discovered.  Neighbours come in adjacency
    order and keep the parent they were first discovered from."""
    tree: dict[int, tuple[int, str] | None] = {root: None}
    if root == goal:
        return tree
    queue = [root]
    for v in queue:
        for w, symbol in adjacency[v]:
            if w in tree or (allowed is not None and w not in allowed):
                continue
            tree[w] = (v, symbol)
            if w == goal:
                return tree
            queue.append(w)
    return tree


def _tree_path(graph: LabeledGraph, tree: dict[int, tuple[int, str] | None], v: int) -> list[list[str]]:
    """The [src, dst, symbol] edges from the root of a tree over graph.out_edges to v."""
    names = graph.vertices
    path: list[list[str]] = []
    while tree[v] is not None:
        p, symbol = tree[v]
        path.append([names[p], names[v], symbol])
        v = p
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# irreducibility


def _forward_closed(graph: LabeledGraph) -> tuple[list[str] | None, dict | None]:
    """(None, tree) if graph is strongly connected, where tree is the
    breadth-first tree from vertex 0 over the whole graph; else (names,
    None) for a proper nonempty forward-closed set: the forward closure
    of vertex 0 if that misses a vertex, else of the first vertex
    outside component 0 (the condensation's only source, since vertex 0
    reaches every vertex)."""
    n = graph.vertex_count
    closure = _bfs_tree(graph.out_edges, 0)
    if len(closure) == n:
        component = graph.condensation.component
        if not any(component):
            return None, closure
        closure = _bfs_tree(graph.out_edges, next(v for v in range(n) if component[v]))
    return graph.vertex_names(closure), None


def _covering_walk(graph: LabeledGraph) -> list[list[str]]:
    """One closed walk through every vertex of a strongly connected
    graph, joined in index order from shortest paths to each vertex the
    walk has not yet passed through.  Building it costs one BFS per such
    vertex, so it is not O(n + m)."""
    walk: list[list[str]] = []
    # vertices passed on the way to an earlier target; a one-edge
    # segment passes none, and targets only increase
    passed: set[str] = set()
    cur = 0
    for target in range(1, graph.vertex_count):
        if graph.vertices[target] in passed:
            continue
        seg = _tree_path(graph, _bfs_tree(graph.out_edges, cur, goal=target), target)
        walk.extend(seg)
        if len(seg) > 1:
            passed.update(e[1] for e in seg)
        cur = target
    walk.extend(_tree_path(graph, _bfs_tree(graph.out_edges, cur, goal=0), 0))
    if not walk:
        # single vertex: use any loop (essentiality provides one)
        j, symbol = graph.out_edges[0][0]
        walk = [[graph.vertices[0], graph.vertices[j], symbol]]
    return walk


def is_irreducible(graph: LabeledGraph) -> VerdictReport:
    """Strong connectivity of the underlying digraph, as _forward_closed
    decides it.  No-certificate: its forward-closed set, over which the
    fibers form a closed invariant region.  Yes-certificate: the
    covering closed walk, which only this function builds."""
    criterion = "irreducibility: the transition digraph is strongly connected"
    closed = kept(graph, _forward_closed)[0]
    if closed is not None:
        return VerdictReport(
            NO,
            {"forward_closed": closed},
            criterion,
            notes=("every edge leaving the witness set lands back inside it",),
        )
    return VerdictReport(YES, {"covering_closed_walk": _covering_walk(graph)}, criterion)


# ---------------------------------------------------------------------------
# irrational cycles


def _angle_table(graph: LabeledGraph, angles: Mapping[str, ExactAngle]):
    """ExactAngle.integer_coordinates(angles), read through kept."""
    return ExactAngle.integer_coordinates(angles)


def irrational_cycle(graph: LabeledGraph, angles: Mapping[str, ExactAngle]) -> VerdictReport:
    """Is there a closed path whose total rotation angle is irrational?

    Within each strongly connected component fix a root and a spanning
    tree of potentials (exact angle of the tree path from the root).
    The defect of an edge is its angle minus the potential difference
    of its endpoints; the angle of any closed walk equals the sum of
    the defects of its edges, so irrational cycles exist iff some edge
    inside a component has an irrational defect.  In that case one of
    two explicit closed walks through that edge's endpoints must be
    irrational (its edges' int tuples summed) and is returned as the
    certificate: for the first such edge, in declared order, of the
    first component, in topological order, that has one.  Otherwise
    every cycle angle is rational with denominator dividing the
    reported one.

    Angles are the int tuples of the kept _angle_table, over one common
    denominator L.  A potential is kept as its rational coordinate, an
    int, and its tuple of generator coordinates: an inner edge u -> w
    has a rational defect iff the generator tuple of u plus that of its
    angle equals the one of w, one tuple comparison.  The rational
    defects r_1, ..., r_k have denominators L / gcd(r_i, L), whose lcm
    is L / gcd(L, r_1, ..., r_k), one gcd over all of them.  An acyclic
    singleton component is its own tree, and on a strongly connected
    graph the tree is the one from vertex 0 that the irreducibility
    decision keeps.  The Yes angle and the No potentials, in component
    order and then tree order, are written from their tuples by
    ExactAngle.format_integer_coordinates.
    """
    criterion = "irrational total rotation along some closed path"
    check_angle_assignment(graph, angles)
    context, common, coords = kept(graph, _angle_table, angles)
    comp, members, cyclic = graph.condensation
    vi = graph.vertex_index
    # inner edges of each component, in declared order
    inner: list[list[tuple[int, int, str, tuple[str, str, str]]]] = [[] for _ in members]
    for e in graph.edges:
        u, w = vi[e[0]], vi[e[1]]
        if comp[u] == comp[w]:
            inner[comp[u]].append((u, w, e[2], e))
    rational = {s: row[0] for s, row in coords.items()}
    generators = {s: row[1:] for s, row in coords.items()}

    n = graph.vertex_count
    rational_potential = [0] * n
    generator_potential = [(0,) * len(context.ids)] * n
    order: list[int] = []  # component order, then tree order
    defects: list[int] = []

    for c, (vertices, edges) in enumerate(zip(members, inner)):
        root = vertices[0]
        if not cyclic[c]:
            order.append(root)
            continue
        if len(members) == 1:
            # strongly connected: the tree from vertex 0 that the
            # irreducibility decision keeps on the graph
            tree, allowed = kept(graph, _forward_closed)[1], None
        else:
            allowed = set(vertices)
            tree = _bfs_tree(graph.out_edges, root, allowed)
        steps = iter(tree.items())
        next(steps)  # the root, at potential zero
        for v, (p, s) in steps:
            rational_potential[v] = rational_potential[p] + rational[s]
            generator_potential[v] = tuple(map(add, generator_potential[p], generators[s]))
        order.extend(tree)
        for u, w, s, e in edges:
            if tuple(map(add, generator_potential[u], generators[s])) == generator_potential[w]:
                defects.append(rational_potential[u] + rational[s] - rational_potential[w])
                continue
            # the defect carries a generator: at least one of these two
            # closed walks at the root has an irrational angle
            back = _tree_path(graph, _bfs_tree(graph.out_edges, w, allowed, goal=root), root)
            walk_a = _tree_path(graph, tree, u) + [list(e)] + back
            walk_b = _tree_path(graph, tree, w) + back
            for walk in (walk_a, walk_b):
                # an empty walk sums to [] and is passed over
                total = [sum(column) for column in zip(*(coords[edge[2]] for edge in walk))]
                if any(total[1:]):
                    return VerdictReport(
                        YES,
                        {
                            "cycle": walk,
                            "angle": ExactAngle.format_integer_coordinates(context, common, total),
                            "base_vertex": graph.vertices[root],
                        },
                        criterion,
                    )
            raise AssertionError("one of the two closed walks must be irrational")

    # vertices often share a potential: write each distinct one once,
    # hashing each vertex's tuple once (big entries hash in linear time)
    written: dict[tuple[int, ...], str] = {}
    potentials: dict[str, str] = {}
    for v in order:
        p = (rational_potential[v], *generator_potential[v])
        text = written.get(p)
        if text is None:
            text = written[p] = ExactAngle.format_integer_coordinates(context, common, p)
        potentials[graph.vertices[v]] = text
    return VerdictReport(
        NO,
        {
            "cycle_denominator": common // gcd(common, *defects),
            "potentials": potentials,
            "roots": [graph.vertices[vertices[0]] for vertices in members],
        },
        criterion,
        notes=(
            "every closed path rotates by a rational angle whose denominator "
            "divides cycle_denominator",
        ),
    )


# ---------------------------------------------------------------------------
# minimality and the algebra verdicts


def graph_minimality(graph: LabeledGraph, angles: Mapping[str, ExactAngle]) -> VerdictReport:
    """Minimality of the decorated action on the union of circle fibers.

    Three exact cases:
    * not strongly connected: No; the fibers over a forward-closed
      proper subset form a closed invariant set.
    * strongly connected with an irrational cycle: Yes; running the
      cycle acts as an irrational rotation on its base fiber and strong
      connectivity spreads its dense orbit everywhere.
    * strongly connected, all cycle angles rational: No; each orbit
      meets each fiber in finitely many points (at most the cycle
      denominator per reachable coset).  This case is a derived
      strengthening of the sufficient Yes test and is flagged as such.
    """
    criterion = "minimality of the rotation action over the transition graph"
    closed = kept(graph, _forward_closed)[0]
    if closed is not None:
        return VerdictReport(
            NO,
            {"forward_closed": closed},
            criterion,
            notes=(
                "the circle fibers over the forward-closed subset form a "
                "proper closed invariant set",
            ),
        )
    cyc = kept(graph, irrational_cycle, angles)
    if cyc.is_yes:
        return VerdictReport(YES, cyc.certificate, criterion)
    certificate = dict(cyc.certificate)
    certificate["derived"] = True
    q = certificate["cycle_denominator"]
    return VerdictReport(
        NO,
        certificate,
        criterion,
        notes=(
            "derived case: with all cycle angles rational, any orbit meets "
            f"each fiber in at most {q} points per reachable coset, so no "
            "orbit is dense",
        ),
    )


def crossed_product_simplicity(
    graph: LabeledGraph, angles: Mapping[str, ExactAngle]
) -> VerdictReport:
    """Simplicity of the algebra of the decorated system.

    Under condition (I) simplicity is equivalent to minimality of the
    decorated action, given a faithful invariant probability measure on
    the fibers; Lebesgue measure on each circle is preserved by every
    rotation, so that hypothesis holds automatically here.  Without
    condition (I) the equivalence is unavailable and the verdict is
    Unknown.
    """
    criterion = "simplicity equals minimality under condition (I)"
    if not kept(graph, condition_I).is_yes:
        return VerdictReport(
            UNKNOWN,
            None,
            criterion,
            notes=(
                "missing hypothesis: condition (I); the uniqueness argument "
                "behind the equivalence does not apply",
            ),
        )
    gm = kept(graph, graph_minimality, angles)
    notes = (
        "condition (I) holds; Lebesgue measure on the circle fibers is a "
        "faithful invariant probability measure",
    )
    return VerdictReport(gm.verdict, gm.certificate, criterion, notes=notes + gm.notes)


def pure_infiniteness(graph: LabeledGraph, angles: Mapping[str, ExactAngle]) -> VerdictReport:
    """Sufficient test for simple pure infiniteness.

    condition (I) + irreducibility + an irrational cycle force the
    algebra to be simple and purely infinite.  The test is one-sided:
    when any hypothesis fails the verdict is Unknown, not No.
    """
    criterion = "pure infiniteness from condition (I), irreducibility and an irrational cycle"
    condition = kept(graph, condition_I)
    if not condition.is_yes:
        return VerdictReport(UNKNOWN, None, criterion, notes=("missing hypothesis: condition (I)",))
    if kept(graph, _forward_closed)[0] is not None:
        return VerdictReport(UNKNOWN, None, criterion, notes=("missing hypothesis: irreducibility",))
    cycle = kept(graph, irrational_cycle, angles)
    if not cycle.is_yes:
        return VerdictReport(
            UNKNOWN,
            None,
            criterion,
            notes=(
                "missing hypothesis: an irrational cycle; the sufficient "
                "test is silent when every cycle angle is rational",
            ),
        )
    return VerdictReport(
        YES,
        {"condition_I": condition.certificate, "irreducible": True, "cycle": cycle.certificate},
        criterion,
    )


# ---------------------------------------------------------------------------
# full shifts


_NOT_A_FULL_SHIFT = (
    VerdictReport(UNKNOWN, None, "full-shift analysis applies to single-vertex graphs with at least two symbols"),
) * 2


def fullshift_of_graph(graph: LabeledGraph, angles: Mapping[str, ExactAngle]) -> tuple[VerdictReport, VerdictReport]:
    """Core simplicity and uniform distribution of the level sums of a
    full shift, a graph of one vertex with two or more symbols; on any
    other graph both are Unknown, with a criterion that says so.

    On a full shift the two are one fact: both hold iff some pairwise
    angle difference is irrational, which also gives the core real rank
    zero; the core always carries a unique trace.  As a - b =
    (first - b) - (first - a), one pass over the differences from the
    first symbol's row of the kept _angle_table (the table the cycle
    search reads, denominator L) finds the first irrational pair in
    alphabet order, or else the lcm q of all pairwise denominators,
    each L / gcd(r, L) for rational coordinate r.  (Angles of symbols
    outside the alphabet may make L a multiple of the alphabet's own;
    every written number is reduced.)  Both verdicts carry the same
    certificate object.
    """
    if graph.vertex_count != 1 or len(graph.alphabet) < 2:
        return _NOT_A_FULL_SHIFT
    check_angle_assignment(graph, angles)
    context, common, coords = kept(graph, _angle_table, angles)
    first, *rest = graph.alphabet
    base = coords[first]
    q = 1
    for label in rest:
        difference = tuple(map(sub, base, coords[label]))
        if any(difference[1:]):
            verdict = YES
            certificate = {
                "pair": [first, label],
                "difference": ExactAngle.format_integer_coordinates(context, common, difference),
            }
            notes = (
                "equivalently: the angle sums are uniformly distributed and the "
                "core has real rank zero; the core carries a unique trace",
                "the normalized exponential sums of every nonzero level tend to "
                "zero; equivalent to core simplicity and real rank zero",
            )
            break
        q = lcm(q, common // gcd(difference[0], common))
    else:
        verdict, certificate = NO, {"common_denominator": q}
        notes = (
            f"all pairwise differences are rational with common denominator {q}; "
            "the core is not simple, not real rank zero, and the sums are not "
            "uniformly distributed; it still carries a unique trace",
            f"at level {q} every angle multiple coincides mod 1, so the "
            "normalized exponential sum has modulus 1 at every word length",
        )
    core = "core simplicity: some pairwise angle difference is irrational"
    uniform = "uniform distribution of the level sums of the angles"
    return (
        VerdictReport(verdict, certificate, core, notes=notes[:1]),
        VerdictReport(verdict, certificate, uniform, notes=notes[1:]),
    )
