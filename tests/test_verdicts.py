"""Decision procedures and their certificates.

Every definite verdict ships a certificate; these tests check the
certificates against the graph rather than trusting the verdict, and
cross-check the irrational cycle decision against a brute-force sweep
of all simple cycles.
"""

import gc
import hashlib
import json
import os
import random
import tracemalloc
import weakref
from fractions import Fraction
from math import lcm

import pytest

from conftest import (
    GCTX,
    SYSTEMS,
    build,
    bundled_systems,
    closure_irreducibility,
    corpus_texts,
    cycle_angle,
    enumerate_left_resolving,
    fullshift,
    gen,
    goldenmean,
    hamiltonian_graph,
    layered_graph,
    mixed_angles,
    patch_everywhere,
    random_angles,
    random_graph,
    rat,
    reducible3,
    simple_cycles,
    two_cycle,
    wall_clock_limit,
)
from rotshift import cli, verdicts
from rotshift.angles import MAX_ANGLE_BITS, MAX_GENERATORS, ExactAngle, GeneratorContext, parse_angle
from rotshift.errors import ContextMismatch, GraphValidationError
from rotshift.fileformat import parse_system
from rotshift.graph import MAX_EDGES, MAX_VERTICES, LabeledGraph, full_shift_graph, validate_graph
from rotshift.report import analyze_document
from rotshift.verdicts import (
    NO,
    UNKNOWN,
    YES,
    VerdictReport,
    condition_I,
    crossed_product_simplicity,
    fullshift_of_graph,
    graph_minimality,
    irrational_cycle,
    is_irreducible,
    pure_infiniteness,
)


def assert_walk(graph, walk, closed=True, covering=False):
    """A certificate walk must consist of real, consecutive edges."""
    edge_set = set(graph.edges)
    walk = [tuple(e) for e in walk]
    assert walk, "empty walk certificate"
    for e in walk:
        assert e in edge_set, f"certificate edge {e} not in graph"
    for e1, e2 in zip(walk, walk[1:]):
        assert e1[1] == e2[0], "walk not consecutive"
    if closed:
        assert walk[0][0] == walk[-1][1], "walk not closed"
    if covering:
        touched = {e[0] for e in walk} | {e[1] for e in walk}
        assert touched == set(graph.vertices)


# -- report plumbing -------------------------------------------------------


def test_definite_verdicts_need_certificates():
    with pytest.raises(AssertionError):
        VerdictReport(YES, None, "whatever")
    r = VerdictReport(UNKNOWN, None, "whatever")
    assert not r.is_yes
    j = r.to_json()
    assert j["verdict"] == "Unknown" and j["certificate"] is None


def test_angle_table_checks_the_assignment():
    """Both readers of the kept angle table refuse an assignment that
    misses a symbol, and the same graph then decides with the full one."""
    graph, angles = goldenmean()
    with pytest.raises(KeyError, match=r"misses symbols \['b', 'c'\]"):
        irrational_cycle(graph, {"a": rat(0)})
    assert irrational_cycle(graph, angles).is_yes
    full = full_shift_graph(2)
    with pytest.raises(KeyError, match=r"misses symbols \['s2'\]"):
        fullshift_of_graph(full, {"s1": rat(0)})
    core, uniform = fullshift_of_graph(full, {"s1": rat(0), "s2": gen(1)})
    assert core.is_yes and uniform.is_yes


# -- condition (I) ----------------------------------------------------------


def test_condition_I_goldenmean():
    graph, _ = goldenmean()
    r = condition_I(graph)
    assert r.is_yes
    branching = r.certificate["branching"]
    assert set(branching) == {"v1", "v2"}
    assert branching["v1"]["depth"] == 0
    assert branching["v2"]["depth"] == 1


def test_condition_I_single_loop_fails():
    graph = build(("v",), (("v", "v", "a"),))
    r = condition_I(graph)
    assert r.verdict == "No"
    word = r.certificate["unique_word"]["v"]
    assert word == {"prefix": [], "period": ["a"]}


def test_condition_I_mixed_vertices():
    # v1 branches, v2 emits only a^inf
    graph = build(
        ("v1", "v2"),
        (("v1", "v1", "a"), ("v1", "v2", "b"), ("v2", "v2", "a")),
    )
    r = condition_I(graph)
    assert r.verdict == "No"
    assert list(r.certificate["unique_word"]) == ["v2"]
    assert r.certificate["unique_word"]["v2"]["period"] == ["a"]


def test_condition_I_full_shift():
    graph, _ = fullshift([rat(0), rat(0)])
    r = condition_I(graph)
    assert r.is_yes
    assert r.certificate["branching"]["v"]["depth"] == 0


def test_condition_I_periodic_with_prefix():
    # v1 feeds the forced 2-cycle v2 <-> v3; only v4 branches
    graph = build(
        ("v1", "v2", "v3", "v4"),
        (
            ("v1", "v2", "a"),
            ("v2", "v3", "b"),
            ("v3", "v2", "c"),
            ("v4", "v4", "e"),
            ("v4", "v1", "d"),
        ),
    )
    r = condition_I(graph)
    assert r.verdict == "No"
    failures = r.certificate["unique_word"]
    assert set(failures) == {"v1", "v2", "v3"}
    assert failures["v1"] == {"prefix": ["a"], "period": ["b", "c"]}
    assert failures["v2"] == {"prefix": [], "period": ["b", "c"]}


def support_walk_condition_I(graph):
    """(verdict, certificate) of condition (I) by the support walk from
    every vertex, depth 0 included, read off the out-edge lists."""
    branching, failures = {}, {}
    for start, name in enumerate(graph.vertices):
        support, trail, seen = frozenset({start}), [], {}
        while True:
            seen[support] = len(trail)
            images = {}
            for v in support:
                for w, symbol in graph.out_edges[v]:
                    images.setdefault(symbol, set()).add(w)
            readable = sorted(images, key=graph.alphabet.index)
            if len(readable) > 1:
                branching[name] = {"depth": len(trail), "symbols": readable[:2]}
                break
            trail.append(readable[0])
            support = frozenset(images[readable[0]])
            if support in seen:
                cut = seen[support]
                failures[name] = {"prefix": trail[:cut], "period": trail[cut:]}
                break
    return (NO, {"unique_word": failures}) if failures else (YES, {"branching": branching})


def test_condition_I_matches_the_support_walk_from_every_vertex():
    """condition_I, one support walk per vertex that builds its frozen
    supports only after a single-symbol step, gives the certificate of
    the reference walk, which records every support from depth 0 on:
    keys in vertex order, on graphs where many vertices carry a single
    out-symbol."""
    rng = random.Random(1711)
    graphs = [random_graph(rng, max_vertices=7, max_symbols=rng.choice([2, 3])) for _ in range(150)]
    graphs += [layered_graph(rng, max_vertices=9) for _ in range(150)]
    graphs += list(enumerate_left_resolving(2, 2))
    # alphabet order differs from string order and from edge order
    graphs += [validate_graph(g.vertices, g.edges, g.alphabet[::-1]) for g in graphs]
    single = deeper = failing = 0
    for graph in graphs:
        r = condition_I(graph)
        verdict, certificate = support_walk_condition_I(graph)
        assert r.verdict == verdict
        assert json.dumps(r.certificate) == json.dumps(certificate)
        single += sum(len({s for _, s in out}) == 1 for out in graph.out_edges)
        deeper += any(c["depth"] > 0 for c in certificate.get("branching", {}).values())
        failing += r.verdict == "No"
    assert single > 1000 and deeper > 100 and failing > 200


@pytest.mark.parametrize("source", ["bundled", "lattice", "kgroups"])
def test_condition_I_shares_equal_branching_entries(source):
    """Vertices whose branching entries are equal share one entry
    object, and unequal entries are distinct objects, so the writer
    writes each distinct entry once per certificate."""
    if source == "bundled":
        texts = []
        for name in bundled_systems():
            with open(name, encoding="utf-8") as fh:
                texts.append(fh.read())
    else:
        texts = corpus_texts(source, 1)
    entries = shared = 0
    for text in texts:
        try:
            graph = parse_system(text).graph()
        except GraphValidationError:
            continue
        certificate = condition_I(graph).certificate
        if "branching" not in certificate:
            continue
        by_value: dict = {}
        for entry in certificate["branching"].values():
            assert by_value.setdefault((entry["depth"], *entry["symbols"]), entry) is entry
        objects = {id(entry) for entry in certificate["branching"].values()}
        assert len(objects) == len(by_value)
        entries += len(certificate["branching"])
        shared += len(certificate["branching"]) - len(objects)
    assert entries > 0
    if source != "bundled":  # no bundled system repeats an entry
        assert shared > entries // 2


# -- irreducibility -----------------------------------------------------------


def test_irreducible_goldenmean():
    graph, _ = goldenmean()
    r = is_irreducible(graph)
    assert r.is_yes
    assert_walk(graph, r.certificate["covering_closed_walk"], covering=True)


def test_irreducible_single_vertex():
    graph, _ = fullshift([rat(0), rat(0)])
    r = is_irreducible(graph)
    assert r.is_yes
    assert_walk(graph, r.certificate["covering_closed_walk"], covering=True)


def test_reducible_certificate_is_forward_closed():
    graph, _ = reducible3()
    r = is_irreducible(graph)
    assert r.verdict == "No"
    names = r.certificate["forward_closed"]
    assert names == ["v2", "v3"]
    w = {graph.vertex_index[v] for v in names}
    assert 0 < len(w) < graph.vertex_count
    for e in graph.edges:
        if graph.vertex_index[e[0]] in w:
            assert graph.vertex_index[e[1]] in w


def test_irreducibility_on_random_graphs_matches_scc():
    """Verdict and exact No-witness agree with one closure per vertex, on
    random graphs and on every valid graph with 3 vertices, 2 symbols."""
    rng = random.Random(1404)
    graphs = [random_graph(rng, max_vertices=rng.choice([4, 6, 9])) for _ in range(200)]
    graphs += list(enumerate_left_resolving(3, 2))
    reducible = 0
    for graph in graphs:
        r = is_irreducible(graph)
        witness = closure_irreducibility(graph)
        assert r.is_yes == (witness is None)
        assert r.is_yes == (len(graph.condensation.members) == 1)
        if r.is_yes:
            assert_walk(graph, r.certificate["covering_closed_walk"], covering=True)
        else:
            reducible += 1
            names = r.certificate["forward_closed"]
            assert names == witness
            w = {graph.vertex_index[v] for v in names}
            assert 0 < len(w) < graph.vertex_count
            for e in graph.edges:
                if graph.vertex_index[e[0]] in w:
                    assert graph.vertex_index[e[1]] in w
    assert reducible > 50


def reach_by_search(graph):
    """Per vertex name, the names reached by a path of one or more edges:
    one search per vertex over the raw edge list."""
    reach = {}
    for start in graph.vertices:
        seen = set()
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in graph.edges:
                if e[0] == v and e[1] not in seen:
                    seen.add(e[1])
                    frontier.append(e[1])
        reach[start] = seen
    return reach


def components_by_recursive_search(graph, reach):
    """The components as vertex-index tuples, ordered by decreasing finish
    time of their first-visited vertex in a recursive depth-first search
    with roots in vertex order and edges in declared order."""
    names, vi = graph.vertices, graph.vertex_index
    succ = [[] for _ in names]
    for e in graph.edges:
        succ[vi[e[0]]].append(vi[e[1]])
    discovered, finished = [], []

    def visit(v):
        discovered.append(v)
        for w in succ[v]:
            if w not in discovered:
                visit(w)
        finished.append(v)

    def mutual(v, w):
        return v == w or (names[w] in reach[names[v]] and names[v] in reach[names[w]])

    n = len(names)
    for v in range(n):
        if v not in discovered:
            visit(v)
    components = {tuple(w for w in range(n) if mutual(v, w)) for v in range(n)}
    first = {c: min(c, key=discovered.index) for c in components}
    return sorted(components, key=lambda c: -finished.index(first[c]))


def test_condensation_matches_reachability_by_search():
    """Two vertices share a component iff each reaches the other; edges
    between components raise the id; members are ascending; a component
    is cyclic iff a member reaches itself.  The ids follow the decreasing
    finish time of each component's first-visited vertex, the order the
    irrational-cycle certificate lists its roots and potentials in."""
    rng = random.Random(1412)
    graphs = [random_graph(rng, max_vertices=rng.choice([4, 6, 9])) for _ in range(200)]
    graphs += [layered_graph(rng, max_vertices=9) for _ in range(200)]
    graphs += list(enumerate_left_resolving(3, 2))
    several = acyclic = 0
    for graph in graphs:
        component, members, cyclic = graph.condensation
        reach = reach_by_search(graph)
        names, vi = graph.vertices, graph.vertex_index
        for u in names:
            for w in names:
                mutual = u == w or (w in reach[u] and u in reach[w])
                assert (component[vi[u]] == component[vi[w]]) == mutual
        for e in graph.edges:
            assert component[vi[e[0]]] <= component[vi[e[1]]]
        assert members == tuple(
            tuple(v for v in range(len(names)) if component[v] == c) for c in range(len(members))
        )
        assert cyclic == tuple(any(names[v] in reach[names[v]] for v in m) for m in members)
        assert list(members) == components_by_recursive_search(graph, reach)
        several += len(members) > 2
        acyclic += not all(cyclic)
    assert several > 300 and acyclic > 100


def test_condensation_at_the_size_caps():
    """A chain of loops, vertex i+1 feeding vertex i, has one cyclic
    component per vertex, numbered from the source v999 down; a single
    1000-cycle has one component."""
    n = MAX_VERTICES
    vertices = [f"v{i}" for i in range(n)]
    edges = [(v, v, "a") for v in vertices] + [(vertices[i + 1], vertices[i], "b") for i in range(n - 1)]
    graph = validate_graph(vertices, edges, ["a", "b"])
    with wall_clock_limit(2):
        _component, members, cyclic = graph.condensation
        r = irrational_cycle(graph, {"a": rat(1, 3), "b": gen(1)})
    assert len(members) == n and all(cyclic)
    assert r.verdict == "No" and r.certificate["cycle_denominator"] == 3
    assert r.certificate["roots"] == vertices[::-1]
    assert len(parse_system(interleaved_cycle(n)).graph().condensation.members) == 1


def count_condensation_builds(monkeypatch):
    """A list that gains the graph each time a condensation is built."""
    prop = LabeledGraph.__dict__["condensation"]
    build_condensation = prop.func
    built = []

    def counted(graph):
        built.append(graph)
        return build_condensation(graph)

    monkeypatch.setattr(prop, "func", counted)
    return built


def test_analyze_builds_one_condensation(monkeypatch):
    """The irrational-cycle verdict and the ideal lattice share it."""
    with open(os.path.join(SYSTEMS, "reducible3.sds"), encoding="utf-8") as f:
        text = f.read()
    built = count_condensation_builds(monkeypatch)
    report, ok = analyze_document(parse_system(text), text)
    assert ok and report["irreducible"]["verdict"] == NO
    assert report["ideals"]["count"] == 3
    assert len(built) == 1


def interleaved_cycle(n):
    """One symbol on a single n-cycle through v0, v2, ..., v1, v3, ...:
    a covering walk that joins paths to v1, v2, ... in index order
    without skipping vertices already passed goes round n/2 times."""
    order = [f"v{i}" for i in range(0, n, 2)] + [f"v{i}" for i in range(1, n, 2)]
    return (
        "[alphabet]\na\n\n[vertices]\n"
        + "".join(f"v{i}\n" for i in range(n))
        + "\n[edges]\n"
        + "".join(f"{order[k]} -> {order[(k + 1) % n]} : a\n" for k in range(n))
    )


def test_covering_walk_skips_vertices_already_passed(capsys, tmp_path):
    n = MAX_VERTICES
    text = interleaved_cycle(n)
    graph = parse_system(text).graph()
    walk = is_irreducible(graph).certificate["covering_closed_walk"]
    assert_walk(graph, walk, covering=True)
    assert len(walk) <= 2 * n
    system = tmp_path / "interleaved.sds"
    system.write_text(text, encoding="utf-8")
    with wall_clock_limit(10):
        report, ok = analyze_document(parse_system(text), text)
        code = cli.main(["analyze", str(system), "--json"])
    assert ok and report["irreducible"]["verdict"] == YES
    # the largest report inside the caps, about 17 MB: compare digests
    # so that a failure does not diff two such strings
    out = capsys.readouterr().out
    expected = json.dumps(report, indent=2) + "\n"
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == hashlib.sha256(expected.encode()).hexdigest()


def test_json_writer_peak_on_the_largest_report():
    """Writing the 17 MB report of the interleaved cycle holds the
    text and the parts it is joined from, not a copy of each nested
    text per level: its tracemalloc peak stays within 2.5 times the
    text's length."""
    text = interleaved_cycle(MAX_VERTICES)
    report, ok = analyze_document(parse_system(text), text)
    assert ok
    with wall_clock_limit(10):
        tracemalloc.start()
        try:
            written = cli._indented_json(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(written) > 10_000_000
    assert peak <= 2.5 * len(written)


def test_composites_on_reducible_graph_skip_the_cycle_search(monkeypatch):
    """Reducible with condition (I): simplicity stops at irreducibility,
    so neither composite may search for an irrational cycle.  Where
    vertex 0 reaches every vertex, irreducibility reads the condensation
    once; where it does not, no condensation is built."""
    loops = (("v1", "v1", "a"), ("v1", "v1", "b"), ("v2", "v2", "a"), ("v2", "v2", "b"))
    angles = {"a": gen(1), "b": rat(0), "c": rat(0)}

    def forbidden(*_args, **_kwargs):
        raise AssertionError("irrational_cycle computed on a reducible graph")

    patch_everywhere(monkeypatch, verdicts, "irrational_cycle", forbidden)
    built = count_condensation_builds(monkeypatch)
    for c_edge, builds in ((("v1", "v2", "c"), 1), (("v2", "v1", "c"), 0)):
        graph = build(("v1", "v2"), loops + (c_edge,), ("a", "b", "c"))
        assert condition_I(graph).is_yes
        simple = crossed_product_simplicity(graph, angles)
        assert simple.verdict == "No" and "forward_closed" in simple.certificate
        purely = pure_infiniteness(graph, angles)
        assert purely.verdict == UNKNOWN
        assert purely.notes == ("missing hypothesis: irreducibility",)
        assert built == [graph] * builds
        built.clear()


# -- irrational cycles ----------------------------------------------------------


def test_irrational_cycle_goldenmean():
    graph, angles = goldenmean()
    r = irrational_cycle(graph, angles)
    assert r.is_yes
    assert_walk(graph, r.certificate["cycle"])
    total = cycle_angle(r.certificate["cycle"], angles)
    assert total.coefficients


def test_two_cycle_with_cancelling_generators():
    # edge angles g and 1/2 - g: every cycle angle is rational
    graph, angles = two_cycle(gen(1), gen(-1, 1, 2))
    r = irrational_cycle(graph, angles)
    assert r.verdict == "No"
    assert r.certificate["cycle_denominator"] == 2


def test_rational_decoration_has_no_irrational_cycle():
    graph, _ = goldenmean()
    angles = {"a": rat(1, 3), "b": rat(1, 2), "c": rat(0)}
    r = irrational_cycle(graph, angles)
    assert r.verdict == "No"
    # cycle aa..: angle k/3; cycle bc: 1/2; denominators 2 and 3 both divide
    assert r.certificate["cycle_denominator"] % 2 == 0
    assert r.certificate["cycle_denominator"] % 3 == 0


def test_irrational_cycle_passes_over_a_rational_first_walk():
    # the tree reaches v3 by d, so edge b is the first with an irrational
    # defect; its first walk a b c has the rational angle 1/2, not 0
    graph = build(
        ("v1", "v2", "v3"),
        (("v1", "v2", "a"), ("v1", "v3", "d"), ("v2", "v3", "b"), ("v3", "v1", "c")),
    )
    angles = {"a": gen(1), "b": gen(-1, 1, 2), "c": rat(0), "d": gen(1)}
    r = irrational_cycle(graph, angles)
    assert r.certificate["cycle"] == [["v1", "v3", "d"], ["v3", "v1", "c"]]
    assert r.certificate["angle"] == "0 + 1*g"


def test_irrational_cycle_ignores_transient_edges():
    # irrational angle on a bridge between two rational components
    graph, angles = reducible3()
    angles = dict(angles)
    angles["d"] = rat(0)
    angles["b"] = gen(1)  # bridge edge, belongs to no cycle
    r = irrational_cycle(graph, angles)
    assert r.verdict == "No"


def inner_edges(graph):
    """Edges whose target reaches their source, i.e. edges on some cycle,
    by one search per vertex over the raw edge list."""
    reach = reach_by_search(graph)
    return [e for e in graph.edges if e[0] == e[1] or e[0] in reach[e[1]]]


def assert_cycle_certificate(graph, angles, r, inner):
    """Re-check an irrational_cycle certificate with exact angle
    arithmetic only.  Yes: a closed walk of graph edges whose summed
    angle is irrational and printed as the certificate's angle.  No: the
    printed potentials parse, vanish at the roots, and leave every inner
    edge a rational defect; cycle_denominator is the lcm of the defect
    denominators."""
    if r.is_yes:
        assert_walk(graph, r.certificate["cycle"])
        total = cycle_angle(r.certificate["cycle"], angles)
        assert total.coefficients
        assert r.certificate["angle"] == str(total)
        return
    context = GeneratorContext(max((a.context.ids for a in angles.values()), key=len))
    potentials = {v: parse_angle(text, context) for v, text in r.certificate["potentials"].items()}
    assert sorted(potentials) == sorted(graph.vertices)
    assert all(potentials[root].is_zero() for root in r.certificate["roots"])
    q = r.certificate["cycle_denominator"]
    denominators = 1
    for e in inner:
        defect = potentials[e[0]] + angles[e[2]] - potentials[e[1]]
        assert not defect.coefficients, (e, str(defect))
        assert q % defect.rational.denominator == 0, (e, str(defect), q)
        denominators = lcm(denominators, defect.rational.denominator)
    assert denominators == q


def test_irrational_cycle_vs_brute_force():
    rng = random.Random(77)
    draws = []
    for _ in range(60):
        graph = random_graph(rng, max_vertices=5, max_symbols=3)
        draws.append((graph, random_angles(rng, graph)))
    # several components, transient vertices, 0-2 generators; every other
    # draw is graded so that generator terms cancel along every cycle
    for i in range(300):
        shifts = tuple(rng.sample((-1, 0, 1), 3)) if i % 2 else None
        graph = layered_graph(rng, max_vertices=8, shifts=shifts)
        draws.append((graph, mixed_angles(rng, graph, shifts)))
    for graph, angles in draws:
        r = irrational_cycle(graph, angles)
        cycles = simple_cycles(graph)
        brute = any(cycle_angle(c, angles).coefficients for c in cycles)
        assert r.is_yes == brute, (graph.edges, {s: str(a) for s, a in angles.items()})
        assert_cycle_certificate(graph, angles, r, inner_edges(graph))
        if r.verdict == "No":
            # every simple cycle angle denominator divides the certificate
            q = r.certificate["cycle_denominator"]
            for c in cycles:
                assert (cycle_angle(c, angles).rational * q).denominator == 1
            # and q is no larger: each edge defect is the difference of
            # two closed walks, whose denominators divide this lcm
            assert q == lcm(*(cycle_angle(c, angles).rational.denominator for c in cycles))


def every_cap_chain(closing):
    """One cycle through all MAX_VERTICES vertices: 999 edges labeled a,
    closed by one labeled b = -closing * a.  The angle a has the rational
    part 1/D with D = 2**4000 + 1, so the common denominator L = D has
    4001 bits, and MAX_GENERATORS integer coefficients of alternating
    sign near 2**84, so its generator coordinates c * L and those of b
    come within a few bits of MAX_ANGLE_BITS, on both sides of zero.
    closing = 999 makes every cycle rational: every vertex has its own
    potential, all written in the No certificate."""
    context = GeneratorContext(tuple(f"g{k}" for k in range(MAX_GENERATORS)))
    d = 2**4000 + 1
    a = ExactAngle.make(context, Fraction(1, d), {name: (-1) ** k * (2**84 + k) for k, name in enumerate(context.ids)})
    b = ExactAngle.make(context, -closing * a.rational, {name: -closing * c for name, c in a.coefficients})
    n = MAX_VERTICES
    edges = [(f"v{i}", f"v{i + 1}", "a") for i in range(n - 1)] + [(f"v{n - 1}", "v0", "b")]
    return validate_graph([f"v{i}" for i in range(n)], edges, ["a", "b"]), {"a": a, "b": b}


def test_irrational_cycle_at_the_size_caps():
    rng = random.Random(1000)
    graph = hamiltonian_graph(rng, MAX_VERTICES, 10, extra_p=0.9)
    assert 8500 <= len(graph.edges) <= MAX_EDGES
    rational = {s: rat(rng.randint(0, 11), rng.choice((1, 2, 3, 4, 6, 12))) for s in graph.alphabet}
    irrational = dict(rational, a7=gen(1, 1, 3))
    chain, rational_chain = every_cap_chain(999)
    _, irrational_chain = every_cap_chain(998)
    _, common, coords = ExactAngle.integer_coordinates(rational_chain)
    entries = [x for row in coords.values() for x in row]
    assert common.bit_length() == 4001
    assert MAX_ANGLE_BITS - 8 <= max(x.bit_length() for x in entries) <= MAX_ANGLE_BITS
    assert min(entries) < 0 < max(entries)
    for graph, angles, verdict in (
        (graph, rational, NO),
        (graph, irrational, YES),
        (chain, rational_chain, NO),
        (chain, irrational_chain, YES),
    ):
        with wall_clock_limit(10):
            r = irrational_cycle(graph, angles)
        assert r.verdict == verdict
        # a Hamiltonian cycle makes the graph strongly connected
        assert_cycle_certificate(graph, angles, r, graph.edges)


def test_first_irrational_edge_of_a_later_component(monkeypatch):
    """Components in topological order: the rational 2-cycle {x0, x1},
    the acyclic singletons t1 and t2, then the 3-vertex component of the
    y's, declared first.  The irrational bridge x1 -> t1 lies on no
    cycle.  Of the two irrational edges inside the last component,
    y2 -> y0 comes first in declared order and y1 -> y0 first in the
    out-edge lists: the Yes certificate closes the first.  With both
    made rational, potentials follow component order and then tree
    order, and only the two cyclic components take a search."""
    graph = build(
        ("y0", "y2", "y1", "t2", "t1", "x0", "x1"),
        (
            ("x0", "x1", "p"),
            ("x1", "x0", "q"),
            ("x1", "t1", "r"),
            ("t1", "t2", "s"),
            ("t2", "y0", "u"),
            ("y0", "y1", "a"),
            ("y1", "y2", "b"),
            ("y2", "y0", "c"),
            ("y1", "y0", "d"),
        ),
        ("p", "q", "r", "s", "u", "a", "b", "c", "d"),
    )
    angles = {
        "p": rat(1, 3),
        "q": rat(1, 6),
        "r": gen(1),
        "s": rat(0),
        "u": rat(1, 5),
        "a": rat(1, 4),
        "b": rat(0),
        "c": gen(1),
        "d": gen(2, 1, 8),
    }
    r = irrational_cycle(graph, angles)
    assert r.certificate == {
        "cycle": [["y0", "y1", "a"], ["y1", "y2", "b"], ["y2", "y0", "c"]],
        "angle": "1/4 + 1*g",
        "base_vertex": "y0",
    }
    assert_cycle_certificate(graph, angles, r, inner_edges(graph))

    rational = dict(angles, c=rat(1, 4), d=rat(1, 8))
    searches = []
    original = verdicts._bfs_tree

    def counted(*args, **kwargs):
        searches.append(graph.vertices[args[1]])
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, verdicts, "_bfs_tree", counted)
    r = irrational_cycle(graph, rational)
    assert searches == ["x0", "y0"]
    assert r.certificate == {
        "cycle_denominator": 8,
        "potentials": {"x0": "0", "x1": "1/3", "t1": "0", "t2": "0", "y0": "0", "y1": "1/4", "y2": "1/4"},
        "roots": ["x0", "t1", "t2", "y0"],
    }
    assert list(r.certificate["potentials"]) == ["x0", "x1", "t1", "t2", "y0", "y1", "y2"]
    assert_cycle_certificate(graph, rational, r, inner_edges(graph))


# -- minimality ------------------------------------------------------------------


def test_minimality_three_cases():
    graph, angles = goldenmean()
    assert graph_minimality(graph, angles).is_yes

    red_graph, red_angles = reducible3()
    r = graph_minimality(red_graph, red_angles)
    assert r.verdict == "No"
    assert "forward_closed" in r.certificate

    rat_graph, rat_angles = two_cycle(rat(1, 4), rat(1, 4))
    r = graph_minimality(rat_graph, rat_angles)
    assert r.verdict == "No"
    assert r.certificate.get("derived") is True
    assert r.certificate["cycle_denominator"] == 2


def test_minimality_full_shift_cases():
    graph, angles = fullshift([rat(0), gen(1)])
    assert graph_minimality(graph, angles).is_yes
    graph, angles = fullshift([rat(0), rat(1, 2)])
    r = graph_minimality(graph, angles)
    assert r.verdict == "No" and r.certificate.get("derived") is True


# -- simplicity and pure infiniteness ----------------------------------------------


def test_simplicity_tracks_minimality_under_condition_I():
    graph, angles = goldenmean()
    r = crossed_product_simplicity(graph, angles)
    assert r.is_yes
    graph, angles = fullshift([rat(0), rat(1, 2)])
    r = crossed_product_simplicity(graph, angles)
    assert r.verdict == "No"


def test_composites_pass_the_kept_cycle_certificate_on():
    """A composite that adds nothing to the kept cycle certificate
    reports that object; the derived No adds its flag to a copy."""
    graph, angles = goldenmean()
    cycle = verdicts.kept(graph, irrational_cycle, angles).certificate
    assert graph_minimality(graph, angles).certificate is cycle
    assert crossed_product_simplicity(graph, angles).certificate is cycle

    graph, angles = two_cycle(rat(1, 4), rat(1, 4))
    r = graph_minimality(graph, angles)
    assert r.certificate["derived"] is True
    assert "derived" not in verdicts.kept(graph, irrational_cycle, angles).certificate


def test_simplicity_unknown_without_condition_I():
    graph = build(("v",), (("v", "v", "a"),))
    r = crossed_product_simplicity(graph, {"a": gen(1)})
    assert r.verdict == UNKNOWN
    assert any("condition (I)" in n for n in r.notes)


def test_pure_infiniteness_positive():
    graph, angles = goldenmean()
    r = pure_infiniteness(graph, angles)
    assert r.is_yes
    assert r.certificate["irreducible"] is True
    assert_walk(graph, r.certificate["cycle"]["cycle"])


def test_pure_infiniteness_names_missing_hypothesis():
    # no irrational cycle
    graph, angles = fullshift([rat(0), rat(1, 2)])
    r = pure_infiniteness(graph, angles)
    assert r.verdict == UNKNOWN
    assert any("irrational" in n for n in r.notes)
    # not irreducible, but condition (I) holds on both components
    graph = build(
        ("v1", "v2"),
        (
            ("v1", "v1", "a"),
            ("v1", "v1", "b"),
            ("v2", "v2", "c"),
            ("v2", "v2", "d"),
        ),
    )
    r = pure_infiniteness(graph, {"a": rat(0), "b": gen(1), "c": rat(0), "d": rat(0)})
    assert r.verdict == UNKNOWN
    assert any("irreducib" in n for n in r.notes)
    # condition (I) fails
    graph = build(("v",), (("v", "v", "a"),))
    r = pure_infiniteness(graph, {"a": gen(1)})
    assert r.verdict == UNKNOWN
    assert any("condition (I)" in n for n in r.notes)


# -- base verdicts kept on the graph object -------------------------------------


def count_base_decisions(monkeypatch):
    """Calls that decide condition (I), irreducibility (the decision the
    composites read, not the report with its walk) and the cycle, and
    calls that build the covering walk."""
    calls = {"condition_I": 0, "_forward_closed": 0, "irrational_cycle": 0, "_covering_walk": 0}

    def counting(name):
        original = getattr(verdicts, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        patch_everywhere(monkeypatch, verdicts, name, counting(name))
    return calls


def test_composites_on_one_graph_decide_each_base_verdict_once(monkeypatch):
    calls = count_base_decisions(monkeypatch)
    graph, angles = goldenmean()
    assert crossed_product_simplicity(graph, angles).is_yes
    assert pure_infiniteness(graph, angles).is_yes
    assert graph_minimality(graph, dict(angles)).is_yes
    assert calls == {"condition_I": 1, "_forward_closed": 1, "irrational_cycle": 1, "_covering_walk": 0}


def test_shared_analysis_follows_the_angles():
    graph, angles = goldenmean()
    rational = dict(angles, a=rat(1, 3))
    assert pure_infiniteness(graph, angles).is_yes
    assert pure_infiniteness(graph, rational).verdict == UNKNOWN
    assert pure_infiniteness(graph, angles).is_yes
    # the same dict, mutated between calls
    assert pure_infiniteness(graph, rational).verdict == UNKNOWN
    rational["b"] = gen(1, 1, 2)
    assert pure_infiniteness(graph, rational).is_yes
    rational["b"] = rat(0)
    assert pure_infiniteness(graph, rational).verdict == UNKNOWN
    assert graph_minimality(graph, rational).verdict == "No"
    # the kept angle table, which the full-shift decision reads, follows
    # the same dict mutated in place
    graph, angles = fullshift([rat(0), rat(1, 2)])
    assert fullshift_of_graph(graph, angles)[0].certificate == {"common_denominator": 2}
    angles["s2"] = gen(1)
    assert fullshift_of_graph(graph, angles)[0].is_yes
    angles["s2"] = rat(1, 3)
    assert fullshift_of_graph(graph, angles)[0].certificate == {"common_denominator": 3}


def test_reparsed_equal_graph_decides_afresh(monkeypatch):
    calls = count_base_decisions(monkeypatch)
    with open(os.path.join(SYSTEMS, "goldenmean.sds"), encoding="utf-8") as fh:
        text = fh.read()
    first, second = parse_system(text), parse_system(text)
    assert first.graph() == second.graph()
    for doc in (first, second):
        graph = doc.graph()
        crossed_product_simplicity(graph, doc.angles)
        pure_infiniteness(graph, doc.angles)
    assert calls == {"condition_I": 2, "_forward_closed": 2, "irrational_cycle": 2, "_covering_walk": 0}


def test_shared_analysis_is_freed_with_its_graph():
    """The kept verdicts do not refer back to the graph, so reference
    counting frees it; the cycle collector is not needed."""
    graph, angles = fullshift([rat(0), gen(1)])
    assert pure_infiniteness(graph, angles).is_yes
    assert verdicts.kept(graph, is_irreducible).is_yes
    assert fullshift_of_graph(graph, angles)[0].is_yes
    ref = weakref.ref(graph)
    gc.collect()
    gc.disable()
    try:
        del graph
        assert ref() is None
    finally:
        gc.enable()


def circulant(n, k, symbols=("a", "b")):
    """v -> v+1 and v -> v+k (mod n), labeled symbols[0] and symbols[1]:
    left-resolving, and strongly connected through the v -> v+1 cycle."""
    a, b = symbols
    edges = [(f"v{v}", f"v{(v + 1) % n}", a) for v in range(n)]
    edges += [(f"v{v}", f"v{(v + k) % n}", b) for v in range(n)]
    return build([f"v{v}" for v in range(n)], edges, symbols)


def test_composites_on_a_large_irreducible_graph_build_no_covering_walk(monkeypatch):
    """The covering walk costs one search per vertex; the composites need
    only the irreducibility decision, one search from vertex 0, whose
    tree the cycle search reads as the spanning tree of the one
    component."""
    graph = circulant(MAX_VERTICES, 7)
    angles = {"a": rat(1, 4), "b": rat(3, 4)}
    searches = []
    original = verdicts._bfs_tree

    def counted(*args, **kwargs):
        searches.append(args[1])
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, verdicts, "_bfs_tree", counted)
    assert crossed_product_simplicity(graph, angles).verdict == "No"
    assert pure_infiniteness(graph, angles).verdict == UNKNOWN
    assert searches == [0]
    r = is_irreducible(graph)
    assert r.is_yes
    assert_walk(graph, r.certificate["covering_closed_walk"], covering=True)


def assert_edge_lists(walk):
    assert all(type(e) is list and len(e) == 3 and all(type(x) is str for x in e) for e in walk)


def test_shared_potentials_are_written_as_each_vertex_alone():
    """Even and odd vertices of an even circulant with odd k alternate,
    so a generator added on edges out of even vertices and taken off on
    edges out of odd ones cancels on every cycle.  With rational parts
    1/4 per step, every path from v0 to vi rotates by i/4 + (i mod 2)*g
    mod 1: 64 vertices share 4 potentials, and each must read as the
    angle of its own tuple formatted alone."""
    n, k = 64, 7
    even, odd = circulant(n, k), circulant(n, k, ("c", "d"))
    graph = build(
        even.vertices,
        [e for e in even.edges if int(e[0][1:]) % 2 == 0]
        + [e for e in odd.edges if int(e[0][1:]) % 2 == 1],
        ("a", "b", "c", "d"),
    )
    angles = {"a": gen(1, 1, 4), "b": gen(1, k, 4), "c": gen(-1, 1, 4), "d": gen(-1, k, 4)}
    r = irrational_cycle(graph, angles)
    assert r.verdict == "No" and r.certificate["cycle_denominator"] == 1
    expected = {}
    for i in range(n):
        context, common, coords = ExactAngle.integer_coordinates({"p": gen(i % 2, i, 4)})
        expected[f"v{i}"] = ExactAngle.format_integer_coordinates(context, common, coords["p"])
    assert r.certificate["potentials"] == expected
    assert len(set(expected.values())) == 4
    # edges stay plain [src, dst, symbol] lists in both walk certificates
    angles["b"] = rat(k, 4)
    r = irrational_cycle(graph, angles)
    assert r.is_yes
    assert_walk(graph, r.certificate["cycle"])
    assert_edge_lists(r.certificate["cycle"])
    r = is_irreducible(graph)
    assert r.is_yes
    assert_edge_lists(r.certificate["covering_closed_walk"])


# -- full shift specials --------------------------------------------------------------


def decide_fullshift(angles):
    """fullshift_of_graph on the full shift over s1, s2, ... carrying the
    angles in list order."""
    return fullshift_of_graph(*fullshift(angles))


def test_fullshift_simplicity_by_differences():
    r, _ = decide_fullshift([rat(0), gen(1)])
    assert r.is_yes
    assert r.certificate["pair"] == ["s1", "s2"]
    r, _ = decide_fullshift([rat(0), rat(1, 2), rat(1, 3)])
    assert r.verdict == "No"
    assert r.certificate["common_denominator"] == 6
    # equal irrational angles: differences vanish
    r, _ = decide_fullshift([gen(1), gen(1)])
    assert r.verdict == "No"
    assert r.certificate["common_denominator"] == 1


def test_fullshift_uniform_distribution_matches_simplicity():
    cases = [
        [rat(0), gen(1)],
        [rat(0), rat(1, 2)],
        [gen(1), gen(1)],
        [gen(1), gen(2)],
        [rat(1, 3), rat(1, 3), gen(1, 1, 2)],
    ]
    for angles in cases:
        core, uniform = decide_fullshift(angles)
        assert uniform.verdict == core.verdict
        # one fact, one certificate object
        assert uniform.certificate is core.certificate
        assert uniform.criterion != core.criterion


def test_fullshift_is_unknown_off_the_full_shift():
    """Only a graph of one vertex with two or more symbols is a full
    shift: on goldenmean, on reducible3 and on one vertex with one loop
    both verdicts are Unknown, with the criterion that says so and no
    certificate, even where two angles differ by an irrational amount."""
    criterion = "full-shift analysis applies to single-vertex graphs with at least two symbols"
    one_loop = build(("v",), (("v", "v", "a"),)), {"a": rat(1, 3)}
    for graph, angles in (goldenmean(), reducible3(), one_loop):
        for r in fullshift_of_graph(graph, angles):
            assert r.to_json() == {"verdict": UNKNOWN, "certificate": None, "criterion": criterion}


def test_fullshift_verdicts_match_all_pairs():
    # the first irrational pair in lexicographic order and the lcm of
    # the pairwise denominators, found by checking every pair with
    # ExactAngle subtraction; the alphabet's symbols name the pair
    rng = random.Random(2024)
    for _ in range(300):
        angles = [
            gen(rng.choice([0, 0, 0, 1, 2]), rng.randint(0, 5), rng.randint(1, 6))
            for _ in range(rng.randint(2, 6))
        ]
        labels = [f"s{i + 1}" for i in range(len(angles))]
        pairs = [(i, j) for i in range(len(angles)) for j in range(i + 1, len(angles))]
        irrational = [(i, j) for i, j in pairs if (angles[i] - angles[j]).coefficients]
        for r in decide_fullshift(angles):
            if irrational:
                i, j = irrational[0]
                assert r.is_yes
                assert r.certificate["pair"] == [labels[i], labels[j]]
                assert r.certificate["difference"] == str(angles[i] - angles[j])
            else:
                expected = lcm(*((angles[i] - angles[j]).rational.denominator for i, j in pairs))
                assert r.verdict == "No"
                assert r.certificate == {"common_denominator": expected}


def test_fullshift_mixed_contexts_raise():
    # the first pair is already irrational: the whole table is still built
    other = ExactAngle.make(GeneratorContext(("h",)), 0, {"h": 1})
    with pytest.raises(ContextMismatch):
        decide_fullshift([gen(1), rat(0), other])
