"""Acceptance criteria for the package, one test per criterion.

Each test prints exactly one [acceptance N] PASS/FAIL line on the real
terminal (bypassing capture) so the gate can be read off directly from
the pytest run.  Every exact decision is checked against an
independently implemented oracle, never against itself.
"""

import glob
import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    brute_count_words,
    enumerate_left_resolving,
    gen,
    identity_minus_adjacency,
    random_angles,
    random_graph,
    rat,
)
from rotshift.graph import full_shift_graph
from rotshift.ideals import enumerate_invariant_saturated, quotient_system
from rotshift.intlinalg import AbelianGroupPresentation
from rotshift.ktheory import bunce_deddens_data, graph_k_groups, k_theory_json
from rotshift.oracles import (
    decorated_admissible_words,
    invariant_factors_via_minors,
    matrix_product_admissible,
    orbit_density,
    weyl_sums,
)
from rotshift.subshift import admissible_words
from rotshift.fileformat import parse_system_file
from rotshift.verdicts import (
    condition_I,
    crossed_product_simplicity,
    fullshift_of_graph,
    graph_minimality,
    is_irreducible,
    pure_infiniteness,
)

SYSTEMS = os.path.join(os.path.dirname(__file__), "..", "systems")
GOLDEN = 0.618033988749894


def bundled_documents():
    docs = {}
    for path in sorted(glob.glob(os.path.join(SYSTEMS, "*.sds"))):
        name = os.path.basename(path)[: -len(".sds")]
        if name == "bad":
            continue
        docs[name] = parse_system_file(path)
    return docs


def checked(capsys, number, label):
    """Decorator running the criterion body and printing the gate line."""

    def wrap(body):
        try:
            detail = body()
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance {number}] FAIL: {label}")
            raise
        line = f"[acceptance {number}] PASS: {label}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)

    return wrap


def test_criterion_1_loop_k_formula(capsys):
    @checked(capsys, 1, "N-loop systems have K0 = K1 = Z/(N-1)")
    def _():
        start = time.monotonic()
        for n in range(2, 7):
            kg = graph_k_groups(full_shift_graph(n))
            assert kg == AbelianGroupPresentation((n - 1,) if n > 2 else (), 0)
            section = k_theory_json(kg)
            assert section["K0"] == section["K1"] == ("0" if n == 2 else f"Z/{n - 1}")
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        return f"N=2..6, {elapsed:.3f}s"


def test_criterion_2_k_groups_vs_independent_snf_path(capsys):
    @checked(capsys, 2, "K-groups agree with the minor-gcd route on 50 random graphs")
    def _():
        rng = random.Random(20260817)
        mismatches = 0
        for _ in range(50):
            graph = random_graph(rng, max_vertices=6, max_symbols=3)
            n = graph.vertex_count
            m = identity_minus_adjacency(graph)

            # independent route: invariant factors from minor gcds
            factors = invariant_factors_via_minors(m)
            rank = len(factors)
            torsion = tuple(f for f in factors if f >= 2)
            free = (n - rank) * 2  # cokernel free part plus kernel

            kg = graph_k_groups(graph)
            if kg.torsion != torsion or kg.free_rank != free:
                mismatches += 1
        assert mismatches == 0
        return "50 graphs, 0 mismatches"


def test_criterion_3_admissibility_agreement(capsys):
    @checked(capsys, 3, "support-walk admissibility equals the matrix-product oracle")
    def _():
        start = time.monotonic()
        docs = bundled_documents()
        graphs = {name: doc.graph() for name, doc in docs.items()}
        assert {"fullshift2", "fullshift3", "goldenmean", "reducible3"} <= set(graphs)
        words_checked = 0
        for name, graph in graphs.items():
            for k in range(7):
                candidates = list(itertools.product(graph.alphabet, repeat=k))
                oracle = [w for w in candidates if matrix_product_admissible(graph, w)]
                assert admissible_words(graph, k) == oracle, (name, k)
                words_checked += len(candidates)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        return f"{words_checked} words over {len(graphs)} graphs, {elapsed:.2f}s"


def test_criterion_4_condition_I_sweep(capsys):
    @checked(capsys, 4, "condition (I) decision equals brute-force word search")
    def _():
        graphs_checked = 0
        for n_vertices in (1, 2, 3):
            bound = 2**n_vertices + n_vertices
            for n_symbols in (1, 2):
                for graph in enumerate_left_resolving(n_vertices, n_symbols):
                    decision = condition_I(graph).is_yes
                    brute = all(
                        brute_count_words(graph, v, bound) >= 2
                        for v in graph.vertices
                    )
                    assert decision == brute, (graph.edges,)
                    graphs_checked += 1
        assert graphs_checked > 100
        return f"{graphs_checked} graphs, lengths up to 11"


def test_criterion_5_fullshift_verdict_matrix(capsys):
    @checked(capsys, 5, "two-symbol full shift verdicts for (0,1/2), (0,g), (g,g)")
    def _():
        graph = full_shift_graph(2)

        half = {"s1": rat(0), "s2": rat(1, 2)}
        assert crossed_product_simplicity(graph, half).verdict == "No"
        f, ud = fullshift_of_graph(graph, half)
        assert f.verdict == "No"
        assert ud.verdict == "No"
        assert ud.certificate["common_denominator"] == 2

        irr = {"s1": rat(0), "s2": gen(1)}
        assert crossed_product_simplicity(graph, irr).is_yes
        assert pure_infiniteness(graph, irr).is_yes
        f, ud = fullshift_of_graph(graph, irr)
        assert f.is_yes
        assert ud.is_yes

        same = {"s1": gen(1), "s2": gen(1)}
        assert crossed_product_simplicity(graph, same).is_yes
        f, ud = fullshift_of_graph(graph, same)
        assert f.verdict == "No"
        assert ud.verdict == "No"
        return "all three columns as prescribed"


def test_criterion_6_weyl_equidistribution(capsys):
    @checked(capsys, 6, "Weyl sums: decay for (0,g), stuck at 1 for (0,1/2)")
    def _():
        start = time.monotonic()
        # Word length 10^4 (the documented cap) rather than 200: levels at
        # continued-fraction denominators of g (34 is the worst below 50)
        # decay like |cos(pi*34*g)|^n and need n ~ 8000 to fall under 1e-3.
        table = weyl_sums([0.0, GOLDEN], 10_000, 50)
        worst = max(v for _, v in table)
        assert worst < 1e-3
        rational = dict(weyl_sums([0.0, 0.5], 200, 4))
        assert abs(rational[2] - 1.0) < 1e-12
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        return f"max over l<=50 is {worst:.2e}, {elapsed:.3f}s"


def test_criterion_7_minimality_oracle_agreement(capsys):
    @checked(capsys, 7, "minimal systems reach 0.05-density; the (0,1/2) orbit stays on its grid")
    def _():
        docs = bundled_documents()
        dense_cases = 0
        for name, doc in docs.items():
            graph = doc.graph()
            verdict = graph_minimality(graph, doc.angles)
            if not verdict.is_yes:
                continue
            dense_cases += 1
            sample = orbit_density(
                graph, doc.float_angles({}), graph.vertices[0], 0.0, 100_000, 0.05
            )
            assert sample.dense, (name, sample.gap)
            assert all(g < 0.05 for g in sample.gap.values())
        assert dense_cases >= 2

        graph = full_shift_graph(2)
        sample = orbit_density(graph, {"s1": 0.0, "s2": 0.5}, "v", 0.0, 100_000, 0.3)
        for x in sample.points["v"]:
            assert min(abs(x), abs(x - 0.5), abs(x - 1.0)) < 1e-9
        assert len(sample.points["v"]) == 2
        return f"{dense_cases} minimal systems dense; rational orbit = {{0, 0.5}}"


def test_criterion_8_ideal_lattice(capsys):
    @checked(capsys, 8, "ideal lattices: reducible chain with predicted quotient, irreducible trivial")
    def _():
        docs = bundled_documents()
        graph = docs["reducible3"].graph()
        subsets = enumerate_invariant_saturated(graph)
        assert [graph.vertex_names(w) for w in subsets] == [
            [],
            ["v2", "v3"],
            ["v1", "v2", "v3"],
        ]
        q = quotient_system(graph, subsets[1])
        assert q.vertices == ("v1",)
        assert q.alphabet == ("a",)

        trivial = 0
        for name, doc in docs.items():
            g = doc.graph()
            if not is_irreducible(g).is_yes:
                continue
            subs = enumerate_invariant_saturated(g)
            assert len(subs) == 2, name
            assert subs[0] == frozenset()
            assert subs[1] == frozenset(range(g.vertex_count))
            trivial += 1
        assert trivial >= 3
        return f"chain of 3 on reducible3; {trivial} irreducible systems trivial"


def test_criterion_9_bunce_deddens_arithmetic(capsys):
    @checked(capsys, 9, "scaled-integer ladder arithmetic and limit tags")
    def _():
        rng = random.Random(99991)
        for n in (2, 3):
            data = bunce_deddens_data(n)
            assert data["K0_map"] == [[0, 0, n]]
            assert data["K1_map"] == [[0, 0, 1]]
            assert data["K0_limit"] == f"Z[1/{n}]"
            assert data["K1_limit"] == "Z"
            assert data["order_unit"] == [1]
            multiplier = data["K0_map"][0][2]  # N, from the entry (0, 0, N)
            # a at level m stands for a / n^m in Z[1/n]; one step of the
            # ladder's K0 map must carry it to a class of the same value
            for _ in range(1000):
                a = rng.randint(-10**6, 10**6)
                m = rng.randint(0, 12)
                image = multiplier * a
                assert Fraction(image, n ** (m + 1)) == Fraction(a, n**m)
        return "2000 random identifications for N=2,3"


def test_criterion_10_decoration_invariance(capsys):
    @checked(capsys, 10, "decorated language equals the base language to length 6")
    def _():
        rng = random.Random(271828)
        docs = bundled_documents()
        pairs = 0
        for name, doc in docs.items():
            graph = doc.graph()
            for _ in range(5):
                angles = random_angles(rng, graph)
                for k in range(7):
                    decorated = decorated_admissible_words(graph, angles, k)
                    assert admissible_words(graph, k) == decorated, (name, k)
                pairs += 1
        assert pairs == 5 * len(docs)
        return f"{pairs} graph/angle pairs"
