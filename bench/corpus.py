"""Seeded corpus of rotation-decorated graphs with planted structure.

Every generated graph is left-resolving and essential by construction,
and the generator knows the facts the package is asked to decide:

* the strongly connected components.  Each block of vertices carries a
  Hamiltonian cycle on symbol ``a0``, so it is strongly connected, and
  a permutation whose edges carry other symbols, so every vertex reads
  two distinct symbols and condition (I) holds everywhere.  Extra edges
  give each ``(dst, symbol)`` slot at most one source, drawn from the
  same block or an earlier one, so no cycle crosses blocks.  Transient
  vertices sit between blocks, each with one edge out to a later vertex
  and edges in only from earlier ones.
* the angles.  Rational inputs use small denominators; irrational
  inputs put the generator ``g`` on ``a0``, so every block's
  Hamiltonian cycle is an irrational cycle.

Nothing here imports the package: the planted facts are the
independent side of the output checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

GENERATOR_VALUE = "0.618033988749894"
_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)
_G_COEFFICIENTS = tuple(
    Fraction(c) for c in ("1", "-1", "2", "1/2", "-1/2", "1/3", "2/3", "-3/4")
)


@dataclass(frozen=True)
class Case:
    """One generated input and the facts planted in it."""

    name: str
    vertices: tuple[str, ...]
    alphabet: tuple[str, ...]
    # symbol -> (rational part, coefficient of g)
    angles: dict[str, tuple[Fraction, Fraction]]
    edges: tuple[tuple[str, str, str], ...]
    # planted components in topological order, as vertex-name tuples
    components: tuple[tuple[str, ...], ...]
    transient: frozenset[str]
    irrational: bool
    text: str

    @property
    def irreducible(self) -> bool:
        return len(self.components) == 1

    @property
    def angle_lcm(self) -> int:
        out = 1
        for rational, _coef in self.angles.values():
            out = lcm(out, rational.denominator)
        return out

    def ideal_count(self) -> int:
        """Invariant saturated subsets, counted on the condensation.

        A subset is forward closed iff it is a union of components
        closed under the condensation's successor relation; saturation
        only constrains transient vertices, whose successors all lie in
        other components.
        """
        comp_of = {v: i for i, comp in enumerate(self.components) for v in comp}
        k = len(self.components)
        succ: list[set[int]] = [set() for _ in range(k)]
        for src, dst, _s in self.edges:
            if comp_of[src] != comp_of[dst]:
                succ[comp_of[src]].add(comp_of[dst])
        trans = [comp_of[v] for v in self.transient]
        count = 0
        for size in range(k + 1):
            for chosen in combinations(range(k), size):
                w = set(chosen)
                if any(not succ[c] <= w for c in w):
                    continue
                if any(t not in w and succ[t] <= w for t in trans):
                    continue
                count += 1
        return count


def _angle_text(rational: Fraction, coef: Fraction) -> str | None:
    if coef == 0:
        return None if rational == 0 else str(rational)
    sign = "-" if coef < 0 else "+"
    return f"{rational} {sign} {abs(coef)}*g"


def make_case(
    rng: random.Random,
    name: str,
    block_sizes: list[int],
    transients: int,
    symbols: int,
    irrational: bool,
    extra_p: float,
) -> Case:
    """Build one graph with the given planted component structure.

    ``transients`` vertices are inserted strictly between blocks, so at
    least two blocks are needed when it is nonzero, and ``symbols >= 3``
    so that a later block vertex has a free slot for the outgoing edge.
    """
    assert symbols >= 2 and (transients == 0 or (len(block_sizes) >= 2 and symbols >= 3))
    kinds: list[int | None] = list(block_sizes)
    for _ in range(transients):
        kinds.insert(rng.randrange(1, len(kinds)), None)
    n = sum(block_sizes) + transients
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    alphabet = tuple(f"a{k}" for k in range(symbols))

    components: list[list[str]] = []
    pos = 0
    for kind in kinds:
        size = 1 if kind is None else kind
        components.append(names[pos : pos + size])
        pos += size
    comp_of = {v: i for i, comp in enumerate(components) for v in comp}
    transient = frozenset(comp[0] for comp, kind in zip(components, kinds) if kind is None)

    edges: dict[tuple[str, str], str] = {}  # (dst, symbol) -> src
    for comp, kind in zip(components, kinds):
        if kind is None:
            continue
        perm = comp[:]
        rng.shuffle(perm)
        for i, v in enumerate(comp):
            edges[(comp[(i + 1) % len(comp)], "a0")] = v
            edges[(perm[i], rng.choice(alphabet[1:]))] = v
    # Transients are wired last to first, so each finds a free slot after
    # it: the last block keeps one, and every wired transient has spares.
    for i in reversed(range(len(components))):
        if kinds[i] is not None:
            continue
        t = components[i][0]
        before = [v for c in components[:i] for v in c if v not in transient]
        after = [(v, s) for c in components[i + 1 :] for v in c for s in alphabet if (v, s) not in edges]
        edges[(t, rng.choice(alphabet))] = rng.choice(before)
        dst, s = rng.choice(after)
        edges[(dst, s)] = t
    # sources allowed for a target in component i: block vertices of components 0..i
    allowed: list[list[str]] = []
    pool: list[str] = []
    for comp in components:
        pool = pool + [v for v in comp if v not in transient]
        allowed.append(pool)
    for dst in names:
        if dst in transient:
            continue
        for s in alphabet[1:]:
            if (dst, s) not in edges and rng.random() < extra_p:
                edges[(dst, s)] = rng.choice(allowed[comp_of[dst]])
    used = {s for _dst, s in edges}
    for s in alphabet:
        if s not in used:
            dst = rng.choice([v for v in names if v not in transient])
            edges[(dst, s)] = rng.choice(components[comp_of[dst]])

    angles: dict[str, tuple[Fraction, Fraction]] = {}
    for k, s in enumerate(alphabet):
        den = rng.choice(_DENOMINATORS)
        rational = Fraction(rng.randrange(den), den)
        coef = Fraction(0)
        if irrational and (k == 0 or rng.random() < 0.5):
            coef = rng.choice(_G_COEFFICIENTS)
        angles[s] = (rational, coef)

    edge_list = [(src, dst, s) for (dst, s), src in edges.items()]
    rng.shuffle(edge_list)
    lines = []
    if irrational:
        lines += ["[generators]", f"g = {GENERATOR_VALUE}", ""]
    lines.append("[alphabet]")
    for s in alphabet:
        expr = _angle_text(*angles[s])
        lines.append(s if expr is None else f"{s} = {expr}")
    lines += ["", "[vertices]", *names, "", "[edges]"]
    lines += [f"{src} -> {dst} : {s}" for src, dst, s in edge_list]
    lines.append("")
    return Case(
        name=name,
        vertices=tuple(names),
        alphabet=alphabet,
        angles=angles,
        edges=tuple(edge_list),
        components=tuple(tuple(c) for c in components),
        transient=transient,
        irrational=irrational,
        text="\n".join(lines),
    )


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of total into parts positive sizes."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


# Workload schedules.  Sizes, symbol counts and component counts are
# fixed so that every seed yields the same mix; the seed draws only the
# structure and the angles.  The counts place each reported percentile
# inside a group of inputs of one size: the analyze median of lattice
# among the n=14 inputs and its p75 among the n=15 ones, those of
# kgroups among the n=28 and the n=40 ones, and the simplicity median of
# scale among the reducible n=500 inputs.  Few inputs are large, because
# every pass runs each of them again: the two n >= 17 lattice inputs
# cost as much as the twelve n=14 ones.  kgroups graphs are sparse, so
# that at the seed commit the Smith form times out mostly from 48
# vertices up (about half of the n=48 inputs, most of the n=64 ones)
# and only now and then below, and the number of timeouts varies little
# between seeds.
LATTICE_SIZES = {12: 8, 13: 8, 14: 12, 15: 14, 16: 4, 17: 1, 18: 1}
KGROUPS_SIZES = {24: 14, 28: 18, 32: 2, 40: 14, 48: 1, 56: 2, 64: 3}
# vertices -> (irreducible inputs, reducible inputs, symbols)
SCALE_PLAN = {250: (2, 8, 5), 500: (1, 16, 7), 1000: (1, 4, 10)}
SCALE_SCCS = (25, 50, 100, 200)


def build(workload: str, seed: int) -> list[Case]:
    """The generated inputs of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []
    if workload == "lattice":
        # reducible, 2-6 SCCs counting transient vertices
        for n, count in LATTICE_SIZES.items():
            for i in range(count):
                sccs = 2 + i % 5
                trans = min(i % 3, sccs - 2)
                blocks = _split(rng, n - trans, sccs - trans)
                cases.append(make_case(rng, f"lattice-n{n}-{i}", blocks, trans, 3 + (i // 2) % 2, i % 2 == 0, 0.5))
    elif workload == "kgroups":
        for n, count in KGROUPS_SIZES.items():
            for i in range(count):
                cases.append(make_case(rng, f"kgroups-n{n}-{i}", [n], 0, 3 + i % 3, i % 2 == 0, 0.1))
    elif workload == "scale":
        for n, (irreducible, reducible, symbols) in SCALE_PLAN.items():
            for i in range(irreducible + reducible):
                if i < irreducible:
                    blocks, trans = [n], 0
                else:
                    trans = i % 4
                    sccs = min(SCALE_SCCS[i % len(SCALE_SCCS)], n // 5)
                    blocks = _split(rng, n - trans, sccs)
                cases.append(make_case(rng, f"scale-n{n}-{i}", blocks, trans, symbols, i % 2 == 0, 0.85))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases
