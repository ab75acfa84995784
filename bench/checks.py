"""Output checks against planted facts and independent oracles.

Each check returns a list of problems; an empty list means the output
is correct.  Certificates are re-checked on the raw edge list of the
generated case, never through the package's own verdict code.  The
one package routine used is ``oracles.integer_determinant``, the
package's independent fraction-free determinant, for the K-group
torsion order.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from corpus import Case

# K-groups are re-derived from det(I - A) up to this many vertices;
# fraction-free elimination is cubic, which is cheap here.
DET_ORACLE_MAX_VERTICES = 64
# The package enumerates ideals only up to this many vertices.
IDEAL_SCAN_MAX_VERTICES = 20

# Answers the README and the comments in systems/*.sds give for the
# bundled systems: report key path -> expected value.
BUNDLED = {
    "bad.sds": {"exit": 2, "validation.ok": False, "validation.error": "not-left-resolving"},
    "fullshift2.sds": {
        "irrational_cycle.verdict": "Yes",
        "simple_O.verdict": "Yes",
        "fullshift.F_simple.verdict": "Yes",
        "fullshift.uniformly_distributed.verdict": "Yes",
        "k_theory.K0": "0",
    },
    "fullshift3.sds": {
        "fullshift.F_simple.verdict": "No",
        "fullshift.F_simple.certificate.common_denominator": 3,
        "fullshift.uniformly_distributed.verdict": "No",
        "k_theory.K0": "Z/2",
        "k_theory.K1": "Z/2",
    },
    "goldenmean.sds": {
        "condition_I.verdict": "Yes",
        "irreducible.verdict": "Yes",
        "irrational_cycle.verdict": "Yes",
        "g_minimal.verdict": "Yes",
        "simple_O.verdict": "Yes",
        "purely_infinite_O.verdict": "Yes",
        "k_theory.K0": "0",
        "k_theory.K1": "0",
        "ideals.invariant_saturated": [[], ["v1", "v2"]],
    },
    "nloop3.sds": {"k_theory.K0": "Z/2", "k_theory.K1": "Z/2"},
    "reducible3.sds": {
        "irreducible.verdict": "No",
        "ideals.count": 3,
        "ideals.invariant_saturated": [[], ["v2", "v3"], ["v1", "v2", "v3"]],
    },
}


def _get(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return "<missing>"
        node = node[key]
    return node


def check_bundled(name: str, op: str, exit_code, output: str) -> list[str]:
    facts = BUNDLED[name]
    invalid = facts.get("exit") == 2
    if op == "simplicity":
        result = json.loads(output)
        if invalid:
            return [] if _get(result, "validation.error") == facts["validation.error"] else [
                "the validation error is not reported"
            ]
        expected = facts.get("simple_O.verdict")
        got = _get(result, "simple_O.verdict")
        if expected is not None and got != expected:
            return [f"simple_O {got}, expected {expected}"]
        return []
    problems = []
    if exit_code != facts.get("exit", 0):
        problems.append(f"exit {exit_code}, expected {facts.get('exit', 0)}")
    report = json.loads(output)
    for path, expected in facts.items():
        if path == "exit" or (op == "validate" and not path.startswith("validation")):
            continue
        got = _get(report, path)
        if got != expected:
            problems.append(f"{path} = {got!r}, expected {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# generated cases


def _closed_walk_problem(case: Case, walk) -> str | None:
    edges = set(case.edges)
    if not walk:
        return "empty walk"
    for edge in walk:
        if tuple(edge) not in edges:
            return f"edge {edge} is not in the graph"
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if a[1] != b[0]:
            return f"walk breaks between {a} and {b}"
    return None


def _walk_g_coefficient(case: Case, walk) -> Fraction:
    return sum((case.angles[e[2]][1] for e in walk), Fraction(0))


def _forward_closed(case: Case, members) -> bool:
    w = set(members)
    return all(dst in w for src, dst, _s in case.edges if src in w)


def _saturated(case: Case, members) -> bool:
    w = set(members)
    succ: dict[str, set[str]] = {v: set() for v in case.vertices}
    for src, dst, _s in case.edges:
        succ[src].add(dst)
    return all(v in w for v in case.vertices if succ[v] <= w)


def _irreducible_problems(case: Case, section: dict) -> list[str]:
    expected = "Yes" if case.irreducible else "No"
    if section["verdict"] != expected:
        return [f"irreducible {section['verdict']}, planted {len(case.components)} SCCs"]
    cert = section["certificate"]
    if expected == "Yes":
        walk = cert["covering_closed_walk"]
        problem = _closed_walk_problem(case, walk)
        if problem:
            return [f"irreducible certificate: {problem}"]
        if {e[0] for e in walk} != set(case.vertices):
            return ["irreducible certificate misses a vertex"]
        return []
    closed = cert["forward_closed"]
    if not 0 < len(closed) < len(case.vertices) or not _forward_closed(case, closed):
        return ["reducible certificate is not a proper forward-closed set"]
    return []


def _cycle_problems(case: Case, section: dict) -> list[str]:
    if case.irrational:
        if section["verdict"] != "Yes":
            return [f"irrational_cycle {section['verdict']}, planted an irrational cycle"]
        walk = section["certificate"]["cycle"]
        problem = _closed_walk_problem(case, walk)
        if problem:
            return [f"cycle certificate: {problem}"]
        if _walk_g_coefficient(case, walk) == 0:
            return ["cycle certificate has a rational angle sum"]
        return []
    if section["verdict"] != "No":
        return [f"irrational_cycle {section['verdict']} on an all-rational input"]
    q = section["certificate"]["cycle_denominator"]
    if case.angle_lcm % q:
        return [f"cycle_denominator {q} does not divide {case.angle_lcm}"]
    return []


def _composite_problems(case: Case, key: str, section: dict) -> list[str]:
    """g_minimal / simple_O / purely_infinite_O; condition (I) is planted."""
    decisive = case.irreducible and case.irrational
    if key == "purely_infinite_O":
        expected = "Yes" if decisive else "Unknown"
    else:
        expected = "Yes" if decisive else "No"
    if section["verdict"] != expected:
        return [f"{key} {section['verdict']}, expected {expected}"]
    if expected == "Yes" and key != "purely_infinite_O":
        return _cycle_problems(case, {"verdict": "Yes", "certificate": section["certificate"]})
    if expected == "No" and not case.irreducible:
        return _irreducible_problems(case, {"verdict": "No", "certificate": section["certificate"]})
    if expected == "No":
        return _cycle_problems(case, {"verdict": "No", "certificate": section["certificate"]})
    return []


def _parse_group(text: str) -> tuple[int, int]:
    """(free rank, torsion order) of a group printed like 'Z^2 + Z/3'."""
    free, torsion = 0, 1
    if text == "0":
        return free, torsion
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            torsion *= int(part[2:])
        else:
            raise ValueError(f"unreadable group {text!r}")
    return free, torsion


def _ktheory_problems(case: Case, section: dict, determinant) -> list[str]:
    if section["K0"] != section["K1"]:
        return [f"K0 {section['K0']} differs from K1 {section['K1']}"]
    if len(case.vertices) > DET_ORACLE_MAX_VERTICES:
        return []
    free, torsion = _parse_group(section["K0"])
    det = abs(determinant(case))
    if (det == 0) != (free > 0):
        return [f"K0 {section['K0']} but det(I - A) = {det}"]
    if free == 0 and torsion != det:
        return [f"torsion order {torsion} but |det(I - A)| = {det}"]
    return []


def _ideal_problems(case: Case, section) -> list[str]:
    if len(case.vertices) > IDEAL_SCAN_MAX_VERTICES:
        return [] if section is None else ["ideal lattice present above the vertex cap"]
    if section is None:
        return ["ideal lattice missing"]
    members = section["invariant_saturated"]
    if len({frozenset(m) for m in members}) != len(members):
        return ["ideal lattice lists a member twice"]
    for m in members:
        if not (_forward_closed(case, m) and _saturated(case, m)):
            return [f"ideal {m} is not forward-closed and saturated"]
    expected = case.ideal_count()
    if len(members) != expected or section["count"] != expected:
        return [f"{len(members)} ideals, planted condensation has {expected}"]
    return []


def _validation_problems(case: Case, report: dict) -> list[str]:
    problems = []
    v = report["validation"]
    if not v.get("ok") or v.get("vertices") != list(case.vertices) or v.get("edge_count") != len(case.edges):
        problems.append("validation block disagrees with the input")
    if report.get("input_digest") != hashlib.sha256(case.text.encode("utf-8")).hexdigest():
        problems.append("input_digest is not the sha256 of the file")
    return problems


def check_case(case: Case, op: str, exit_code, output: str, determinant) -> list[str]:
    """Problems with one operation's output on a generated case."""
    if op == "simplicity":
        result = json.loads(output)
        return _composite_problems(case, "simple_O", result["simple_O"]) + _composite_problems(
            case, "purely_infinite_O", result["purely_infinite_O"]
        )
    if exit_code != 0:
        return [f"{op} exit {exit_code}"]
    report = json.loads(output)
    problems = _validation_problems(case, report)
    if op == "validate":
        return problems
    if report["condition_I"]["verdict"] != "Yes":
        problems.append("condition_I is not Yes although every vertex reads two symbols")
    problems += _irreducible_problems(case, report["irreducible"])
    problems += _cycle_problems(case, report["irrational_cycle"])
    for key in ("g_minimal", "simple_O", "purely_infinite_O"):
        problems += _composite_problems(case, key, report[key])
    problems += _ktheory_problems(case, report["k_theory"], determinant)
    problems += _ideal_problems(case, report["ideals"])
    return problems
