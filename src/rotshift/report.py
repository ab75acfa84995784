"""Assembly of the full analysis report.

The report is a plain dict with a stable key order so that JSON output
is deterministic byte for byte (modulo the version field):

    version, input_digest, validation, condition_I, irreducible,
    irrational_cycle, g_minimal, simple_O, purely_infinite_O,
    fullshift { F_simple, uniformly_distributed }, k_theory, ideals,
    warnings

validation_report builds the first three keys, which are all that
`rotshift validate` emits; analyze_document extends them.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .errors import CapExceeded, GraphValidationError
from .fileformat import SystemDocument
from .graph import LabeledGraph

__all__ = ["analyze_document", "input_digest", "validation_report"]


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def validation_report(doc: SystemDocument, source_text: str) -> tuple[dict, LabeledGraph | None]:
    """Build the report header: version, input_digest (the sha256 of
    source_text, the input as read), validation.

    Returns (header, graph).  graph is None when graph validation
    failed; the validation section then carries the defect's witness.
    Size caps raise CapExceeded.
    """
    report: dict = {"version": __version__, "input_digest": input_digest(source_text)}
    try:
        graph = doc.graph()
    except GraphValidationError as exc:
        report["validation"] = {"ok": False, **exc.witness()}
        return report, None
    report["validation"] = {
        "ok": True,
        "vertices": list(graph.vertices),
        "alphabet": list(graph.alphabet),
        "edge_count": len(graph.edges),
    }
    return report, graph


def analyze_document(doc: SystemDocument, source_text: str) -> tuple[dict, bool]:
    """Build the full report; returns (report, ok).

    ok is False when graph validation failed, in which case only the
    validation section carries content.  The verdict, K-theory and
    ideal modules are imported here, so validation alone loads none.
    """
    from .ideals import enumerate_invariant_saturated, hasse_edges
    from .ktheory import graph_k_groups, k_theory_json
    from .verdicts import (
        condition_I,
        crossed_product_simplicity,
        fullshift_of_graph,
        graph_minimality,
        irrational_cycle,
        is_irreducible,
        kept,
        pure_infiniteness,
    )

    report, graph = validation_report(doc, source_text)
    warnings: list[str] = []
    if graph is None:
        report["warnings"] = warnings
        return report, False

    angles = doc.angles
    report["condition_I"] = kept(graph, condition_I).to_json()
    report["irreducible"] = kept(graph, is_irreducible).to_json()
    report["irrational_cycle"] = kept(graph, irrational_cycle, angles).to_json()
    report["g_minimal"] = kept(graph, graph_minimality, angles).to_json()
    report["simple_O"] = crossed_product_simplicity(graph, angles).to_json()
    report["purely_infinite_O"] = pure_infiniteness(graph, angles).to_json()

    core, uniform = fullshift_of_graph(graph, angles)
    report["fullshift"] = {"F_simple": core.to_json(), "uniformly_distributed": uniform.to_json()}

    report["k_theory"] = k_theory_json(graph_k_groups(graph))

    try:
        subsets = enumerate_invariant_saturated(graph)
        report["ideals"] = {
            "invariant_saturated": [graph.vertex_names(w) for w in subsets],
            "count": len(subsets),
            "hasse": [list(pair) for pair in hasse_edges(subsets)],
        }
    except CapExceeded as exc:
        report["ideals"] = None
        warnings.append(f"ideal lattice skipped: {exc}")

    report["warnings"] = warnings
    return report, True
