"""Report assembly: key order, digests, warnings, degraded paths."""

import json
import os

import pytest

from conftest import bundled_systems, patch_everywhere, wall_clock_limit
from rotshift import verdicts
from rotshift.fileformat import parse_system
from rotshift.report import analyze_document, input_digest

SMALL = """\
[alphabet]
a
b

[vertices]
v

[edges]
v -> v : a
v -> v : b
"""


def test_digest_is_sha256_of_source():
    import hashlib

    assert input_digest("abc") == hashlib.sha256(b"abc").hexdigest()


def test_report_round_trips_through_json():
    doc = parse_system(SMALL)
    report, ok = analyze_document(doc, source_text=SMALL)
    assert ok
    assert json.loads(json.dumps(report)) == report
    assert report["input_digest"] == input_digest(SMALL)


def test_reports_for_bundled_systems_are_json_native():
    import glob
    import os

    from rotshift.fileformat import parse_system_file

    root = os.path.join(os.path.dirname(__file__), "..", "systems")
    for path in sorted(glob.glob(os.path.join(root, "*.sds"))):
        doc = parse_system_file(path)
        with open(path, "r", encoding="utf-8") as fh:
            report, _ok = analyze_document(doc, source_text=fh.read())
        assert json.loads(json.dumps(report)) == report, path


def test_fullshift_section_not_applicable_on_multi_vertex():
    text = (
        "[alphabet]\na\nb\n\n[vertices]\nv1\nv2\n\n"
        "[edges]\nv1 -> v2 : a\nv2 -> v1 : b\n"
    )
    doc = parse_system(text)
    report, ok = analyze_document(doc, source_text=text)
    assert ok
    fs = report["fullshift"]
    assert fs["F_simple"]["verdict"] == "Unknown"
    assert fs["uniformly_distributed"]["verdict"] == "Unknown"


def test_ideal_vertex_cap_degrades_to_warning():
    # 24-vertex cycle: too many vertices for subset enumeration
    n = 24
    vs = "\n".join(f"v{i}" for i in range(n))
    es = "\n".join(f"v{i} -> v{(i + 1) % n} : a" for i in range(n))
    text = f"[alphabet]\na\n\n[vertices]\n{vs}\n\n[edges]\n{es}\n"
    doc = parse_system(text)
    report, ok = analyze_document(doc, source_text=text)
    assert ok
    assert report["ideals"] is None
    assert any("ideal" in w.lower() for w in report["warnings"])


def test_ideal_count_cap_degrades_to_warning():
    # 20 disjoint loops: within the vertex cap, but 2^20 ideals
    n = 20
    vs = "\n".join(f"v{i}" for i in range(n))
    es = "\n".join(f"v{i} -> v{i} : a" for i in range(n))
    text = f"[alphabet]\na\n\n[vertices]\n{vs}\n\n[edges]\n{es}\n"
    doc = parse_system(text)
    with wall_clock_limit(2):
        report, ok = analyze_document(doc, source_text=text)
    assert ok
    assert report["ideals"] is None
    assert any("ideal count" in w for w in report["warnings"])


def test_validation_failure_reports_witness():
    text = (
        "[alphabet]\na\nb\n\n[vertices]\nv1\nv2\n\n"
        "[edges]\nv1 -> v1 : a\nv2 -> v1 : a\nv1 -> v2 : b\n"
    )
    doc = parse_system(text)
    report, ok = analyze_document(doc, source_text=text)
    assert not ok
    assert report["validation"]["ok"] is False
    assert report["validation"]["error"] == "not-left-resolving"
    assert "condition_I" not in report


# the three base decisions, and minimality, which simple_O reads too
BASE_DECISIONS = ("condition_I", "is_irreducible", "irrational_cycle", "graph_minimality")


@pytest.mark.parametrize("path", bundled_systems(), ids=os.path.basename)
def test_analysis_makes_each_base_decision_once(monkeypatch, path):
    calls = dict.fromkeys(BASE_DECISIONS, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in BASE_DECISIONS:
        patch_everywhere(monkeypatch, verdicts, name, counted(name, getattr(verdicts, name)))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _report, ok = analyze_document(parse_system(text), text)
    assert calls == dict.fromkeys(BASE_DECISIONS, 1 if ok else 0)
