"""Golden reports: `analyze --json` and `validate --json` on every
bundled system, byte for byte, and `validate` without any analysis.

The files under tests/golden/ pin the report contract: a change to one
of them is a change to what users receive, not a test fix.
"""

import json
import os

import pytest

from conftest import bundled_systems, patch_everywhere
from rotshift import ideals, ktheory, verdicts
from rotshift.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(path: str, command: str) -> str:
    name = os.path.splitext(os.path.basename(path))[0]
    with open(os.path.join(GOLDEN, f"{name}.{command}.json"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("path", bundled_systems(), ids=os.path.basename)
def test_report_matches_golden(capsys, path, command):
    code = main([command, path, "--json"])
    out = capsys.readouterr().out
    expected = golden(path, command)
    assert out == expected
    assert code == (0 if json.loads(expected)["validation"]["ok"] else 2)


@pytest.mark.parametrize("path", bundled_systems(), ids=os.path.basename)
def test_validate_runs_no_analysis(monkeypatch, capsys, path):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("validate must not run an analysis")

    for module, name in (
        (verdicts, "condition_I"),
        (verdicts, "is_irreducible"),
        (verdicts, "irrational_cycle"),
        (ktheory, "graph_k_groups"),
        (ideals, "enumerate_invariant_saturated"),
    ):
        patch_everywhere(monkeypatch, module, name, forbidden)
    main(["validate", path, "--json"])
    assert capsys.readouterr().out == golden(path, "validate")
