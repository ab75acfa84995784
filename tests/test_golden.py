"""Golden outputs: every subcommand's `--json` output on the bundled
systems, byte for byte, `analyze --json` over the bench corpus sets by
digest, and `validate` without any analysis.

The files under tests/golden/ pin the output contract: a change to one
of them is a change to what users receive, not a test fix.  They are
named SYSTEM.RUN.json, where RUN is a key of FILE_RUNS below, or
angles.RUN.json for the runs that take an `--angles` list instead of a
file.
"""

import hashlib
import json
import os

import pytest

from conftest import bundled_systems, corpus_texts, patch_everywhere
from rotshift import cli, ideals, ktheory, verdicts
from rotshift.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# run name -> (subcommand words, options) for every bundled system
FILE_RUNS = {
    "words": (["words"], ["-k", "3"]),
    "ktheory": (["ktheory"], []),
    "ktheory-af-core": (["ktheory"], ["--af-core"]),
    "ktheory-bunce-deddens": (["ktheory"], ["--bunce-deddens"]),
    "ideals": (["ideals"], []),
    "oracle-orbit": (["oracle", "orbit"], ["--steps", "2000"]),
}
# --bunce-deddens needs a single-vertex full shift
SINGLE_VERTEX = {"fullshift2", "fullshift3", "nloop3"}
# run name -> argv for the runs that read no file
ANGLES_RUNS = {
    "analyze": ["analyze", "--angles", "0,1/2"],
    "analyze-generator": ["analyze", "--angles", "0,1*g"],
    # one vertex, one symbol: no full shift, so its section is Unknown
    "analyze-one-symbol": ["analyze", "--angles", "1/3"],
    "oracle-weyl": ["oracle", "weyl", "--angles", "0,1*g", "--n", "50", "--lmax", "4"],
}


def system_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def golden(path: str, command: str) -> str:
    return golden_file(f"{system_name(path)}.{command}.json")


def golden_file(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def file_runs():
    """(golden file name, argv) for every run on a bundled system."""
    for path in bundled_systems():
        name = system_name(path)
        for run, (command, options) in FILE_RUNS.items():
            if run == "ktheory-bunce-deddens" and name not in SINGLE_VERTEX:
                continue
            yield f"{name}.{run}.json", [*command, path, *options, "--json"]


def all_runs():
    yield from file_runs()
    for run, argv in ANGLES_RUNS.items():
        yield f"angles.{run}.json", [*argv, "--json"]


def expected_exit(output: str) -> int:
    """2 when the output is a failed validation header, else 0."""
    validation = json.loads(output).get("validation")
    return 2 if validation is not None and not validation["ok"] else 0


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN)))
def test_golden_file_is_strict_json(name):
    """No golden output holds NaN or Infinity, which json.loads accepts
    by default but JSON does not."""
    json.loads(golden_file(name), parse_constant=reject_constant)


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("path", bundled_systems(), ids=os.path.basename)
def test_report_matches_golden(capsys, path, command):
    code = main([command, path, "--json"])
    out = capsys.readouterr().out
    expected = golden(path, command)
    assert out == expected
    assert code == expected_exit(expected)


RUNS = dict(all_runs())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_subcommand_matches_golden(capsys, name):
    code = main(RUNS[name])
    out = capsys.readouterr().out
    expected = golden_file(name)
    assert out == expected
    assert code == expected_exit(expected)


def test_one_parser_serves_a_whole_session(capsys):
    """Consecutive main() calls in one process share one parser and
    still print what a fresh parser prints."""
    gm = os.path.join(os.path.dirname(__file__), "..", "systems", "goldenmean.sds")
    session = [
        ["validate", gm, "--json"],
        ["analyze", gm, "--json"],
        ["words", gm, "-k", "3", "--json"],
        ["ktheory", gm, "--json"],
        ["ideals", gm, "--json"],
        ["oracle", "weyl", "--angles", "0,1*g", "--n", "50", "--lmax", "4", "--gen", "g=0.3", "--json"],
        ["validate", gm, "--json"],
    ]
    shared = []
    for argv in session:
        shared.append((main(argv), capsys.readouterr().out))
    assert cli.build_parser() is cli.build_parser()
    for argv, (code, out) in zip(session, shared):
        cli.build_parser.cache_clear()
        assert (code, out) == (main(argv), capsys.readouterr().out), argv
    assert shared[0][1] == shared[-1][1] == golden(gm, "validate")
    assert shared[1][1] == golden(gm, "analyze")
    assert shared[2][1] == golden(gm, "words")
    assert shared[3][1] == golden(gm, "ktheory")
    assert shared[4][1] == golden(gm, "ideals")


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


# (workload, seed) -> sha256 of the `analyze --json` outputs of that
# bench/corpus.py set, concatenated in corpus order
CORPUS_DIGESTS = {
    ("lattice", 1): "1b536ab0da85491b520cf77c3fb69a9288fd96832ccc820318a7138986f47ac5",
    ("lattice", 2): "91e218a60e98721fde9af3c9e005687d637440036495f22210ac9483bba1233d",
    ("lattice", 3): "ad1c585882fc2a7677cc1048363ad85b370ebff111e296b93ac84898f333cde2",
    ("lattice", 4): "e8e611f18d4aef84f6277ef2a5c0d5370162c4d86028f60742254302fd00399c",
    ("kgroups", 1): "fe524b570c598dc7c65c770563b9744330e208f406f8e5f802ce60037837531f",
    ("kgroups", 2): "99a68a44c48ef1a05437ca4d674f55d01cb47328ff2e8691725c6c62ac8c570a",
    ("kgroups", 3): "b14947dade18eb1dceaa3dd3adecfd20d34f38ee804916acb091435eadf04518",
    ("kgroups", 4): "abf5fe0d33c7e25600f35697783beca4ec4f37df339f92afc0d16feea96a525a",
}


@pytest.mark.parametrize("workload, seed", list(CORPUS_DIGESTS))
def test_corpus_analysis_matches_its_digest(capsys, tmp_path, workload, seed):
    """The 408 corpus inputs pin the whole report, K-groups and ideal
    lattice included, on graphs of up to 64 vertices."""
    path = tmp_path / "case.sds"
    digest = hashlib.sha256()
    for text in corpus_texts(workload, seed):
        path.write_text(text, encoding="utf-8")
        code = main(["analyze", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == expected_exit(out)
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == CORPUS_DIGESTS[workload, seed]
