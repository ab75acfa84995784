"""README contract: the Library snippet and the typical command-line
session print what the README shows, and the size caps it states are
the package's constants.

Shown output lines must appear in the real output in the same order;
a shown `...` stands for lines left out.
"""

import os
import re
import shlex

import pytest

from rotshift import angles, graph, ideals, oracles, subshift
from rotshift.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")


def readme_block(marker: str) -> list[str]:
    """The indented block that follows the first line containing marker,
    dedented, with blank lines kept inside it."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line) + 1
    block: list[str] = []
    for line in lines[start:]:
        if line.startswith("    "):
            block.append(line[4:])
        elif not line.strip():
            if block:
                block.append("")
        elif block:
            break
    while block and not block[-1]:
        block.pop()
    return block


def assert_shown_in_order(shown: list[str], output: str) -> None:
    remaining = iter(output.splitlines())
    for line in shown:
        if line == "...":
            continue
        assert any(out == line for out in remaining), f"{line!r} missing or out of order in:\n{output}"


@pytest.fixture
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_library_snippet(in_repo_root, capsys):
    code = readme_block("## Library")
    assert code and code[0].startswith("from rotshift")
    exec("\n".join(code), {})
    shown = [line.split("#", 1)[1].strip() for line in code if line.startswith("print(")]
    assert shown == ["Yes", "0"]
    assert_shown_in_order(shown, capsys.readouterr().out)


def session_commands():
    """(argv, shown output lines) for each `$ rotshift` command of the
    README's typical session."""
    commands: list[tuple[list[str], list[str]]] = []
    for line in readme_block("A typical session:"):
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "rotshift"
            commands.append((argv[1:], []))
        elif line:
            commands[-1][1].append(line)
    return commands


SESSION = session_commands()


def test_session_has_commands():
    assert len(SESSION) == 3


@pytest.mark.parametrize("argv, shown", SESSION, ids=[" ".join(argv) for argv, _ in SESSION])
def test_typical_session(in_repo_root, capsys, argv, shown):
    assert main(argv) == 0
    assert_shown_in_order(shown, capsys.readouterr().out)


# README phrase around each cap value ({} marks the number) -> constant
CAPS = {
    "({} vertices,": graph.MAX_VERTICES,
    ", {} edges;": graph.MAX_EDGES,
    "; {} vertices and": ideals.MAX_IDEAL_VERTICES,
    "and {} ideals for `ideals`": ideals.MAX_IDEALS,
    "word length {},": subshift.MAX_WORD_LENGTH,
    ", {} words and": subshift.MAX_WORDS,
    "and {} scanned out-edges for `words`": subshift.MAX_WORD_SCANS,
    "; {} steps and": oracles.MAX_ORBIT_STEPS,
    "and {} grid points": oracles.MAX_ORBIT_GRID,
    "; {} terms,": oracles.MAX_WEYL_TERMS,
    "; {} declared generators": angles.MAX_GENERATORS,
    "; {} bits for": angles.MAX_ANGLE_BITS,
}


def test_readme_caps_are_the_constants():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        paragraphs = fh.read().split("\n\n")
    exit_codes = " ".join(next(p for p in paragraphs if p.startswith("Exit codes:")).split())
    for phrase, constant in CAPS.items():
        pattern = re.escape(phrase).replace(r"\{\}", r"(\d{1,3}(?: \d{3})*|\d+)")
        found = re.findall(pattern, exit_codes)
        assert len(found) == 1, (phrase, found)
        assert int(found[0].replace(" ", "")) == constant, phrase
