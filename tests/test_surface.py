"""The package surface: every public top-level function and class in
src/rotshift either has a caller in the package (the CLI included) or is
an oracle or a documented entry point.

A reference is any name or attribute in a module body other than the
definition's own; imports, __all__ strings and the re-exports of
rotshift/__init__.py do not count.
"""

import ast
import os

from rotshift import oracles

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "rotshift")

# module.name -> why it stays without a caller in src/
ENTRY_POINTS = {
    "fileformat.parse_system_file": "README Library section",
    "graph.full_shift_graph": "README Library section (`graph` module: full-shift graphs)",
}


def uncalled_definitions() -> set[str]:
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                trees[fname[: -len(".py")]] = ast.parse(fh.read())
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    referenced = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    referenced.add(name)
    return {f"{module}.{name}" for module, name in defined if name not in referenced}


def test_every_uncalled_definition_is_an_oracle_or_entry_point():
    uncalled = uncalled_definitions()
    oracle_names = {f"oracles.{name}" for name in oracles.__all__}
    assert uncalled - oracle_names == set(ENTRY_POINTS), (
        "a definition without a caller in src/ must be wired in, deleted, or "
        "listed here with its reason; an entry that gained a caller leaves the list"
    )
    assert all(ENTRY_POINTS.values())
