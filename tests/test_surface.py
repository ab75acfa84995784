"""The package surface: every public top-level function and class in
src/rotshift, and every public method of a public class, either has a
caller in the package (the CLI included) or is an oracle or a
documented entry point.

A reference is any name or attribute in a module body outside the
definition of that name; imports and __all__ strings do not count.
Names are matched without their class, so a method counts as called
when any attribute of that name is read.
"""

import ast
import os

from rotshift import oracles

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "rotshift")

# module.name or module.Class.method -> why it stays without a caller in src/
ENTRY_POINTS = {
    "fileformat.parse_system_file": "README Library section",
}


def public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def definitions(trees):
    """(module.qualified name, name) of every public top-level function
    and class, and of every public method of a public class."""
    for module, tree in trees.items():
        for node in filter(public, tree.body):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield f"{module}.{node.name}.{item.name}", item.name


def references(node, enclosing=frozenset()):
    """Every name and attribute read under node, except those of a
    definition it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing |= {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from references(child, enclosing)


def uncalled_definitions() -> set[str]:
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                trees[fname[: -len(".py")]] = ast.parse(fh.read())
    referenced = {name for tree in trees.values() for name in references(tree)}
    return {qualified for qualified, name in definitions(trees) if name not in referenced}


def test_every_uncalled_definition_is_an_oracle_or_entry_point():
    uncalled = uncalled_definitions()
    oracle_names = {f"oracles.{name}" for name in oracles.__all__}
    assert uncalled - oracle_names == set(ENTRY_POINTS), (
        "a definition without a caller in src/ must be wired in, deleted, or "
        "listed here with its reason; an entry that gained a caller leaves the list"
    )
    assert all(ENTRY_POINTS.values())
