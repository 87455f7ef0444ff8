"""Every ``def`` and ``class`` in ``src/`` has a caller: some ``src/`` code, the
acceptance suite or README's library example names it.

A name counts when it appears as a variable, an attribute or an imported
name anywhere in those sources, the definition itself apart.  The scan is
by name only: a method whose name another definition also uses (such as
``is_zero``) passes on that other one's callers.  Dunders are called by
Python itself, so they are exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cohiggs"

# (module, qualified name): why nothing above names it
EXEMPT = {
    ("cli", "_Parser.error"): "argparse calls it to report a malformed command line",
    ("_laurent", "monomial"): "the tests derive the chart transitions with it; "
                              "ROADMAP item 2 moves the module into tests/oracles.py",
}


def _names(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, name) of every def and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def _unnamed() -> list[tuple[str, str]]:
    trees = {p.stem: ast.parse(p.read_text("utf-8")) for p in sorted(SRC.glob("*.py"))}
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    callers = [*trees.values(), ast.parse((ROOT / "tests" / "test_acceptance.py").read_text("utf-8")),
               ast.parse(example)]
    named = set().union(*map(_names, callers))
    return [(module, qualname) for module, tree in trees.items()
            for qualname, name in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in named]


def test_every_definition_has_a_caller():
    # equal both ways: an exemption whose definition is gone or now has a caller is stale
    assert sorted(_unnamed()) == sorted(EXEMPT)
