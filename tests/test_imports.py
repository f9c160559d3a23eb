"""No bracekit module imports a name it never uses.

A name bound by an import counts as used when the module reads it as a
bare name or as the root of an attribute chain anywhere in its code,
annotations included.  Deliberate re-exports are listed in REEXPORTS.
"""

import ast
from pathlib import Path

import pytest

import bracekit

PACKAGE = Path(bracekit.__file__).resolve().parent

# __init__ is the public API: every name it imports is a re-export
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
# module stem -> names it imports only so that callers can import them from it
REEXPORTS = {"symbrace": {"brace_eval", "symmetrize_brace"}}


def unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence, Iterator\nx: Sequence = os")
    assert unused_imports(tree) == [(2, "Iterator")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_an_unused_name(path):
    allowed = REEXPORTS.get(path.stem, set())
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stale = [(line, name) for line, name in unused_imports(tree) if name not in allowed]
    assert not stale, f"{path.name} imports names it never uses: {stale}"
