"""The runtime package imports nothing outside the standard library.

Every module under ``src/fusionproof`` is parsed, not imported, so an
import inside a function or behind a condition counts as well.  Test-only
dependencies such as hypothesis stay confined to ``tests/``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fusionproof").glob("*.py"))


def absolute_imports(tree: ast.AST) -> list[str]:
    """Top-level module of every absolute import in a parsed module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "proofs.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        name
        for name in absolute_imports(tree)
        if name != "fusionproof" and name not in sys.stdlib_module_names
    ]
    assert foreign == [], f"{path.name} imports non-stdlib modules: {foreign}"
