"""Module boundaries inside the package, read from the source.

No module imports a private (``_``-prefixed) name from a sibling module,
and the store, which only holds bytes under keys, imports no module of
the package but the errors it raises.  Every module under
``src/fusionproof`` is parsed, not imported, so an import inside a
function counts as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fusionproof"
SOURCES = sorted(PACKAGE.glob("*.py"))


def package_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every import from the package in source; name is
    "" when the module itself is imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                (alias.name.partition(".")[2], "")
                for alias in node.names
                if alias.name.startswith("fusionproof.")
            ]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "fusionproof":
                    continue
                module = module.partition(".")[2]
            if module:
                found += [(module, alias.name) for alias in node.names]
            else:
                found += [(alias.name, "") for alias in node.names]
    return found


def test_every_import_form_is_seen():
    source = (
        "from .proofs import _join, group_key\n"
        "from . import workload\n"
        "import fusionproof.handler\n"
        "from fusionproof.store import _validate_key\n"
        "def f():\n"
        "    from .cli import main\n"
        "import json\n"
        "from typing import Optional\n"
    )
    assert sorted(package_imports(source)) == [
        ("cli", "main"),
        ("handler", ""),
        ("proofs", "_join"),
        ("proofs", "group_key"),
        ("store", "_validate_key"),
        ("workload", ""),
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    imports = package_imports(path.read_text(encoding="utf-8"))
    private = [f"{module}.{name}" for module, name in imports if name.startswith("_")]
    assert private == [], f"{path.name} imports private names: {private}"


def test_store_imports_only_errors():
    imports = package_imports((PACKAGE / "store.py").read_text(encoding="utf-8"))
    assert {module for module, _ in imports} <= {"errors"}
