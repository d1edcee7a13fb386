"""Module boundaries inside the package, read from the source.

No module imports a private (``_``-prefixed) name from a sibling module,
and the store, which only holds bytes under keys, imports no module of
the package but the errors it raises.  Every imported name is used or
exported, and only ``workload`` spells out the record's wire schema.
Every module under ``src/fusionproof`` is parsed, not imported, so an
import inside a function counts as well.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from fusionproof.workload import RECORD_FIELDS

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


def unused_imports(source: str) -> list[str]:
    """Names source imports but neither uses nor lists in its __all__.
    An import of the form ``x as x`` is an explicit re-export."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
                if alias.asname != alias.name
            }
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_every_unused_import_is_seen():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from typing import Optional as Opt, Union\n"
        "from .proofs import group_key as group_key\n"
        "from .store import FileStore, MemoryStore\n"
        "__all__ = ['FileStore']\n"
        "def f(x: Opt[int]):\n"
        "    import hashlib\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["MemoryStore", "Union", "hashlib", "json"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Every record attribute name and wire key.  Only workload, where the
# table is, may spell one out; the group-file loaders tell a record
# element from the proof by its "traceid" key.
SCHEMA_WORDS = {word for attribute, key, _ in RECORD_FIELDS for word in (attribute, key)}
SPELLED_ELSEWHERE = {"proofs.py": {"traceid"}}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "workload.py"], ids=lambda path: path.name
)
def test_record_schema_is_spelled_only_in_workload(path):
    constants = {
        node.value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    spelled = (constants & SCHEMA_WORDS) - SPELLED_ELSEWHERE.get(path.name, set())
    assert spelled == set(), f"{path.name} spells out record fields: {sorted(spelled)}"
