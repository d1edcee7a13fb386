"""Every Python file parses as the oldest Python the project supports.

The floor is read from ``requires-python`` in pyproject.toml, so the two
cannot drift.  A regex reads it, since tomllib is not in the standard
library before 3.11.  Parsing uses ``ast.parse(..., feature_version=…)``,
which rejects syntax newer than the floor even on a newer interpreter.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_REQUIRES = re.search(
    r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
    re.MULTILINE,
)
FLOOR = tuple(int(part) for part in _REQUIRES.groups()) if _REQUIRES else None
SOURCES = sorted(path for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py"))


def parse_at_floor(source: str, filename: str = "<snippet>") -> ast.Module:
    return ast.parse(source, filename=filename, feature_version=FLOOR)


def test_floor_is_read_from_pyproject():
    assert FLOOR is not None, "pyproject.toml has no requires-python = \">=X.Y\""
    assert any(path.name == "proofs.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    parse_at_floor(path.read_text(encoding="utf-8"), str(path))


@pytest.mark.parametrize(
    "since, source",
    [
        ((3, 11), "try:\n    pass\nexcept* ValueError:\n    pass\n"),
        ((3, 12), "def first[T](items: list[T]) -> T:\n    return items[0]\n"),
        ((3, 12), "type Pair = tuple[int, int]\n"),
    ],
    ids=["except_star", "pep695_function", "pep695_alias"],
)
def test_newer_syntax_is_rejected(since, source):
    if FLOOR >= since:
        pytest.skip(f"the floor {FLOOR} already allows this syntax")
    with pytest.raises(SyntaxError):
        parse_at_floor(source)
