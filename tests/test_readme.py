"""README's code examples run as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block after heading in README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    block = section[section.index("```python\n") + len("```python\n"):]
    return block[: block.index("```")]


def test_library_use_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(python_block("## Library use"), "README.md", "exec"), namespace)
    assert namespace["report"].integrity_verified is True
    assert namespace["report"].group_results == {"CW": True}
    assert capsys.readouterr().out == namespace["trace"].final_setup.setup_part + "\n"
