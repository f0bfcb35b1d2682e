"""The README's library example runs, and every exported name exists."""

import re
from pathlib import Path

import gradsense

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "False True"


def test_every_exported_name_resolves():
    missing = [name for name in gradsense.__all__ if not hasattr(gradsense, name)]
    assert missing == []
