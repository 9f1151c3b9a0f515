"""The README's code examples run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python_block(section: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(section)}\n+```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert match, f"README has no python block under '## {section}'"
    return match.group(1)


def test_library_example_runs_from_the_repo_root(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(_python_block("Library example"), "README.md", "exec"), {})
    norm, sep, bound = capsys.readouterr().out.split()
    assert sep == "<=" and float(norm) <= float(bound)
