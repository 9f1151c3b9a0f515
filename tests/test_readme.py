"""The README's code examples run as written, and its command table is the
parser's."""

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


def test_command_table_lists_each_command_with_exactly_its_flags():
    from ddebound.cli import _COMMANDS
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| ([^|]*) \|", section, re.MULTILINE)
    table = {name: [] if cell.strip() == "none" else cell.strip().strip("`").split()
             for name, cell in rows}
    assert table == {name: [flag for flag, _spec in flags]
                     for name, (_run, flags) in _COMMANDS.items()}


def test_each_module_row_is_a_summary():
    # the semantics live in the docstrings, next to the code
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `ddebound\.[^\n]*", text, re.MULTILINE)
    assert len(rows) >= 10
    assert [row[:40] for row in rows if len(row) > 400] == []
