"""Smoke test: the demo scripts run to completion, and the README's library
quick start prints what its comments say.

Demos 01–04 take a few seconds together. 05 runs the benchmark config and
takes minutes, so it is left out here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqrank

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", [
    "01_quickstart.py",
    "02_order_tractability.py",
    "03_direct_vs_single.py",
    "04_baselines_and_sql.py",
])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(cqrank.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_gives_its_commented_values(monkeypatch):
    """Each expression line of the block yields the value its comment starts with."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # the block reads demos/data
    lines, ns, shown = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
            shown.append((value, lines[stmt.lineno - 1].split("#", 1)[1].strip()))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    want = {"A": 1, "B": 2, "C": 30}
    assert [value for value, _ in shown] == [4, want, want]
    assert all(comment.startswith(repr(value)) for value, comment in shown), shown
