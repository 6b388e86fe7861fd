"""Smoke test: the demo scripts run to completion.

Demos 01–04 take a few seconds together. 05 runs the benchmark config and
takes minutes, so it is left out here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqrank

DEMOS = Path(__file__).resolve().parents[1] / "demos"


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
