"""The walkthrough scripts under demos/ run clean, warnings included.

Demo 05 trains for several seconds; it is the one demo that scores a
separation with ``improvements`` and loads a model with ``load_separator``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_autodiff_basics.py", "02_codec_and_chunking.py",
         "03_hybrid_layer.py", "04_parameter_budgets.py",
         "05_train_and_separate.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_without_warnings(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
