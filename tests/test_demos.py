"""The demo walkthroughs run to the end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", ["walkthrough_series.py",
                                  "walkthrough_bijections.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    # every check a walkthrough prints holds
    assert "False" not in proc.stdout
