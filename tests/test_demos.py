"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_exit_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr}"
