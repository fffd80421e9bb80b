"""Every demo script runs to completion against the source tree, in
development mode with every warning an error, and prints exactly what it
printed when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_convolution_sequences.py": "3f0fe78b34ec09cf287441328b703736a78af7d643ba7f2ad2d542d3af9e1009",
    "02_hankel_tables.py": "ed6547fe948c81ad04f5a92ec2310dd855fc2dfd15f8985a4b020afda0fc10b8",
    "03_reciprocal_duality.py": "f2fa76753406ed88c34a481a7019e42274efc1ae52760a86350b6fc522626de5",
    "04_weighted_paths.py": "e369ecd3946c8e6d6d332139fbd90f68fd1b4715d1697fbc807d5692dd012b77",
    "05_full_verification.py": "b2c8f138fb1f00abc6f24fb5fbe3d0f30f6edabc0c04d764bb0f49d00120d47c",
}


def test_demos_exit_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert [demo.name for demo in demos] == sorted(STDOUT_SHA256)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", str(demo)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr.decode()}"
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == STDOUT_SHA256[demo.name], demo.name
