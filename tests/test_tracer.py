"""The benchmark tracer still finds every library name it wraps.

``perfbench/`` lies outside the tier-1 test paths, so a change that deletes
or renames a wrapped name would only show there.  This test installs the
tracer in a fresh process and serves one small request through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json
from tracer import Tracer
from catalan_hankel import cli

tracer = Tracer("x")
tracer.install()
argv = ["hankel", "--family", "narayana-conv", "--k", "3", "--shift", "-1", "--sizes", "0..4"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(json.dumps({"code": code, "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_tracer_installs_and_sees_the_layers():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert {"cli.request", "hankel.build", "families.entry"} <= set(result["spans"])
