"""The benchmark tracer still finds every library name it wraps.

``perfbench/`` lies outside the tier-1 test paths, so a change that deletes
or renames a wrapped name would only show there.  This test installs the
tracer in a fresh process and serves six requests through it: a ``hankel``
sweep, a ``verify`` suite whose duality checks take single determinants, the
``verify`` suite that walks and tallies paths, a full ``verify`` run, a
``seq`` table and a ``paths --list`` walk.  The full run shows that the CLI's
loop over the suites still calls them through ``verify.SUITES``, which the
tracer rewrites; the last two show that the CLI reaches the library through
module names the tracer rewrites, not held references.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from catalan_hankel.verify import SUITE_ORDER

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json
from tracer import Tracer
from catalan_hankel import cli

tracer = Tracer("x")
tracer.install()
requests = [
    ["hankel", "--family", "narayana-conv", "--k", "3", "--shift", "-1", "--sizes", "0..4"],
    ["verify", "--suite", "lemma"],
    ["verify", "--suite", "prop1"],
    ["verify", "--suite", "all"],
    ["seq", "--family", "narayana-conv", "--k", "3", "--n-max", "5", "--format", "json"],
    ["paths", "--list", "--length", "8", "--height", "0"],
]
results = []
for argv in requests:
    del tracer.spans[:]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    results.append({"code": code, "spans": sorted({span[0] for span in tracer.spans})})
metrics = tracer.layer_metrics()
results.append({k: metrics[k] for k in ("hankel.det_calls", "hankel.det_size_max")})
print(json.dumps(results))
"""


def test_tracer_installs_and_sees_the_layers():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    sweep, lemma, prop1, full, seq, listing, det = json.loads(proc.stdout)
    assert sweep["code"] == 0
    assert {"cli.request", "hankel.build", "families.entry"} <= set(sweep["spans"])
    assert lemma["code"] == 0
    assert {"cli.request", "verify.lemma", "hankel.build", "hankel.det"} <= set(lemma["spans"])
    assert prop1["code"] == 0
    assert {"cli.request", "verify.prop1", "paths.dfs", "paths.table"} <= set(prop1["spans"])
    assert full["code"] == 0
    assert {f"verify.{suite}" for suite in SUITE_ORDER} <= set(full["spans"])
    assert seq["code"] == 0
    assert {"cli.request", "families.entry"} <= set(seq["spans"])
    assert listing["code"] == 0
    assert {"cli.request", "paths.dfs"} <= set(listing["spans"])
    # the det note reads the matrix size
    assert det["hankel.det_calls"] > 0 and det["hankel.det_size_max"] > 0
