"""The repository's pytest configuration reports a failing property test and
goes on with the run.

Every warning is an error here, but Hypothesis reports a failure through
modules that warn on import; if that warning escaped the filter, pytest
would stop with an internal error, hide the falsifying example and skip
every later test.  This test runs one failing property test and one
passing test in a fresh pytest process under the repository's config.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "Falsifying example" in proc.stdout
