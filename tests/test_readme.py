"""The README's library examples run as a doctest, so the documented API
cannot drift from the code."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 10  # the block is still there
