"""The package root binds every name its ``__all__`` lists."""

import pytest

import catalan_hankel
from catalan_hankel import hankel


def test_star_import_binds_every_name_in_all():
    # A stale entry in __all__ makes the star import raise.
    namespace = {}
    exec("from catalan_hankel import *", namespace)
    assert set(catalan_hankel.__all__) <= set(namespace)
    assert "family_dets" in catalan_hankel.__all__
    assert namespace["family_dets"] is hankel.family_dets


# The single-size and sweep reads per family kind that family_dets replaced.
PER_KIND_READS = [f"{kind}_{read}" for kind in ("catalan", "narayana") for read in ("det", "dets")]


@pytest.mark.parametrize("name", PER_KIND_READS)
def test_per_kind_reads_are_gone(name):
    assert name not in catalan_hankel.__all__
    for module in ("catalan_hankel", "catalan_hankel.hankel"):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})
