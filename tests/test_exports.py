"""The package root binds every name its ``__all__`` lists."""

import pytest

import catalan_hankel
from catalan_hankel import Series, UniPoly, hankel


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


# The Hankel chain's entry points that leading_minors(ring, seq) replaced at
# the root; the benchmark tracer still times them in catalan_hankel.hankel.
ROOT_HANKEL_NAMES = ["HankelMatrix", "hankel_matrix", "det_fraction_free"]


@pytest.mark.parametrize("name", ROOT_HANKEL_NAMES)
def test_root_hankel_names_are_gone(name):
    assert name not in catalan_hankel.__all__
    assert not hasattr(catalan_hankel, name)
    with pytest.raises(ImportError):
        exec(f"from catalan_hankel import {name}", {})
    assert hasattr(hankel, name)


def test_root_exports_the_chain_entry():
    for name in ("leading_minors", "family_dets"):
        assert name in catalan_hankel.__all__
        assert getattr(catalan_hankel, name) is getattr(hankel, name)


# Names whose callers now use str(p), a ring's div, math.comb,
# catalan_conv(1, n), narayana_conv(1, n), len(reports) with
# all(r.ok for r in reports), CheckReport(check, params, lhs, rhs) and
# report.dumps.
REMOVED_ALIASES = [
    ("polyring", "render" + "_poly"),
    ("polyring", "exact_div"),
    ("polyring", "binomial"),
    ("families", "cat" + "alan"),
    ("families", "nara" + "yana"),
    ("report", "summ" + "arize"),
    ("report", "equal" + "_report"),
    ("report", "encode" + "_value"),
]


@pytest.mark.parametrize("module, name", REMOVED_ALIASES)
def test_aliases_are_gone(module, name):
    assert name not in catalan_hankel.__all__
    for source in ("catalan_hankel", f"catalan_hankel.{module}"):
        with pytest.raises(ImportError):
            exec(f"from {source} import {name}", {})


# Suite wrappers whose bounds now live in the entries of verify.SUITES.
REMOVED_SUITE_WRAPPERS = [
    f"suite_{name}" for name in ("lemma", "corollaries", "identities", "prop1")
]


@pytest.mark.parametrize("name", REMOVED_SUITE_WRAPPERS)
def test_suite_wrappers_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from catalan_hankel.verify import {name}", {})


def test_series_has_no_truncation_method_or_own_hash():
    assert not hasattr(Series, "trun" + "cated")
    # Series(ring, coeffs, order) pads and cuts; no second constructor does
    assert not hasattr(Series, "from" + "_polynomial")
    # __eq__ without __hash__: Python sets __hash__ to None, so series are
    # unhashable rather than hashed by the identity of their ring.
    assert Series.__hash__ is None


def test_polynomials_are_unhashable():
    # nothing keys a set or dict by a UniPoly, so it keeps Python's default
    # for a class with __eq__: no hash
    assert UniPoly.__hash__ is None


def test_series_has_no_subtraction():
    # nothing subtracts a series; addition and scalar multiplication remain
    for name in ("__neg__", "__sub__", "__rsub__"):
        assert not hasattr(Series, name)
