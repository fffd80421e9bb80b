"""The paper's checks at bounds well past the acceptance suites.

Every suite of ``verify.SUITES`` runs here again with larger bounds; each
case pins the report count and the sha256 of the suite's NDJSON lines
(``to_json()`` plus a newline each) and the set of check ids of the
acceptance suite, and every report must pass.  A failing
report prints its own line, whose parameters replay it.  The whole module
takes a few seconds, so it stays outside tier-1's ``testpaths``.

Run: python -m pytest -q largetier
"""

from __future__ import annotations

import hashlib

import pytest

from catalan_hankel.verify import (
    DEFAULT_SEED,
    SUITE_ORDER,
    SUITES,
    check_corollaries,
    check_series_identities,
    cubic_rows,
    even_support_rows,
    even_support_t_rows,
    narayana_unit_rows,
    odd_support_rows,
    path_weight_reports,
    quartic_rows,
    random_duality_reports,
    structured_duality_reports,
    theorem_reports,
    unit_det_rows,
)

# suite: (reports at these bounds, count, sha256 of the NDJSON lines)
LARGE = {
    "lemma": (
        lambda: (
            random_duality_reports(count=200, seed=DEFAULT_SEED)
            + structured_duality_reports(power_max=8, shift_max=5, size_max=8)
        ),
        584,
        "ac004eb257009b7e71f3f252094be27ec8a2aaa215bda4d2bbeaeb962987cc3d",
    ),
    "thm1": (
        lambda: theorem_reports("even-conv", range(1, 13), range(11), n_max=40),
        8184,
        "7b85c491657d031f08a10524bf24eb6c1a5e4f7f079a4f4467f7702d23edae8b",
    ),
    "thm2": (
        lambda: theorem_reports("odd-conv", range(1, 13), range(11), n_max=40),
        7922,
        "34524d1fa5191bc7d731d91797a9e7e0a2e751fbdee94a6708db5ad2ecab46ac",
    ),
    "thm3": (
        lambda: theorem_reports("even-conv-t", range(1, 6), range(5), n_max=12),
        525,
        "1c1bfdcc1903e5a1c64f20d9e91f4ebf5274d093fc445a2990e0188ad340c5c5",
    ),
    "thm4": (
        lambda: theorem_reports("odd-conv-t", range(1, 6), range(1, 5), n_max=12),
        400,
        "ca3b5d8d307a1ad1a44d9cbb7c37205a0b218f377aec07353f520e1f25716596",
    ),
    "corollaries": (
        lambda: check_corollaries(
            unit_det_rows(size_max=24)
            + [row for k in range(1, 6) for row in even_support_rows(k, size_max=60)]
            + [row for k in range(1, 5) for row in odd_support_rows(k, size_max=60)]
            + [row for k in range(1, 5) for row in even_support_t_rows(k, mult_max=4)]
            + narayana_unit_rows(size_max=16) + quartic_rows(size_max=16) + cubic_rows(size_max=12)
        ),
        976,
        "ce59b0bd2921f5adca8eff587e165747794710543f19cd8129a9e364a91982a6",
    ),
    "identities": (
        lambda: check_series_identities(order=24, k_max=10, seed=DEFAULT_SEED),
        241,
        "2acc5fa0629d11878e70f8bcb20801c073d648f4cb8112a0228935f48b5cc206",
    ),
    "prop1": (
        lambda: path_weight_reports(length_max=20, height_max=8),
        274,
        "550315abe0029ac5e2c980d10eca62fd203137f3f41c949243965f427bca1f4e",
    ),
}


def test_every_suite_has_a_large_case():
    assert tuple(LARGE) == SUITE_ORDER


@pytest.mark.parametrize("suite", LARGE)
def test_suite_at_large_bounds(suite):
    build, count, digest = LARGE[suite]
    reports = build()
    # the large build runs every check id of the acceptance suite, no more
    assert {r.check for r in reports} == {r.check for r in SUITES[suite](DEFAULT_SEED)}
    lines = [(r.ok, r.to_json()) for r in reports]
    failures = [line for ok, line in lines if not ok]
    assert not failures, "\n".join(failures)
    assert len(lines) == count
    stream = "".join(line + "\n" for _, line in lines)
    assert hashlib.sha256(stream.encode()).hexdigest() == digest
