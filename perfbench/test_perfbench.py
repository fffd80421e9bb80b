"""Fast checks of the benchmark harness.  Run: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json

import run
from check import VERIFY_REPORTS, Checker
from workloads import CATALAN, GENERATORS, NARAYANA, Request, requests_for

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = [Request("hankel", NARAYANA, 3, -1, 0, 4)]


def _spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_seeds_give_lists_of_one_shape():
    assert sorted(GENERATORS) == sorted(w["name"] for w in SPEC["workloads"])
    for name in GENERATORS:
        lists = [requests_for(name, seed) for seed in range(1, 6)]
        assert requests_for(name, 1) == lists[0]
        shapes = {tuple(sorted(r.size_class() for r in reqs)) for reqs in lists}
        assert len(shapes) == 1, name
        assert len({tuple(reqs) for reqs in lists}) > 1, name


def test_wrong_value_counts_as_failure():
    checker = Checker()
    req = Request("seq", NARAYANA, 3, 0, 0, 6)
    good = run.run_request(run.ROOT, req.argv())
    rows = [json.loads(line) for line in good["stdout"].splitlines()]
    rows[4]["value"][0] += 1
    bad = dict(good, stdout="".join(json.dumps(r) + "\n" for r in rows))
    passes = []
    for res in (good, bad):
        p = run.new_pass(len(passes), traced=False)
        run.score_request(p, req, res, checker)
        passes.append(p)
    assert [p["failed"] for p in passes] == [0, 1]
    assert run.end_to_end(passes)["ok_frac"] == 0.5


def test_wrong_determinant_fails_over_both_rings():
    checker = Checker()
    for req in (Request("hankel", CATALAN, 4, -2, 0, 5), Request("hankel", NARAYANA, 2, 0, 3, 3)):
        res = run.run_request(run.ROOT, req.argv())
        assert checker.failures(req, res["exit"], res["stdout"]) == (1, 0)
        rows = [json.loads(line) for line in res["stdout"].splitlines()]
        value = rows[-1]["value"]
        rows[-1]["value"] = value + 1 if isinstance(value, int) else [value[0] + 1] + value[1:]
        tampered = "".join(json.dumps(r) + "\n" for r in rows)
        assert checker.failures(req, res["exit"], tampered) == (1, 1)


def test_verify_reports_count_one_operation_each():
    checker = Checker()
    req = Request("verify", seed=1)
    line = json.dumps({"check": "x", "status": "pass"}) + "\n"
    fail = json.dumps({"check": "x", "status": "fail"}) + "\n"
    assert checker.failures(req, 0, line * VERIFY_REPORTS) == (VERIFY_REPORTS, 0)
    assert checker.failures(req, 1, fail + line * (VERIFY_REPORTS - 1)) == (VERIFY_REPORTS, 1)
    assert checker.failures(req, 0, fail + line * (VERIFY_REPORTS - 1)) == (VERIFY_REPORTS, VERIFY_REPORTS)
    assert checker.failures(req, 0, line * (VERIFY_REPORTS - 1)) == (VERIFY_REPORTS, VERIFY_REPORTS)


def test_smoke_emits_every_metric_with_its_unit():
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        out = run.measure(run.ROOT, TINY, 0.0, trace)
        result = out["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == _spec_units(section)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert out["spans"] and all(len(s) == 5 for s in out["spans"])
