"""The catalan-hankel benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each request of the workload runs as ``catalan_hankel.cli.main(argv)`` in a
fresh single-threaded worker process, so every call starts with cold caches,
as a CLI call does.  The load is closed-loop with one client: the next
request starts when the previous one has ended, so one worker runs at a time.
A pass replays the whole request list; passes repeat until the time budget is
spent, and every time metric is the median over passes.  Every answer is
checked against values computed here without the library (``check.py``).

Times are in reference-speed seconds.  The host changes speed by up to 1.6x
for seconds to minutes at a time, more than any bound worth setting, so each
worker times a fixed probe kernel just before and just after its request,
and every time from that worker is scaled by ``PROBE_REF_S`` over the mean
probe time.  Raw seconds and probe times are printed in the pass lines.

``--trace 0`` reports the end-to-end metrics from untraced workers.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; its spans
are written to ``.bench_build/perfbench/``.

Earlier stdout lines record the environment, the exact argv of every
request (to replay a run) and each pass; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import Checker
from workloads import DEFAULT_SEED, GENERATORS, requests_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_PASSES = 3
# Probe time on an idle core of the reference machine (x86_64 Xeon, Python 3.11).
PROBE_REF_S = 0.016
REQUEST_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}
# Per-layer metrics whose pass value is the largest over requests, not the sum.
MAX_KEYS = {"hankel.det_size_max", "polyring.coeff_bits_max"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_reuse"):
        return "1"
    if name.endswith("_bits_max"):
        return "bit"
    return "count"


def _worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_request(root: Path, argv, trace: bool = False, request_id: str = "") -> dict:
    """Launch one worker, time its set-up, serve one request (or none)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=root,
        env=_worker_env(root),
        text=True,
    )
    try:
        # The worker blocks on stdin after this line, so nothing else is buffered.
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if ready != "ready\n":
            raise BenchError(f"worker did not start: {proc.communicate()[1].strip()}")
        msg = "" if argv is None else json.dumps({"argv": argv, "trace": trace, "request_id": request_id})
        out, err = proc.communicate(msg + "\n", timeout=REQUEST_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if argv is None:
        return {"setup_s": setup}
    if proc.returncode != 0:
        raise BenchError(f"worker crashed on {argv}: {err.strip()}")
    result = json.loads(out)
    result["setup_s"] = setup
    return result


def new_pass(pass_id: int, traced: bool) -> dict:
    return {"pass": pass_id, "traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "setups": [],
            "raw_wall_s": 0.0, "probes": [], "rss_kb": 0, "attempted": 0, "failed": 0,
            "layers": {}, "spans": []}


def run_pass(root: Path, reqs, checker: Checker, trace: bool, pass_id: int) -> dict:
    """Serve every request once; sum in-worker times, check every answer."""
    p = new_pass(pass_id, trace)
    for i, req in enumerate(reqs):
        res = run_request(root, req.argv(), trace, f"p{pass_id}r{i}")
        score_request(p, req, res, checker)
    return p


def score_request(p: dict, req, res: dict, checker: Checker) -> None:
    """Fold one request's result into its pass record, in reference-speed seconds."""
    attempted, failed = checker.failures(req, res["exit"], res["stdout"])
    p["attempted"] += attempted
    p["failed"] += failed
    scale = PROBE_REF_S / statistics.mean(res["probe_s"])
    p["wall_s"] += res["wall_s"] * scale
    p["cpu_s"] += res["cpu_s"] * scale
    p["setups"].append(res["setup_s"] * scale)
    p["raw_wall_s"] += res["wall_s"]
    p["probes"].extend(res["probe_s"])
    p["rss_kb"] = max(p["rss_kb"], res["rss_kb"])
    for key, value in res.get("layers", {}).items():
        if key.endswith("_s"):
            value *= scale
        old = p["layers"].get(key, 0)
        p["layers"][key] = max(old, value) if key in MAX_KEYS else old + value
    p["spans"].extend(res.get("spans", ()))


def end_to_end(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "setup_s": statistics.median(s for p in plain for s in p["setups"]),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        "ok_frac": 1 - failed / attempted,
    }


def _entry_reuse(layers: dict) -> float:
    """Distinct entries over entry calls; the base is ``families.entry_calls``."""
    calls = layers["families.entry_calls"]
    return layers["families.entry_distinct"] / calls if calls else 0.0


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    m = {name: statistics.median(p["layers"][name] for p in traced) for name in sorted(traced[0]["layers"])}
    m["families.entry_reuse"] = statistics.median(_entry_reuse(p["layers"]) for p in traced)
    m["trace_overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in passes if not p["traced"])
    )
    return m


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
    }


def measure(root: Path, reqs, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` have passed and return the result object."""
    checker = Checker()
    for req in reqs:
        checker.expected(req)  # independent expected values, before any timing
    run_request(root, None)  # warm the import path once; not measured
    passes: list[dict] = []
    spans: list = []
    deadline = perf_counter() + seconds
    while True:
        need_plain = sum(not p["traced"] for p in passes) < MIN_PASSES
        need_traced = trace and sum(p["traced"] for p in passes) < MIN_PASSES
        if not (need_plain or need_traced) and perf_counter() >= deadline:
            break
        traced = trace and (len(passes) % 2 == 1 or not need_plain)
        p = run_pass(root, reqs, checker, traced, len(passes))
        # Keep the spans of the first traced pass only: one pass shows the
        # structure, and a z-sweep pass alone has about 150k of them.
        if traced and not spans:
            spans = p["spans"]
        p["spans"] = []
        passes.append(p)
        print(json.dumps({
            "pass": p["pass"], "traced": traced, "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
            "setup_s": p["setups"], "peak_rss_mb": p["rss_kb"] / 1024,
            "raw_wall_s": p["raw_wall_s"], "probe_s": p["probes"],
            "attempted": p["attempted"], "failed": p["failed"],
        }))
    metrics = per_layer(passes) if trace else end_to_end(passes)
    units = {name: layer_unit(name) for name in metrics} if trace else END_TO_END_UNITS
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "spans": spans,
    }


def write_spans(root: Path, name: str, spans: list) -> Path:
    out = root / ".bench_build" / "perfbench" / f"spans-{name}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as f:
        f.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "catalan_hankel" / "cli.py").is_file():
        print(f"error: no catalan_hankel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reqs = requests_for(args.workload, args.seed)
    print(json.dumps({"environment": environment(ROOT, args.seed), "workload": args.workload,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps({"requests": [r.argv() for r in reqs]}))
    try:
        out = measure(ROOT, reqs, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.trace:
        path = write_spans(ROOT, f"{args.workload}-seed{args.seed}", out["spans"])
        print(json.dumps({"spans": str(path.relative_to(ROOT)), "count": len(out["spans"])}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
