"""One benchmark worker: a fresh process that serves a single CLI request.

Run as ``python3 -s perfbench/worker.py`` with ``src`` on ``PYTHONPATH``.
Protocol, one line each way over stdin and stdout:

1. the worker imports ``catalan_hankel`` and writes ``ready``;
2. the parent writes a JSON request ``{"argv", "trace", "request_id"}``, or
   an empty line to end the worker;
3. the worker runs ``catalan_hankel.cli.main(argv)`` with its stdout captured
   (stderr goes to the parent) and writes one JSON result: exit code,
   in-worker wall and CPU seconds around the call, peak RSS, the captured
   output, the time of a fixed speed probe run just before and just after
   the call and, when traced, the spans and per-layer numbers.

Untraced workers install no wrappers: ``tracer`` is imported only on request.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from catalan_hankel import cli


def probe() -> float:
    """Seconds for a fixed pure-Python kernel shaped like the library's work.

    Small dense integer polynomials are multiplied, trimmed and stored as
    tuples in a dict.  The host changes speed by up to 1.6x over seconds to
    minutes; timing this kernel next to each request measures that speed.
    """
    polys = [
        tuple(((i * 7919 + j * 104729) % 1000003) << (i % 17) for j in range(1 + i % 9))
        for i in range(48)
    ]
    start = time.perf_counter()
    for _ in range(12):
        memo = {}
        for i, a in enumerate(polys):
            for b in polys[i : i + 8]:
                out = [0] * (len(a) + len(b) - 1)
                for x, ca in enumerate(a):
                    for y, cb in enumerate(b):
                        out[x + y] += ca * cb
                while out and out[-1] == 0:
                    out.pop()
                memo[i, len(b)] = tuple(out)
    return time.perf_counter() - start


def serve(stdin, stdout) -> None:
    stdout.write("ready\n")
    stdout.flush()
    line = stdin.readline()
    if not line.strip():
        return
    req = json.loads(line)
    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer(req["request_id"])
        tracer.install()
    probe_before = probe()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(req["argv"])
        except Exception:  # an uncaught error exits 1, as the console script does
            traceback.print_exc()
            code = 1
        cpu1, wall1 = time.process_time(), time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "probe_s": [probe_before, probe()],
        "exit": code,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "rss_kb": rss_kb,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = [span + [tracer.request_id] for span in tracer.spans]
    json.dump(result, stdout)
    stdout.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
