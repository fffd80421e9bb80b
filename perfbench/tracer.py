"""Spans around the calls into each ``catalan_hankel`` layer.

Only traced workers import this module.  ``Tracer.install`` replaces the
public entry points of every layer, wherever a module holds a reference to
them, by wrappers that time the call.  Each wrapped call becomes a span
(name, start, end, parent, request id).  The hot ring operations
(``UniPoly`` multiply and exact division, hundreds of thousands per
``verify``) are timed and counted without a span each, to keep the overhead
reportable; their time still counts as child time of the enclosing span.

A layer's self time is the time of its spans minus the time of their child
spans and ring operations, so the ``self_s`` of all layers add up to the
request time.  Inclusive times count only the outermost call of a name.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from catalan_hankel import cli, families, hankel, paths, report, verify
from catalan_hankel.polyring import UniPoly
from catalan_hankel.series import Series

LAYERS = ("cli", "verify", "report", "families", "series", "hankel", "polyring", "paths")


def _bits(coeffs) -> int:
    return max(map(int.bit_length, coeffs), default=0)


def cache_totals() -> tuple[int, int]:
    """(hits, misses) summed over the ``lru_cache`` functions of families."""
    caches = {id(v): v for v in vars(families).values() if hasattr(v, "cache_info")}
    hits = misses = 0
    for fn in caches.values():
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    def __init__(self, request_id: str):
        self.request_id = request_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []  # open frames: [span index, name, child seconds]
        self.self_by_name: defaultdict = defaultdict(float)
        self.incl_by_name: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.det_size_max = 0
        self.entries: set = set()
        self._cache0 = cache_totals()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, note=None):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            frame = [idx, name, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                spans[idx] = [name, start, end, parent]
                self.self_by_name[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if all(f[1] != name for f in stack):
                    self.incl_by_name[name] += dur

        return wrapper

    def ring_op(self, name: str, fn, note):
        stack = self._stack

        def wrapper(a, b):
            note(a, b)
            start = perf_counter()
            result = fn(a, b)
            dur = perf_counter() - start
            self.self_by_name[name] += dur
            if stack:
                stack[-1][2] += dur
            return result

        return wrapper

    # -- notes: counts taken at the call boundary ----------------------------

    def _note_entry(self, kind, k, n):
        self.counts["families.entry_calls"] += 1
        self.entries.add((kind, k, n))

    def _note_det(self, m):
        size = m.n
        self.counts["hankel.det_calls"] += 1
        self.counts["hankel.det_cubes"] += size ** 3
        self.det_size_max = max(self.det_size_max, size)

    def _note_mul(self, a, b):
        if isinstance(b, UniPoly):
            bc = b.coeffs
        elif isinstance(b, int):
            bc = (b,) if b else ()
        else:
            return  # not a ring operation; UniPoly.__mul__ returns NotImplemented
        self.counts["polyring.mul_calls"] += 1
        self.counts["polyring.coeff_mults"] += len(a.coeffs) * len(bc)
        self.bits_max = max(self.bits_max, _bits(a.coeffs), _bits(bc))

    def _note_div(self, a, b):
        self.counts["polyring.exact_div_calls"] += 1
        self.bits_max = max(self.bits_max, _bits(a.coeffs))

    def _counter(self, key):
        def note(*args, **kwargs):
            self.counts[key] += 1

        return note

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points, in place."""
        replace = {}  # id of the original -> its wrapper

        def wrap_fn(module, attr, name, note=None):
            orig = getattr(module, attr)
            replace[id(orig)] = self.span(name, orig, note)

        wrap_fn(cli, "main", "cli.request")
        wrap_fn(families, "narayana_conv", "families.entry", lambda k, n: self._note_entry("n", k, n))
        wrap_fn(families, "catalan_conv", "families.entry", lambda k, n: self._note_entry("c", k, n))
        wrap_fn(hankel, "hankel_matrix", "hankel.build")
        wrap_fn(hankel, "det_fraction_free", "hankel.det", self._note_det)
        wrap_fn(paths, "path_weight_sum", "paths.dfs", self._counter("paths.dfs_calls"))
        wrap_fn(paths, "enumerate_paths", "paths.dfs", self._counter("paths.dfs_calls"))
        wrap_fn(paths, "path_weight_sum_table", "paths.table")
        for suite, fn in list(verify.SUITES.items()):
            replace[id(fn)] = verify.SUITES[suite] = self.span(f"verify.{suite}", fn)

        for modname, module in list(sys.modules.items()):
            if modname == "catalan_hankel" or modname.startswith("catalan_hankel."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replace:
                        setattr(module, attr, replace[id(value)])

        series_mul = self.span("series.mul", Series.__mul__, self._counter("series.mul_calls"))
        Series.__mul__ = Series.__rmul__ = series_mul
        Series.reciprocal = self.span(
            "series.reciprocal", Series.reciprocal, self._counter("series.reciprocal_calls")
        )
        poly_mul = self.ring_op("polyring.mul", UniPoly.__mul__, self._note_mul)
        UniPoly.__mul__ = UniPoly.__rmul__ = poly_mul
        UniPoly.exact_div = self.ring_op("polyring.exact_div", UniPoly.exact_div, self._note_div)
        report.CheckReport.to_json = self.span("report.encode", report.CheckReport.to_json)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer numbers of this request, keyed by metric name."""
        incl = self.incl_by_name
        m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, secs in self.self_by_name.items():
            m[name.split(".")[0] + ".self_s"] += secs
        m["cli.request_s"] = incl["cli.request"]
        for suite in verify.SUITE_ORDER:
            m[f"verify.{suite}_s"] = incl[f"verify.{suite}"]
        m["report.encode_s"] = incl["report.encode"]
        m["families.entry_s"] = incl["families.entry"]
        m["series.mul_s"] = incl["series.mul"]
        m["hankel.build_s"] = self.self_by_name["hankel.build"]
        m["hankel.det_s"] = incl["hankel.det"]
        m["paths.dfs_s"] = incl["paths.dfs"]
        m["paths.table_s"] = incl["paths.table"]
        for key in (
            "families.entry_calls", "series.mul_calls", "series.reciprocal_calls",
            "hankel.det_calls", "hankel.det_cubes", "polyring.mul_calls",
            "polyring.exact_div_calls", "polyring.coeff_mults", "paths.dfs_calls",
        ):
            m[key] = self.counts[key]
        m["families.entry_distinct"] = len(self.entries)
        m["hankel.det_size_max"] = self.det_size_max
        m["polyring.coeff_bits_max"] = self.bits_max
        hits, misses = cache_totals()
        m["families.cache_hits"] = hits - self._cache0[0]
        m["families.cache_misses"] = misses - self._cache0[1]
        return m
