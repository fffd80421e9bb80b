"""Command line front end.

Subcommands: ``seq`` prints family values, ``hankel`` prints Hankel
determinants (or the matrix itself), ``verify`` prints NDJSON check
reports one suite at a time, as each suite finishes, ``paths`` sums or
enumerates weighted lattice paths.  Exit codes: 0 ok, 1 verification
failures, 2 usage or domain errors, 3 unexpected internal errors (reported
as one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import signal
import sys

from .families import CATALAN_CONV, FAMILY_KINDS, NARAYANA_CONV, Family
from .hankel import hankel_matrix, leading_minors
from .paths import enumerate_paths, path_weight_sum_table
from .polyring import INTEGER_RING, UniPoly
from .report import dumps
from .verify import DEFAULT_SEED, SUITE_ORDER, run_suite

FORMATS = ("plain", "csv", "json")

#: The largest accepted value of each size option, per family and for
#: ``paths`` (the sum) and ``paths --list`` (the walk, exponential in the
#: length), checked before any work starts; ``t_eval`` bounds |T| of
#: ``--t-eval``, since printed values grow with the digits of T.  The table
#: bounds each option on its own and does not bound time: ``hankel --family
#: narayana-conv --k 1 --shift 500 --sizes 3`` has only --shift at its limit
#: and runs for about half a minute (CPython 3.11, x86-64 server).  Negative
#: shifts read only zero entries and need no limit.
LIMITS = {
    CATALAN_CONV: {"k": 100_000, "n_max": 4000, "shift": 200_000, "sizes": 250},
    NARAYANA_CONV: {"k": 100_000, "n_max": 500, "shift": 500, "sizes": 30, "t_eval": 2**64},
    "paths": {"length": 1000},
    "paths --list": {"length": 24},
}


def _check_limits(group: str, **values: int) -> None:
    for name, value in values.items():
        limit = LIMITS[group][name]
        if value > limit:
            option = "--" + name.replace("_", "-")
            raise ValueError(f"{option} {value} is over the {group} limit {limit}")


def _emit(records, fmt: str, plain) -> None:
    """Print each record (a dict of raw values) before the next is computed:
    as a JSON object, as a csv row of JSON cells under an ``n,value`` header
    (``seq`` and ``hankel`` records only), or as the line ``plain(record)``."""
    if fmt == "json":
        for r in records:
            print(dumps(r))
    elif fmt == "csv":
        fields = ("n", "value")
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([dumps(r[f]) for f in fields] for r in records)
    else:
        for r in records:
            print(plain(r))


#: The plain line of a ``seq`` or ``hankel`` record; each value prints as ``str(value)``.
_plain_row = "{n}: {value}".format_map


def _entries(family: Family, t_eval):
    """(ring, value) of a ``seq`` or ``hankel`` request: the family's own,
    or with --t-eval T each entry evaluated at T, in Z.  Evaluation is a
    ring map Z[t] -> Z and commutes with determinants, so the chain over
    the evaluated entries gives the evaluated minors.  Refuses --t-eval for
    an integer family, or with |T| over its limit, before any entry is
    read; the message names the limit, not T."""
    if t_eval is None:
        return family.ring, family.value
    if family.ring is INTEGER_RING:
        raise ValueError("--t-eval only applies to polynomial-valued output")
    limit = LIMITS[family.kind]["t_eval"]
    if abs(t_eval) > limit:
        raise ValueError(f"--t-eval |T| is over the {family.kind} limit {limit}")
    return INTEGER_RING, lambda n: family.value(n)(t_eval)


def _parse_sizes(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if dots else start
    except ValueError:
        raise ValueError(f"--sizes {text!r} is not a size N or a range A..B") from None
    if stop < start:
        raise ValueError(f"empty size range {text!r}")
    return range(start, stop + 1)


def _cmd_seq(args) -> int:
    _check_limits(args.family, k=args.k, n_max=args.n_max)
    if args.n_max < 0:
        raise ValueError(f"--n-max {args.n_max} must be >= 0")
    _, value = _entries(Family(args.family, args.k), args.t_eval)
    # A generator, so each row is printed before the next is computed.
    rows = ({"n": n, "value": value(n)} for n in range(args.n_max + 1))
    _emit(rows, args.format, _plain_row)
    return 0


def _cmd_hankel(args) -> int:
    family = Family(args.family, args.k)
    sizes = _parse_sizes(args.sizes)
    _check_limits(args.family, k=args.k, shift=args.shift, sizes=sizes[-1])
    if sizes[0] < 0:
        raise ValueError("matrix sizes must be >= 0")
    if args.matrix and len(sizes) != 1:
        raise ValueError("--matrix wants exactly one size")
    if args.matrix and args.format == "csv":
        raise ValueError("--matrix prints JSON and takes no --format csv")
    ring, value = _entries(family, args.t_eval)
    m = hankel_matrix(ring, value, args.shift, sizes[-1])
    if args.matrix:
        rows = [m.seq[i : i + m.n] for i in range(m.n)]
        print(dumps({"n": m.n, "rows": rows}))
        return 0
    # The sizes are one contiguous range, read from one sweep of the largest.
    minors = leading_minors(ring, m.seq)
    rows = ({"n": size, "value": minors[size]} for size in sizes)
    _emit(rows, args.format, _plain_row)
    return 0


def _cmd_verify(args) -> int:
    total = failed = 0
    for name in SUITE_ORDER if args.suite == "all" else (args.suite,):
        for r in run_suite(name, seed=args.seed):
            print(r.to_json())
            total += 1
            failed += not r.ok
    print(
        f"{args.suite}: {total} checks, {total - failed} passed, {failed} failed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def _cmd_paths(args) -> int:
    _check_limits("paths --list" if args.list else "paths", length=args.length)
    if args.list:
        walk = enumerate_paths(args.length, args.height)
        paths = ({"heights": hs, "weight": UniPoly.monomial(odd)} for hs, odd in walk)
        _emit(paths, args.format, lambda r: f"({','.join(map(str, r['heights']))}): {r['weight']}")
        return 0
    total = path_weight_sum_table(args.length, args.height)
    record = {"length": args.length, "height": args.height, "count": total(1), "weight": total}
    _emit([record], args.format, lambda r: str(r["weight"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalan-hankel",
        description=(
            "Exact Hankel determinants of Catalan and Narayana convolution "
            "powers, and the verification suites for their identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument(
            "--family", choices=FAMILY_KINDS, default=CATALAN_CONV,
            help="integer or polynomial convolution family",
        )
        p.add_argument("--k", type=int, default=1, help="convolution power, k >= 1")
        p.add_argument(
            "--t-eval", type=int, default=None, metavar="T",
            help="evaluate polynomial values at an integer t",
        )
        p.add_argument("--format", choices=FORMATS, default="plain")

    p = sub.add_parser("seq", help="print family values for n = 0..n-max")
    add_family(p)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("hankel", help="Hankel determinants over a size range")
    add_family(p)
    p.add_argument("--shift", type=int, default=0, help="index shift, may be negative")
    p.add_argument(
        "--sizes", required=True,
        help="matrix size N, or an inclusive range A..B",
    )
    p.add_argument(
        "--matrix", action="store_true",
        help="print the matrix itself (single size, JSON) instead of its determinant",
    )
    p.set_defaults(fn=_cmd_hankel)

    p = sub.add_parser("verify", help="run a verification suite, NDJSON reports on stdout")
    p.add_argument(
        "--suite", choices=SUITE_ORDER + ("all",), default="all",
        help="thm1/thm3: even powers over Z / Z[t]; thm2/thm4: odd powers",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("paths", help="weighted non-negative up-down paths")
    p.add_argument("--length", type=int, required=True, help="number of steps")
    p.add_argument("--height", type=int, required=True, help="end height")
    p.add_argument("--list", action="store_true", help="one line per path")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(fn=_cmd_paths)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    # Exact values can have more digits than the default int-to-str limit
    # (4300 digits since Python 3.10.7), which would fail a valid request.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # Exit 1 is reserved for failed checks, so a crash gets its own code.
        print(f"error: internal {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def run() -> None:
    # A reader that closes the pipe early (``... | head``) ends the process
    # the way it ends other Unix tools, not as an internal error.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
