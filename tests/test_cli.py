import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import weakref
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_hankel import (
    ExactDivisionError, TruncationError, UniPoly, cli, families, hankel, verify,
)
from catalan_hankel.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_plain(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "catalan-conv", "--k", "1", "--n-max", "5")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 1", "2: 2", "3: 5", "4: 14", "5: 42"]


def test_seq_polynomial_plain(capsys):
    code, out, _ = run_cli(capsys, "seq", "--family", "narayana-conv", "--k", "3", "--n-max", "3")
    assert code == 0
    assert out.splitlines() == [
        "0: 1",
        "1: 2 + t",
        "2: 3 + 5*t + t^2",
        "3: 4 + 14*t + 9*t^2 + t^3",
    ]


def test_seq_csv(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--family", "narayana-conv", "--k", "2", "--n-max", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,[1]"
    assert lines[2] == "1,\"[1,1]\""
    code, out, _ = run_cli(
        capsys, "seq", "--family", "narayana-conv", "--k", "3", "--n-max", "4",
        "--t-eval", "-1", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["n,value", "0,1", "1,1", "2,-1", "3,-2", "4,2"]


def test_seq_json(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--family", "catalan-conv", "--k", "2", "--n-max", "3",
        "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [
        {"n": 0, "value": 1},
        {"n": 1, "value": 2},
        {"n": 2, "value": 5},
        {"n": 3, "value": 14},
    ]


def test_seq_t_eval_collapses_to_integers(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--family", "narayana-conv", "--k", "2", "--n-max", "4",
        "--t-eval", "1",
    )
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 2", "2: 5", "3: 14", "4: 42"]


@pytest.mark.parametrize("fmt, header", [("plain", 0), ("csv", 1), ("json", 0)])
def test_seq_prints_each_row_before_computing_the_next(monkeypatch, fmt, header):
    out = io.StringIO()
    rows_written = []
    value = families.Family.value

    def spy(self, n):
        rows_written.append(len(out.getvalue().splitlines()) - header)
        return value(self, n)

    monkeypatch.setattr(families.Family, "value", spy)
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["seq", "--family", "narayana-conv", "--k", "3", "--n-max", "5", "--format", fmt]
    assert main(argv) == 0
    # value(n) finds rows 0..n-1 already written
    assert rows_written == list(range(6))
    assert len(out.getvalue().splitlines()) == 6 + header


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue().splitlines()


def _str(value):
    """The plain form of a decoded JSON value: a list is a Z[t] coefficient list."""
    return str(UniPoly(value)) if isinstance(value, list) else str(value)


@st.composite
def requests(draw):
    command = draw(st.sampled_from(["seq", "hankel", "paths", "paths --list"]))
    if command.startswith("paths"):
        # a length of the end height's parity, so that some path exists
        height = draw(st.integers(0, 4))
        length = height + 2 * draw(st.integers(0, 4))
        return command.split() + ["--length", str(length), "--height", str(height)]
    family = draw(st.sampled_from(["catalan-conv", "narayana-conv"]))
    argv = [command, "--family", family, "--k", str(draw(st.integers(1, 5)))]
    if family == "narayana-conv" and draw(st.booleans()):
        argv += ["--t-eval", str(draw(st.integers(-2, 2)))]
    if command == "seq":
        return argv + ["--n-max", str(draw(st.integers(0, 6)))]
    lo = draw(st.integers(0, 5))
    top = draw(st.integers(lo, 6))
    return argv + ["--shift", str(draw(st.integers(-3, 3))), "--sizes", f"{lo}..{top}"]


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(requests())
def test_formats_agree(argv):
    records = [json.loads(line) for line in _stdout(argv + ["--format", "json"])]
    plain = _stdout(argv)
    assert len(plain) == len(records)
    if argv[0] == "paths":
        for line, r in zip(plain, records):
            if "--list" in argv:
                assert line == f"({','.join(map(str, r['heights']))}): {_str(r['weight'])}"
            else:
                assert line == _str(r["weight"])
                assert r["count"] == UniPoly(r["weight"])(1)
        return
    assert plain == [f"{r['n']}: {_str(r['value'])}" for r in records]
    header, *rows = list(csv.reader(_stdout(argv + ["--format", "csv"])))
    assert header == ["n", "value"]
    assert [[json.loads(cell) for cell in row] for row in rows] == [
        [r["n"], r["value"]] for r in records
    ]


def test_seq_t_eval_rejected_for_integers(capsys):
    code, _, err = run_cli(
        capsys, "seq", "--family", "catalan-conv", "--k", "1", "--n-max", "2",
        "--t-eval", "1",
    )
    assert code == 2
    assert "t-eval" in err


def test_hankel_range_csv(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "catalan-conv", "--k", "4", "--shift", "-2",
        "--sizes", "0..8", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [1, 0, 0, -1, -1, 2, 2, -3, -3]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--family", "catalan-conv", "--k", "4", "--shift", "-2",
             "--sizes", "0..60", "--format", "json"),
            "6f35d99d15167aef23f1ef51ea4abd81d8049746427a2a95bf227b2b7d137c99",
        ),
        (
            ("--family", "narayana-conv", "--k", "6", "--shift", "-2",
             "--sizes", "0..20"),
            "f407c17cf7cddb51ddf9b6b54a9e3d6f0054f78ab959f621002320d98392380f",
        ),
        (
            ("--family", "catalan-conv", "--k", "4", "--shift", "-2",
             "--sizes", "0..60", "--format", "csv"),
            "3367201f1489b15c9a946e8e6e20d17d4d97d313d54f72e220a3b26f6ff5b685",
        ),
    ],
)
def test_hankel_sweep_digest(capsys, argv, digest):
    # frozen from per-size elimination; one sweep must print the same bytes
    code, out, _ = run_cli(capsys, "hankel", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("plain", "bef67bda361f8800a1bccae148f66315eaa48ea6f6b56d1c0909705108a4ad0c"),
        ("json", "04db8622f33839eb22cfa27d08a0ca1ded1cdc8033326115ab0702e8885394f3"),
    ],
)
def test_paths_list_digest(capsys, fmt, digest):
    # frozen from the listing built as a whole list; streaming prints the same bytes
    code, out, _ = run_cli(
        capsys, "paths", "--length", "14", "--height", "2", "--list", "--format", fmt
    )
    assert code == 0
    assert out.count("\n") == 1001
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("seq", "--family", "narayana-conv", "--k", "3", "--n-max", "30"),
            "f03703f41bc76c2fd2675cef4a25eb2185f1a8f0451ee96158e223b6c498a03a",
        ),
        (
            ("seq", "--family", "narayana-conv", "--k", "3", "--n-max", "30",
             "--format", "csv"),
            "a98a404dbf7be7f04e38f40f69cf289ad535962ed739e2993a0f514b76c0e179",
        ),
        (
            ("seq", "--family", "narayana-conv", "--k", "3", "--n-max", "30",
             "--format", "json"),
            "f6bd34f29f4dc2c52bccb145e2a1802c3fd7fe623e3597c972094d016e077e1c",
        ),
        (
            ("hankel", "--family", "narayana-conv", "--k", "3", "--sizes", "4", "--matrix"),
            "de53861ed6b52777b06eeb365b8b7522e1e579861240e27e1ef291f96fafb943",
        ),
        (
            ("paths", "--length", "30", "--height", "2", "--format", "json"),
            "e2820fc310dc55e5507f4c127751d42b38ebbc5d25a0990beec90c02497c5351",
        ),
        (
            ("paths", "--length", "30", "--height", "2"),
            "4997ad6194782988188367c1e0f11a01c7e19405b9dad1110bc59c9cc9472444",
        ),
    ],
)
def test_output_digest(capsys, argv, digest):
    # frozen from the per-command printers that one emitter replaced
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_hankel_range_is_tail_of_full_sweep(capsys, fmt):
    base = ("hankel", "--family", "narayana-conv", "--k", "5", "--shift", "-1",
            "--format", fmt, "--sizes")
    _, full, _ = run_cli(capsys, *base, "0..20")
    code, tail, _ = run_cli(capsys, *base, "3..20")
    assert code == 0
    full_lines, tail_lines = full.splitlines(), tail.splitlines()
    header = 1 if fmt == "csv" else 0
    assert tail_lines[:header] == full_lines[:header]
    assert tail_lines[header:] == full_lines[header + 3:]
    assert len(tail_lines) == header + 18


def test_hankel_t_eval_rejected_before_elimination(capsys, monkeypatch):
    def never(ring, seq):
        raise AssertionError("swept a matrix for a refused request")

    monkeypatch.setattr(hankel, "leading_minors", never)
    code, out, err = run_cli(
        capsys, "hankel", "--family", "catalan-conv", "--k", "3", "--sizes", "0..60",
        "--t-eval", "2",
    )
    assert (code, out) == (2, "")
    assert err == "error: --t-eval only applies to polynomial-valued output\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
)
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_hankel_prints_values_past_the_int_str_limit(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, "hankel", "--k", "1", "--shift", "7200", "--sizes", "1", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit is restored
    sys.set_int_max_str_digits(0)
    try:
        digits = str(comb(14400, 7200) // 7201)  # catalan_conv(1, 7200)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) > 4300
    assert out == (f"1: {digits}\n" if fmt == "plain" else f'{{"n":1,"value":{digits}}}\n')


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--k", "100001", "--n-max", "3"),
        ("seq", "--family", "narayana-conv", "--k", "100001", "--n-max", "3"),
        ("seq", "--n-max", "4001"),
        ("seq", "--family", "narayana-conv", "--n-max", "501"),
        ("hankel", "--shift", "200001", "--sizes", "1"),
        ("hankel", "--family", "narayana-conv", "--shift", "501", "--sizes", "1"),
        ("hankel", "--sizes", "0..251"),
        ("hankel", "--family", "narayana-conv", "--sizes", "31", "--matrix"),
        ("paths", "--length", "1001", "--height", "0"),
        ("paths", "--length", "25", "--height", "1", "--list"),
        # a range this long is never built: only its top is read
        ("hankel", "--sizes", "0..100000000"),
        pytest.param(
            ("seq", "--family", "narayana-conv", "--n-max", "500", "--t-eval", "9" * 4000),
            id="t-eval-4000-digits",
        ),
        ("hankel", "--family", "narayana-conv", "--sizes", "30", "--t-eval", str(-2**64 - 1)),
    ],
)
def test_limits_exit_two_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("started work on a request over a limit")

    for name in ("catalan_conv", "narayana_conv"):
        monkeypatch.setattr(families, name, no_work)
    monkeypatch.setattr(cli, "path_weight_sum_table", no_work)
    monkeypatch.setattr(cli, "enumerate_paths", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and " is over the " in err


@st.composite
def bounded_requests(draw):
    """(argv, past): a seq, hankel or paths request whose size options are
    each small or just past their ``cli.LIMITS`` bound, and whether any
    option is past it.  In-bound values stay small: near a limit a request
    can run for many seconds (``--shift 500`` alone takes about 20 s)."""
    command = draw(st.sampled_from(["seq", "hankel", "paths", "paths --list"]))
    past = False

    def option(group, name, small):
        nonlocal past
        if draw(st.integers(0, 5)) == 0:
            past = True
            return cli.LIMITS[group][name] + 1
        return draw(small)

    if command.startswith("paths"):
        length = option(command, "length", st.integers(-1, 8))
        argv = command.split() + ["--length", str(length)]
        argv += ["--height", str(draw(st.integers(-1, 4)))]
        return argv + ["--format", draw(st.sampled_from(["plain", "json"]))], past
    family = draw(st.sampled_from(["catalan-conv", "narayana-conv"]))
    argv = [command, "--family", family, "--k", str(option(family, "k", st.integers(0, 3)))]
    argv += ["--format", draw(st.sampled_from(cli.FORMATS))]
    t = draw(st.sampled_from([None] * 5 + ["small"] * 3 + [str(2**64 + 1), "9" * 5000]))
    if t == "small":
        argv += ["--t-eval", str(draw(st.integers(-2, 2)))]
    elif t is not None:
        past = True
        argv += ["--t-eval", draw(st.sampled_from(["", "-"])) + t]
    if command == "seq":
        return argv + ["--n-max", str(option(family, "n_max", st.integers(-1, 5)))], past
    argv += ["--shift", str(option(family, "shift", st.integers(-3, 3)))]
    lo = draw(st.integers(-1, 3))
    top = option(family, "sizes", st.integers(lo, 4))
    argv += ["--sizes", f"{lo}..{top}" if draw(st.booleans()) else str(top)]
    if draw(st.booleans()):
        argv.append("--matrix")
    return argv, past


@settings(derandomize=True, database=None, deadline=None)
@given(bounded_requests())
def test_exit_codes_are_never_internal(drawn):
    argv, past = drawn

    def no_work(*args):
        raise AssertionError("started work on a request over a limit")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if past:
            for name in ("catalan_conv", "narayana_conv"):
                mp.setattr(families, name, no_work)
            mp.setattr(cli, "path_weight_sum_table", no_work)
            mp.setattr(cli, "enumerate_paths", no_work)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if past:
        assert (code, out.getvalue()) == (2, ""), (argv, err.getvalue())


def test_limit_message_and_requests_at_the_limits(capsys):
    code, _, err = run_cli(capsys, "seq", "--family", "narayana-conv", "--n-max", "501")
    assert (code, err) == (2, "error: --n-max 501 is over the narayana-conv limit 500\n")
    # the --t-eval message names the limit, not T's digits
    code, _, err = run_cli(capsys, "seq", "--family", "narayana-conv", "--n-max", "0",
                           "--t-eval", str(2**64 + 1))
    assert (code, err) == (
        2, f"error: --t-eval |T| is over the narayana-conv limit {2**64}\n"
    )
    for argv in (
        ("seq", "--family", "narayana-conv", "--k", "100000", "--n-max", "0"),
        ("hankel", "--shift", "200000", "--sizes", "0"),
        ("hankel", "--shift", "-3000000", "--sizes", "3"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv
    for t in (2**64, -2**64):
        code, out, _ = run_cli(
            capsys, "seq", "--family", "narayana-conv", "--n-max", "2", "--t-eval", str(t),
        )
        assert (code, out.splitlines()) == (0, ["0: 1", "1: 1", f"2: {1 + t}"])
    code, out, _ = run_cli(
        capsys, "paths", "--length", "1000", "--height", "0", "--format", "json"
    )
    assert code == 0 and json.loads(out)["count"] == comb(1000, 500) // 501
    k = 100000
    code, out, _ = run_cli(
        capsys, "seq", "--family", "narayana-conv", "--k", str(k), "--n-max", "20",
        "--t-eval", "1",
    )
    assert code == 0
    assert out.splitlines() == [
        f"{n}: {k * comb(2 * n + k - 1, n) // (n + k)}" for n in range(21)
    ]


def test_hankel_single_size(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "narayana-conv", "--k", "4", "--sizes", "4",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"n": 4, "value": [0, 0, 0, 0, 1, 0, 1, 0, 1]}


def test_sizes_option_prefixes(capsys):
    # argparse maps an unambiguous prefix of --sizes to it.
    outs = [
        run_cli(capsys, "hankel", "--family", "catalan-conv", "--k", "4", "--shift", "-2",
                option, "3..5")
        for option in ("--sizes", "--size", "--siz")
    ]
    assert outs[0] == (0, "3: -1\n4: -1\n5: 2\n", "")
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_hankel_matrix_output(capsys):
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "catalan-conv", "--k", "2", "--sizes", "3",
        "--matrix",
    )
    assert code == 0
    assert json.loads(out) == {"n": 3, "rows": [[1, 2, 5], [2, 5, 14], [5, 14, 42]]}
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "narayana-conv", "--k", "3", "--sizes", "3",
        "--matrix",
    )
    assert code == 0
    assert out == (
        '{"n":3,"rows":[[[1],[2,1],[3,5,1]],[[2,1],[3,5,1],[4,14,9,1]],'
        '[[3,5,1],[4,14,9,1],[5,30,40,14,1]]]}\n'
    )
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "narayana-conv", "--k", "3", "--shift", "-1",
        "--sizes", "3", "--matrix", "--t-eval", "2",
    )
    assert (code, out) == (0, '{"n":3,"rows":[[0,1,4],[1,4,17],[4,17,76]]}\n')
    code, out, _ = run_cli(
        capsys, "hankel", "--family", "narayana-conv", "--k", "3", "--sizes", "0",
        "--matrix", "--t-eval", "2",
    )
    assert (code, out) == (0, '{"n":0,"rows":[]}\n')
    # An integer family refuses --t-eval at every size, the empty matrix too.
    for size in ("3", "0"):
        code, out, err = run_cli(
            capsys, "hankel", "--family", "catalan-conv", "--k", "2", "--sizes", size,
            "--matrix", "--t-eval", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: --t-eval only applies to polynomial-valued output\n"


def test_hankel_matrix_refuses_csv(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("read an entry for a refused request")

    for name in ("catalan_conv", "narayana_conv"):
        monkeypatch.setattr(families, name, no_work)
    for family in ("catalan-conv", "narayana-conv"):
        code, out, err = run_cli(
            capsys, "hankel", "--family", family, "--sizes", "3", "--matrix",
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == "error: --matrix prints JSON and takes no --format csv\n"


def test_hankel_bad_range(capsys):
    for sizes, message in (
        ("5..2", "empty size range '5..2'"),
        ("3..", "--sizes '3..' is not a size N or a range A..B"),
        ("abc", "--sizes 'abc' is not a size N or a range A..B"),
    ):
        code, out, err = run_cli(
            capsys, "hankel", "--family", "catalan-conv", "--k", "1", "--sizes", sizes,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_suite_pass(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "thm4")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["status"] == "pass" for r in reports)
    assert {"check", "params", "status", "lhs", "rhs"} == set(reports[0])
    assert "0 failed" in err


def test_verify_all_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 1000
    assert all(json.loads(line)["status"] == "pass" for line in lines)


def test_paths_list(capsys):
    code, out, _ = run_cli(capsys, "paths", "--length", "6", "--height", "0", "--list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert "(1,0,1,0,1,0): 1" in lines
    assert "(1,2,1,2,1,0): t^2" in lines


def test_paths_weight_json(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--length", "4", "--height", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "length": 4,
        "height": 2,
        "count": 3,
        "weight": [2, 1],
    }


def test_paths_list_limit(capsys):
    code, out, err = run_cli(capsys, "paths", "--list", "--length", "25", "--height", "1")
    assert (code, out) == (2, "")
    assert err == "error: --length 25 is over the paths --list limit 24\n"
    code, out, _ = run_cli(capsys, "paths", "--list", "--length", "24", "--height", "24")
    assert (code, out) == (0, "(" + ",".join(map(str, range(1, 25))) + "): 1\n")
    code, out, _ = run_cli(
        capsys, "paths", "--length", "6", "--height", "0", "--list", "--cap", "6"
    )
    assert (code, out) == (2, "")
    # the limit bounds the listing only; the aggregate is a closed form, and
    # paths to (25, 1) are the Dyck paths of length 26 less their last step
    code, out, _ = run_cli(
        capsys, "paths", "--length", "25", "--height", "1", "--format", "json"
    )
    narayana_13 = [comb(13, j) * comb(13, j + 1) // 13 for j in range(13)]
    assert (code, json.loads(out)["weight"]) == (0, narayana_13)


@pytest.mark.parametrize(
    "bad, message",
    [
        (("--length", "-1", "--height", "0"), "error: path length -1 must be >= 0\n"),
        (("--length", "2", "--height", "-1"), "error: end height -1 must be >= 0\n"),
    ],
)
def test_paths_bad_argument_same_message_in_both_forms(capsys, bad, message):
    for listing in ((), ("--list",)):
        code, out, err = run_cli(capsys, "paths", *listing, *bad)
        assert (code, out, err) == (2, "", message)


def test_paths_aggregate_has_no_cap(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "--length", "30", "--height", "0", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)
    assert row["count"] == 9694845  # catalan_conv(1, 15)
    assert row["weight"][:3] == [1, 105, 3185]
    code, out, _ = run_cli(capsys, "paths", "--length", "31", "--height", "0")
    assert (code, out) == (0, "0\n")


def test_usage_errors_exit_two(capsys):
    assert main(["seq", "--family", "bogus", "--n-max", "2"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_negative_n_max_exits_two(capsys):
    code, out, err = run_cli(capsys, "seq", "--k", "2", "--n-max", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "n-max" in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_ends_quietly():
    # like `catalan-hankel paths --list ... | head -1`: the reader leaves after
    # one line, and the next write ends the process by SIGPIPE, not exit 3
    src = Path(cli.__file__).resolve().parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "catalan_hankel.cli",
         "paths", "--list", "--length", "20", "--height", "0"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert first.startswith(b"(1,2,")
    assert (proc.returncode, err) == (-signal.SIGPIPE, b"")


def test_unexpected_error_exits_three(capsys, monkeypatch):
    # an inexact division or a read past a series' order is a library fault,
    # not a usage error, so it must not pass as exit 2
    for fault in (RuntimeError, ExactDivisionError, TruncationError):
        def crash(name, seed):
            raise fault("boom")

        monkeypatch.setattr(cli, "run_suite", crash)
        code, out, err = run_cli(capsys, "verify", "--suite", "thm1")
        assert (code, out) == (3, ""), fault
        assert err == f"error: internal {fault.__name__}: boom\n"


def test_verify_prints_each_suite_before_the_next_runs(capsys, monkeypatch):
    # a crash in the last suite comes after the other seven suites' lines
    # (1294 checks less prop1's 163) are out, and no summary follows them
    def crash(seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.SUITES, "prop1", crash)
    code, out, err = run_cli(capsys, "verify")
    assert code == 3
    assert len(out.splitlines()) == 1131
    assert err == "error: internal RuntimeError: boom\n"


def test_verify_holds_one_suite_at_a_time(capsys, monkeypatch):
    # by the time the last suite runs, no report of the first is alive
    lemma, prop1 = verify.SUITES["lemma"], verify.SUITES["prop1"]
    refs, alive = [], []

    def tracked_lemma(seed):
        reports = lemma(seed=seed)
        refs.extend(weakref.ref(r) for r in reports)
        return reports

    def counting_prop1(seed):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        return prop1(seed=seed)

    monkeypatch.setitem(verify.SUITES, "lemma", tracked_lemma)
    monkeypatch.setitem(verify.SUITES, "prop1", counting_prop1)
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0
    assert refs and alive == [0]


def test_large_power_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "--family", "narayana-conv", "--k", "5000", "--n-max", "3",
        "--t-eval", "1",
    )
    assert code == 0
    assert out.splitlines() == [
        f"{n}: {5000 * comb(2 * n + 4999, n) // (n + 5000)}" for n in range(4)
    ]


@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param(
            (), "267b50b37d71be7fbd9c80e505f66c3a1f8b69cf9a33fccd1a473871dd87a4ab",
            id="default",
        ),
        # a suite that drops its seed falls back to the default and shows here
        pytest.param(
            ("--seed", "99"),
            "a67fe3e9577aa45ace99627e96fbb5fd3bfd704c2d238b08a7207652694158bc",
            id="seed-99",
        ),
    ],
)
def test_verify_default_stream_digest(capsys, argv, digest):
    # the default NDJSON stream is a contract: parsers and golden files read it
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert out.count("\n") == 1294
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_import_loads_no_typing_or_dataclasses():
    # every request starts a fresh process, so what the import pulls in is
    # paid per request; -S keeps site's .pth files from importing their own
    src = Path(cli.__file__).resolve().parent.parent
    probe = (
        "import sys, catalan_hankel.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
