import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normdesign
from normdesign import arith, cli, design, shells, theta
from normdesign.cli import run
from normdesign.design import FailingDegree, strength_profile
from normdesign.harmonic import BivarPoly
from normdesign.ring import InputError, norm_form, ring_data
from normdesign.shells import enumerate_shell


def test_shell_table_and_not_representable_note(capsys):
    assert run(["shell", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 points" in out
    assert "not representable" in out


def test_shell_json_matches_cache_schema(capsys):
    assert run(["shell", "3", "691", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "D": 3,
        "r": 691,
        "points": [list(p) for p in enumerate_shell(3, 691).points],
    }


def test_shell_csv(capsys):
    assert run(["shell", "1", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["x,y", "-1,0", "0,-1", "0,1", "1,0"]


def test_inadmissible_d_is_usage_error(capsys):
    assert run(["shell", "5", "10"]) == 2
    err = capsys.readouterr().err
    assert "1, 2, 3, 7, 11, 19, 43, 67, 163" in err


def test_verify_theorem_mode(capsys):
    assert run(["verify", "3", "691", "--jmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "failing j=6" in out


def test_verify_t_design_mode(capsys):
    assert run(["verify", "3", "691", "--t", "5"]) == 0
    assert run(["verify", "3", "691", "--t", "6"]) == 1
    out = capsys.readouterr().out
    assert "is NOT a 6-design" in out


def test_verify_default_degree_bound(capsys):
    # default scan reaches min(2*u_D + 1, 13)
    assert run(["verify", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "degrees 1..9" in out


def test_verify_empty_shell_is_usage_error(capsys):
    assert run(["verify", "1", "3"]) == 2
    err = capsys.readouterr().err
    assert "inert prime" in err
    # the inert prime 3 divides 3 * 10^18 once; the factorization route
    # finds the shell empty where a scan would need about 1.7 * 10^9 rows
    assert run(["verify", "1", "3000000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inert prime" in captured.err


def test_verify_json_schema(capsys):
    assert run(["verify", "3", "691", "--jmax", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "D": 3,
        "r": 691,
        "jmax": 6,
        "vanishing": [1, 2, 3, 4, 5],
        "failing": [{"j": 6, "witness": "-2409417348/1"}],
        "theorem_main_ok": True,
    }


def test_theta_with_j_and_poly(capsys):
    assert run(["theta", "1", "--j", "4", "--rmax", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["j"] == 4
    assert payload["coeffs"][2] == "-16/1"  # unnormalized R sum: u_D * a(1,4,2)

    assert run(["theta", "1", "--poly", "1", "--rmax", "5", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "r,coefficient"
    assert rows[1:] == ["0,1/1", "1,4/1", "2,4/1", "3,0/1", "4,4/1", "5,8/1"]

    assert run(["theta", "1", "--poly", "x^2-y^2", "--rmax", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta coefficients for D=1, P = x^2-y^2, weight 3"
    assert lines[1:] == ["  r=0: 0/1", "  r=1: 0/1", "  r=2: 0/1"]

    # exact integers past Python's default 4300-digit int/str limit: x^20000
    # sums to 2 * 2^20000 over the norm 4 shell and 4 + 4 * 2^20000 over norm 5
    argv = ["theta", "1", "--poly", "x^20000", "--rmax", "5", "--format", "json"]
    assert run(argv) == 0
    coeffs = json.loads(capsys.readouterr().out)["coeffs"]
    assert coeffs[:3] == ["0/1", "2/1", "4/1"]
    assert coeffs[4:] == [f"{2 * 2**20000}/1", f"{4 + 4 * 2**20000}/1"]
    assert [len(c) for c in coeffs[4:]] == [6023, 6024]
    big = "7" * 5000
    assert run(["theta", "1", "--poly", f"{big}*x^2", "--rmax", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"  r=1: {2 * int(big)}/1"


def test_theta_takes_the_origin_value_one_power_per_term(capsys):
    # the work budget charges a power of y at --rmax 1 little, but
    # theta_series always evaluates P(0, 0): a list of every power of 0 up to
    # 2*10^9 would need about 16 GB
    argv = ["theta", "1", "--poly", "y^2000000000", "--rmax", "1", "--format", "json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == ["0/1", "2/1"]


def test_theta_requires_exactly_one_polynomial_choice(capsys):
    assert run(["theta", "1", "--rmax", "5"]) == 2
    assert run(["theta", "1", "--j", "2", "--poly", "x", "--rmax", "5"]) == 2
    capsys.readouterr()


def test_hecke_command(capsys):
    assert run(["hecke", "1", "--j", "4", "--p", "5", "--alpha", "3"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert run(["hecke", "1", "--j", "4", "--p", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert any(c["identity"] == "multiplicativity" for c in payload["checks"])


def test_coprime_pairs_follow_their_rule():
    """The first 20 coprime pairs 1 < r1 < r2 by increasing r1*r2 <= 300, then r1."""
    pairs = sorted(
        (
            (r1, r2)
            for r1 in range(2, 300)
            for r2 in range(r1 + 1, 300 // r1 + 1)
            if gcd(r1, r2) == 1
        ),
        key=lambda pair: (pair[0] * pair[1], pair[0]),
    )
    assert cli.COPRIME_PAIRS == tuple(pairs[:20])


def test_hecke_usage_errors(capsys):
    assert run(["hecke", "1", "--j", "3", "--p", "5"]) == 2
    assert run(["hecke", "1", "--j", "4", "--p", "6"]) == 2
    capsys.readouterr()


def test_hecke_rejects_csv(capsys):
    assert run(["hecke", "1", "--j", "4", "--p", "5", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_quadrature_command(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x^2", "--nodes", "256"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_quadrature_json_payload_matches_the_table(capsys):
    argv = ["quadrature", "1", "1", "--poly", "x^2", "--nodes", "256"]
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"D", "r", "poly", "nodes", "average"}
    assert [payload[k] for k in ("D", "r", "poly", "nodes")] == [1, 1, "x^2", 256]
    # the last digits follow libm's sin and cos, so only a tolerance is portable
    assert payload["average"] == pytest.approx(0.5)
    assert run(argv) == 0
    assert float(capsys.readouterr().out.rsplit(": ", 1)[1]) == payload["average"]


@pytest.mark.parametrize("poly", ["-x^2", "-1/2*y^3+x"])
@pytest.mark.parametrize(
    "argv",
    [["theta", "1", "--rmax", "5"], ["quadrature", "1", "2"]],
    ids=["theta", "quadrature"],
)
def test_poly_with_a_leading_minus_takes_the_equals_form(capsys, argv, poly):
    assert run(argv + [f"--poly={poly}"]) == 0
    joined = capsys.readouterr()
    assert run(argv + ["--poly", f"0{poly}"]) == 0
    assert capsys.readouterr() == joined
    assert joined.out and not joined.err
    # argparse reads a separate value that starts with "-" as a flag
    assert run(argv + ["--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --poly: expected one argument" in captured.err


def test_quadrature_bad_poly_reports_position(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x^2+oops"]) == 2
    err = capsys.readouterr().err
    assert "position 4" in err
    assert "^" in err


def test_quadrature_rejects_csv(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x^2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_quadrature_bad_nodes(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x", "--nodes", "100"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("rmax", [10**9, 10**20])
def test_theta_rmax_bound_is_checked_before_any_work(capsys, monkeypatch, rmax):
    def no_series(*args):
        raise AssertionError("theta_series was called")

    monkeypatch.setattr(cli, "theta_series", no_series)
    assert run(["theta", "1", "--j", "4", "--rmax", str(rmax)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # 10^20 is past 64 bits, so the message names it by size
    shown = {10**9: "1000000000", 10**20: "more than 2^66"}[rmax]
    assert captured.err == f"error: --rmax must be at most 1000000, got {shown}\n"


def test_theta_rmax_at_the_bound_is_accepted(capsys, monkeypatch):
    def reached(D, poly, r_max):
        raise InputError(f"theta_series reached at r_max={r_max}")

    monkeypatch.setattr(cli, "theta_series", reached)
    assert cli.MAX_THETA_RMAX == 10**6
    assert run(["theta", "1", "--j", "4", "--rmax", str(10**6)]) == 2
    assert "theta_series reached at r_max=1000000" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3", "41"])
@pytest.mark.parametrize("flag", ["--t", "--jmax"])
def test_verify_degree_out_of_range_is_a_usage_error(capsys, monkeypatch, flag, value):
    def no_profile(*args):
        raise AssertionError("strength_profile was called")

    monkeypatch.setattr(cli, "strength_profile", no_profile)
    assert run(["verify", "1", "5", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = "at most 40" if value == "41" else "at least 1"
    assert captured.err == f"error: {flag} must be {bound}, got {value}\n"


@pytest.mark.parametrize("value", ["1", "40"])
@pytest.mark.parametrize("flag", ["--t", "--jmax"])
def test_verify_degree_in_range_is_accepted(capsys, monkeypatch, flag, value):
    def reached(D, r, j_max):
        raise InputError(f"strength_profile reached at j_max={j_max}")

    monkeypatch.setattr(cli, "strength_profile", reached)
    assert run(["verify", "1", "5", flag, value]) == 2
    assert f"reached at j_max={value}\n" in capsys.readouterr().err


# a value past 64 bits is named by the power of 2 it passes (cli._shown)
BY_SIZE = {"-" + "9" * 30: "less than -2^99"}


@pytest.mark.parametrize("rmax", ["0", "-3", "-" + "9" * 30])
@pytest.mark.parametrize("source", [["--j", "4"], ["--poly", "x^2"]])
def test_theta_rmax_below_one_is_a_usage_error(capsys, monkeypatch, source, rmax):
    def no_series(*args):
        raise AssertionError("theta_series was called")

    monkeypatch.setattr(cli, "theta_series", no_series)
    assert run(["theta", "1"] + source + ["--rmax", rmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = BY_SIZE.get(rmax, rmax)
    assert captured.err == f"error: --rmax must be at least 1, got {shown}\n"


def _no_scan(monkeypatch):
    def scan(D, r):
        raise InputError(f"scan reached at r={r}")

    monkeypatch.setattr(shells, "enumerate_shell", scan)
    monkeypatch.setattr(theta, "enumerate_shell", scan)


@pytest.mark.parametrize(
    "D,p,alpha,rows",
    [
        (1, "1000003", "3", "1001005506"),
        # the p^51 scan alone has 35 871 197 rows; the p^1..p^50 scans
        # below it bring the total past the budget
        (7, "2", "51", "122471952"),
        # the count stops at the norm that passes the limit: p^3 here, and
        # p^1 at p = 10^18 + 9; past it the norms are never formed
        pytest.param(1, "1009", "7", "1060634004", id="p1009-alpha7-stops-at-p3"),
        pytest.param(
            163, "1000000000000000009", "3", "156652090", id="p10^18+9-stops-at-p1"
        ),
        pytest.param(
            1, "1009", "1" + "0" * 5000, "1060634004", id="alpha-of-5001-digits"
        ),
    ],
)
def test_hecke_scan_budget_is_checked_before_any_scan(
    capsys, monkeypatch, D, p, alpha, rows
):
    _no_scan(monkeypatch)
    assert run(["hecke", str(D), "--j", "2", "--p", p, "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: hecke would scan at least {rows} rows for the norm p^1..p^alpha "
        f"shells at --p {p}; the limit is 10^8 rows\n"
    )


def test_hecke_budget_stops_counting_at_the_limit(capsys, monkeypatch):
    # each norm at least doubles, so no --alpha takes more than 55 norms
    calls = []

    def counting(D, r):
        calls.append(r)
        return shells.scan_rows(D, r)

    monkeypatch.setattr(cli, "scan_rows", counting)
    _no_scan(monkeypatch)
    alpha = "1" + "0" * 4999
    assert run(["hecke", "1", "--j", "4", "--p", "1009", "--alpha", alpha]) == 2
    assert "hecke would scan at least" in capsys.readouterr().err
    assert 0 < len(calls) <= 60


def test_hecke_scan_budget_counts_every_alpha_scan():
    # every norm p^k shell for k = 1..alpha is scanned, not only the top one
    def rows(D, p, alpha):
        a = -cli.ring_data(D).disc
        return sum(isqrt(4 * p**k // a) + 1 for k in range(1, alpha + 1))

    assert rows(7, 2, 50) <= cli.MAX_HECKE_ROWS < rows(7, 2, 51)
    assert rows(7, 2, 51) == 122471952
    assert rows(1, 1000003, 3) == 1001005506


@pytest.mark.parametrize(
    "D,p,alpha",
    [(7, "2", "50"), (1, "1009", "5"), (3, "1999", "3"), (1, "1000003", "1")],
)
def test_hecke_within_the_scan_budget_is_accepted(capsys, monkeypatch, D, p, alpha):
    _no_scan(monkeypatch)
    assert cli.MAX_HECKE_ROWS == 10**8
    j = str(cli.ring_data(D).unit_count)
    assert run(["hecke", str(D), "--j", j, "--p", p, "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    # alpha < 2 is a FLAG_RANGES usage error; the rest reach a scan
    assert ("--alpha must be at least 2" if alpha == "1" else "scan reached") in err


def _no_degree_work(monkeypatch):
    def work(*args):
        raise AssertionError("degree work was started")

    monkeypatch.setattr(cli, "basis_poly", work)
    monkeypatch.setattr(cli, "theta_series", work)
    monkeypatch.setattr(cli, "hecke_verify", work)
    _no_scan(monkeypatch)


ARGV_LENGTH = "9" * 100_000


@pytest.mark.parametrize(
    "j,shown",
    [
        ("1001", "got 1001"),
        ("100000", "got 100000"),
        ("1" + "0" * 30, "got more than 2^99"),
        pytest.param(ARGV_LENGTH, "got more than 2^332192", id="argv-length"),
        ("0", "got 0"),
        ("-3", "got -3"),
        ("-" + "9" * 40, "got less than -2^132"),
        (str(2**64), "got more than 2^63"),
        (str(-(2**64)), "got less than -2^63"),
    ],
)
@pytest.mark.parametrize(
    "command",
    [["theta", "1", "--rmax", "1"], ["hecke", "1", "--p", "5", "--alpha", "2"]],
)
def test_degree_budget_is_checked_before_any_work(
    capsys, monkeypatch, command, j, shown
):
    _no_degree_work(monkeypatch)
    assert run(command + ["--j", j]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bound = "at least 1" if int(j) < 1 else "at most 1000"
    assert f"error: --j must be {bound}, {shown}\n" == captured.err


@pytest.mark.parametrize(
    "command,reached",
    [
        (["theta", "1", "--rmax", "20"], "basis_poly"),
        (["hecke", "1", "--p", "5", "--alpha", "2"], "hecke_verify"),
    ],
)
def test_degree_at_the_budget_is_accepted(capsys, monkeypatch, command, reached):
    def stop(*args):
        raise InputError(f"{reached} reached")

    monkeypatch.setattr(cli, "basis_poly", stop)
    monkeypatch.setattr(cli, "hecke_verify", stop)
    assert cli.MAX_DEGREE == 1000
    assert run(command + ["--j", "1000"]) == 2
    assert f"{reached} reached" in capsys.readouterr().err


def test_poly_degree_is_not_budgeted(capsys):
    # the --j degree cap does not cover --poly; x^2000 at --rmax 1 is far
    # inside the theta work budget
    assert run(["theta", "1", "--poly", "x^2000", "--rmax", "1"]) == 0
    assert capsys.readouterr().out.endswith("  r=1: 2/1\n")


# The edge cases below come in pairs across the budget's edge: the largest
# rmax, bit length or degree accepted, and the next one up.
BITS_550, BITS_551 = str(2**550 - 1), str(2**551 - 1)
BITS_786, BITS_787 = str(2**786 - 1), str(2**787 - 1)
BITS_4409, BITS_4410 = str(2**4409 - 1), str(2**4410 - 1)


@pytest.mark.parametrize(
    "argv,shown",
    [
        # --j is checked at its expanded bit length, before any walk
        pytest.param(["1", "--j", "1000", "--rmax", "1000000"],
                     "D=1 at degree 1000, --rmax 1000000 and coefficient bit length 995",
                     id="j-1000-rmax-cap"),
        pytest.param(["1", "--j", "20", "--rmax", "1000000"],
                     "D=1 at degree 20, --rmax 1000000 and coefficient bit length 18",
                     id="j-20-rmax-cap"),
        pytest.param(["1", "--j", "1000", "--rmax", "4096"],
                     "D=1 at degree 1000, --rmax 4096 and coefficient bit length 995",
                     id="j-1000-D-1-rmax-4096"),
        pytest.param(["163", "--j", "1000", "--rmax", "14841"],
                     "D=163 at degree 1000, --rmax 14841 and coefficient bit length 2885",
                     id="j-1000-D-163-rmax-14841"),
        pytest.param(["1", "--poly", "x^20", "--rmax", "1000000"],
                     "D=1 at degree 20, --rmax 1000000 and coefficient bit length 1",
                     id="x^20-rmax-cap"),
        pytest.param(["1", "--poly", "x^1000000", "--rmax", "4"],
                     "D=1 at degree 1000000, --rmax 4 and coefficient bit length 1",
                     id="x^1000000-rmax-4"),
        # the row y = 0 is walked even where pi*rmax/sqrt(|disc|) rounds to 0
        pytest.param(["163", "--poly", "x^1000000", "--rmax", "4"],
                     "D=163 at degree 1000000, --rmax 4 and coefficient bit length 1",
                     id="x^1000000-D-163-rmax-4"),
        pytest.param(["11", "--poly", "x^1000000000", "--rmax", "1"],
                     "D=11 at degree 1000000000, --rmax 1 and coefficient bit length 1",
                     id="x^1000000000-D-11-rmax-1"),
        pytest.param(["11", "--poly", "x^1" + "0" * 30, "--rmax", "1"],
                     "D=11 at degree more than 2^99, --rmax 1 and coefficient bit length 1",
                     id="degree-past-2^99-D-11"),
        pytest.param(["1", "--poly", "x^2*y^662922", "--rmax", "5"],
                     "D=1 at degree 662924, --rmax 5 and coefficient bit length 1",
                     id="degree-662924-rmax-5"),
        pytest.param(["1", "--poly", "x^1" + "0" * 30, "--rmax", "1"],
                     "D=1 at degree more than 2^99, --rmax 1 and coefficient bit length 1",
                     id="degree-past-2^99"),
        pytest.param(["1", f"--poly={ARGV_LENGTH}*x^2", "--rmax", "1000000"],
                     "D=1 at degree 2, --rmax 1000000 and coefficient bit length 332193",
                     id="argv-length-rmax-cap"),
        pytest.param(["1", f"--poly={ARGV_LENGTH}*x^2", "--rmax", "1000"],
                     "D=1 at degree 2, --rmax 1000 and coefficient bit length 332193",
                     id="argv-length-rmax-1000"),
        pytest.param(["1", f"--poly={ARGV_LENGTH}*x^2", "--rmax", "35"],
                     "D=1 at degree 2, --rmax 35 and coefficient bit length 332193",
                     id="argv-length-rmax-35"),
        pytest.param(["1", f"--poly=x^2+1/{ARGV_LENGTH}", "--rmax", "35"],
                     "D=1 at degree 2, --rmax 35 and coefficient bit length 332193",
                     id="argv-length-denominator"),
        pytest.param(["1", f"--poly={BITS_551}*x^2", "--rmax", "1000000"],
                     "D=1 at degree 2, --rmax 1000000 and coefficient bit length 551",
                     id="551-bits-rmax-cap"),
        pytest.param(["163", f"--poly={BITS_787}*x^2", "--rmax", "1000000"],
                     "D=163 at degree 2, --rmax 1000000 and coefficient bit length 787",
                     id="787-bits-D-163-rmax-cap"),
        pytest.param(["1", f"--poly={BITS_4410}*x^1000", "--rmax", "2347"],
                     "D=1 at degree 1000, --rmax 2347 and coefficient bit length 4410",
                     id="4410-bits-degree-1000"),
    ],
)
def test_theta_work_budget_is_checked_before_any_walk(capsys, monkeypatch, argv, shown):
    def no_work(*args):
        raise AssertionError("work was started")

    monkeypatch.setattr(cli, "theta_series", no_work)
    assert run(["theta"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: theta on {shown} or more is past the work budget\n"


@pytest.mark.parametrize(
    "argv,reached",
    [
        # basis_poly reached: nothing rejects --j before it is expanded
        pytest.param(["1", "--j", "1000", "--rmax", "2347"], "basis_poly",
                     id="j-1000-rmax-2347-before-expansion"),
        pytest.param(["1", "--j", "18", "--rmax", "1000000"], "basis_poly",
                     id="j-18-rmax-cap-before-expansion"),
        pytest.param(["1", "--j", "4", "--rmax", "1000000"], "basis_poly",
                     id="j-4-rmax-cap-before-expansion"),
        # theta_series reached: the expanded or parsed polynomial passes
        pytest.param(["1", "--j", "1000", "--rmax", "2347"], "theta_series",
                     id="j-1000-D-1"),
        pytest.param(["163", "--j", "1000", "--rmax", "2347"], "theta_series",
                     id="j-1000-D-163"),
        pytest.param(["1", "--j", "1000", "--rmax", "4095"], "theta_series",
                     id="j-1000-D-1-rmax-4095"),
        pytest.param(["163", "--j", "1000", "--rmax", "14840"], "theta_series",
                     id="j-1000-D-163-rmax-14840"),
        pytest.param(["1", "--j", "4", "--rmax", "1000000"], "theta_series",
                     id="j-4-rmax-cap"),
        pytest.param(["1", "--j", "18", "--rmax", "1000000"], "theta_series",
                     id="j-18-rmax-cap"),
        pytest.param(["1", "--poly", "x^18", "--rmax", "1000000"], "theta_series",
                     id="x^18-rmax-cap"),
        # odd total degree only: theta_series walks nothing
        pytest.param(["1", "--j", "19", "--rmax", "1000000"], "theta_series",
                     id="j-19-rmax-cap"),
        pytest.param(["1", "--poly", "x^19", "--rmax", "1000000"], "theta_series",
                     id="x^19-rmax-cap"),
        pytest.param(["1", "--poly", "x^2*y^88163", "--rmax", "5"], "theta_series",
                     id="degree-88165-rmax-5"),
        pytest.param(["1", "--poly", "x^20000", "--rmax", "5"], "theta_series",
                     id="x^20000-rmax-5"),
        # a point costs one Horner step per power of x, not of y
        pytest.param(["1", "--poly", "x^2*y^88164", "--rmax", "5"], "theta_series",
                     id="degree-88166-rmax-5"),
        pytest.param(["1", "--poly", "x^2*y^662920", "--rmax", "5"], "theta_series",
                     id="degree-662922-rmax-5"),
        pytest.param(["1", f"--poly={ARGV_LENGTH}*x^2", "--rmax", "34"], "theta_series",
                     id="argv-length-rmax-34"),
        pytest.param(["1", f"--poly={BITS_550}*x^2", "--rmax", "1000000"],
                     "theta_series", id="550-bits-rmax-cap"),
        pytest.param(["163", f"--poly={BITS_786}*x^2", "--rmax", "1000000"],
                     "theta_series", id="786-bits-D-163-rmax-cap"),
        pytest.param(["1", f"--poly={BITS_4409}*x^1000", "--rmax", "2347"],
                     "theta_series", id="4409-bits-degree-1000"),
    ],
)
def test_theta_within_the_work_budget_is_accepted(capsys, monkeypatch, argv, reached):
    def stop(*args):
        raise InputError(f"{reached} reached")

    monkeypatch.setattr(cli, reached, stop)
    assert cli.MAX_THETA_WORK == 62 * 10**9
    assert run(["theta"] + argv) == 2
    assert f"{reached} reached" in capsys.readouterr().err


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    st.sampled_from(normdesign.ADMISSIBLE_D),
    st.sets(st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=6),
    st.integers(1, 400_000),
    st.integers(1, cli.MAX_THETA_RMAX - 1),
    st.integers(1, cli.MAX_THETA_RMAX),
    st.integers(1, 400_000),
)
def test_theta_work_model_never_accepts_more_at_a_larger_size(
    D, exponents, bits, rmax, more_rmax, more_bits
):
    """Rejected at (rmax, bits), rejected at (rmax + 1, bits) and (rmax, bits + 1).

    The message's "bit length N or more" and the edge pairs above read the
    budget's edge as one rmax or bit length past which nothing passes. One
    step up only shows a fault at the edge, so a drawn longer step is
    checked as well: a model that falls over a long range fails there.
    """
    first, *rest = sorted(exponents)

    def rejected(rmax: int, bits: int) -> bool:
        P = BivarPoly({first: 2 ** (bits - 1), **dict.fromkeys(rest, 1)})
        try:
            cli._check_theta_budget(D, rmax, P)
        except InputError:
            return True
        return False

    if rejected(rmax, bits):
        assert rejected(rmax + 1, bits)
        assert rejected(rmax, bits + 1)
        assert rejected(min(rmax + more_rmax, cli.MAX_THETA_RMAX), bits)
        assert rejected(rmax, bits + more_bits)


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(
            ["--rmax", "10001"], "--rmax must be at most 10000, got 10001\n",
            id="rmax-10001",
        ),
        pytest.param(
            ["--rmax", "1" + "0" * 5000], "--rmax must be at most 10000, got more",
            id="rmax-5001-digits",
        ),
        pytest.param(
            ["--jmax", "0"], "--jmax must be at least 1, got 0\n", id="jmax-0"
        ),
        pytest.param(
            ["--jmax", "41"], "--jmax must be at most 40, got 41\n", id="jmax-41"
        ),
        pytest.param(
            ["--rmax", "10", "--jmax", "-5"], "--jmax must be at least 1, got -5\n",
            id="jmax--5",
        ),
        (["--rmax", "0"], "--rmax must be at least 1, got 0\n"),
        (["--rmax", "-5"], "--rmax must be at least 1, got -5\n"),
        (
            ["--rmax", "-" + "9" * 30],
            "--rmax must be at least 1, got less than -2^99\n",
        ),
    ],
)
def test_sweep_budget_is_checked_before_any_task(capsys, monkeypatch, argv, message):
    def no_task(*args):
        raise AssertionError("a sweep task was built")

    monkeypatch.setattr(cli, "is_representable", no_task)
    monkeypatch.setattr(cli, "strength_profile", no_task)
    assert run(["sweep", "--parallel", "2"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv", [["--rmax", "10000"], ["--jmax", "1"], ["--jmax", "40"]]
)
def test_sweep_within_the_budget_is_accepted(capsys, monkeypatch, argv):
    def reached(D, r):
        raise InputError("task list reached")

    monkeypatch.setattr(cli, "is_representable", reached)
    assert cli.MAX_SWEEP_RMAX == 10**4
    assert run(["sweep"] + argv) == 2
    assert "task list reached" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", ["0", "-3", "-" + "9" * 30])
def test_sweep_parallel_below_one_is_a_usage_error(capsys, monkeypatch, parallel):
    def no_task(task):
        raise ValueError("a sweep task ran")

    def no_pool(*args, **kwargs):
        raise ValueError("a pool was started")

    monkeypatch.setattr(cli, "_sweep_task", no_task)
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    assert run(["sweep", "--rmax", "10", "--parallel", parallel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = BY_SIZE.get(parallel, parallel)
    assert captured.err == f"error: --parallel must be at least 1, got {shown}\n"


NEG = "-" + ARGV_LENGTH
MORE = "got more than 2^332192"
LESS = "got less than -2^332192"


@pytest.mark.parametrize(
    "argv,shown",
    [
        pytest.param(["sweep", "--rmax", ARGV_LENGTH], MORE, id="sweep-rmax"),
        pytest.param(["sweep", "--rmax", NEG], LESS, id="sweep-rmax-neg"),
        pytest.param(["sweep", "--jmax", ARGV_LENGTH], MORE, id="sweep-jmax"),
        pytest.param(["sweep", "--jmax", NEG], LESS, id="sweep-jmax-neg"),
        pytest.param(["sweep", "--parallel", NEG], LESS, id="sweep-parallel-neg"),
        pytest.param(
            ["theta", "1", "--j", "4", "--rmax", ARGV_LENGTH], MORE, id="theta-rmax"
        ),
        pytest.param(
            ["theta", "1", "--poly", "x^2", "--rmax", NEG], LESS, id="theta-rmax-neg"
        ),
        pytest.param(["verify", "1", "5", "--t", ARGV_LENGTH], MORE, id="verify-t"),
        pytest.param(["verify", "1", "5", "--t", NEG], LESS, id="verify-t-neg"),
        pytest.param(
            ["verify", "1", "5", "--jmax", ARGV_LENGTH], MORE, id="verify-jmax"
        ),
        pytest.param(["verify", "1", "5", "--jmax", NEG], LESS, id="verify-jmax-neg"),
        pytest.param(
            ["hecke", "1", "--j", "4", "--p", "1009", "--alpha", ARGV_LENGTH],
            "scan at least 1060634004 rows",
            id="hecke-alpha",
        ),
        pytest.param(
            ["hecke", "1", "--j", "4", "--p", "5", "--alpha", NEG],
            LESS,
            id="hecke-alpha-neg",
        ),
        # the rest are rejected by the library function that the command calls
        pytest.param(["verify", "1", NEG], LESS, id="verify-r-neg"),
        pytest.param(["shell", "1", NEG], LESS, id="shell-r-neg"),
        pytest.param(
            ["hecke", "1", "--j", "4", "--p", ARGV_LENGTH], MORE, id="hecke-p"
        ),
        pytest.param(
            ["quadrature", "1", NEG, "--poly", "x"], LESS, id="quadrature-r-neg"
        ),
        pytest.param(["verify", "5" + "9" * 99_999, "5"], MORE, id="verify-D"),
        pytest.param(["hecke", "1", "--j", "4", "--p", NEG], LESS, id="hecke-p-neg"),
        pytest.param(
            ["quadrature", "1", "1", "--poly", "x", "--nodes", NEG],
            LESS,
            id="quadrature-nodes-neg",
        ),
        pytest.param(
            ["quadrature", "1", "1", "--poly", "x^" + ARGV_LENGTH],
            "degree more than 2^332192, got 256",
            id="quadrature-degree",
        ),
    ],
)
def test_argv_length_values_are_named_by_size(capsys, monkeypatch, argv, shown):
    # echoed in full, a 100 000-digit value would put about 100 kB on stderr
    def no_work(*args):
        raise AssertionError("work was started")

    # the work behind each check: a task, a polynomial, a shell, a node, a sum
    monkeypatch.setattr(cli, "is_representable", no_work)
    monkeypatch.setattr(cli, "basis_poly", no_work)
    monkeypatch.setattr(cli, "theta_series", no_work)
    monkeypatch.setattr(design, "shell_from_factorization", no_work)
    monkeypatch.setattr(design, "_ellipse_parametrization", no_work)
    monkeypatch.setattr(theta, "a_norm", no_work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert shown in captured.err
    assert len(captured.err.encode()) < 200


RANGE_BASE = {
    "verify": ["verify", "1", "5"],
    "theta": ["theta", "1", "--j", "4", "--rmax", "5"],
    "hecke": ["hecke", "1", "--j", "4", "--p", "5"],
    "sweep": ["sweep"],
}


@pytest.mark.parametrize(
    "command,flag,low,high",
    [(c, *row) for c, rows in cli.FLAG_RANGES.items() for row in rows],
)
def test_every_flag_range_row_is_checked_with_one_wording(
    capsys, monkeypatch, command, flag, low, high
):
    _no_command_work(monkeypatch)
    monkeypatch.setattr(cli, "hecke_verify", lambda *args: pytest.fail("hecke ran"))
    outside = [(low - 1, f"at least {low}")]
    if high is not None:
        outside.append((high + 1, f"at most {high}"))
    for value, bound in outside:
        # a repeated flag takes its last value
        assert run(RANGE_BASE[command] + [f"--{flag}", str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --{flag} must be {bound}, got {value}\n"


def test_flag_ranges_are_read_from_the_table(capsys, monkeypatch):
    monkeypatch.setitem(cli.FLAG_RANGES, "sweep", (("rmax", 1, 5),))
    monkeypatch.setattr(cli, "is_representable", lambda D, r: pytest.fail("sweep ran"))
    assert run(["sweep", "--rmax", "6"]) == 2
    assert capsys.readouterr().err == "error: --rmax must be at most 5, got 6\n"


def _no_command_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work was started")

    for name in (
        "shell_from_factorization", "basis_poly", "theta_series", "strength_profile"
    ):
        monkeypatch.setattr(cli, name, no_work)


LONG = "a" * 100_000


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["theta", "1", "--j", "4", "--rmax", ARGV_LENGTH + "x"], id="int"),
        pytest.param(["shell", "1", "1", "--format", LONG], id="choice"),
        pytest.param([LONG], id="command"),
        pytest.param(["shell", "1", "1", LONG], id="extra-positional"),
    ],
)
def test_parser_errors_clip_argv_length_strings(capsys, monkeypatch, argv):
    # argparse quotes a rejected string in full: about 100 kB of stderr each
    _no_command_work(monkeypatch)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1000
    assert captured.err.rstrip().endswith(" characters)")


def test_short_parser_errors_are_not_clipped(capsys):
    assert run(["theta", "1", "--j", "4", "--rmax", "12x"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --rmax: invalid int value: '12x'\n")


@pytest.mark.parametrize(
    "poly,got",
    [
        pytest.param("x+" + ARGV_LENGTH + "x", "got 'x'", id="trailing-char"),
        pytest.param("x " + ARGV_LENGTH, "got a 100000-digit number", id="int-token"),
    ],
)
def test_poly_errors_show_a_window_of_argv_length_text(capsys, monkeypatch, poly, got):
    # the text and its caret line each ran to the text's length
    _no_command_work(monkeypatch)
    assert run(["theta", "1", "--rmax", "5", "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1000
    _, shown, marker, message = captured.err.splitlines()
    assert "..." in shown
    position = int(message.rsplit(" ", 1)[1].rstrip(")"))
    # the caret stands under the character the error names
    assert shown[len(marker) - 1] == poly[position]
    assert f"{got} (at position {position})" in message


def test_short_poly_errors_show_the_whole_text(capsys):
    text = "x+" + "9" * 76 + "x"  # 79 characters: shown in full
    assert run(["theta", "1", "--rmax", "5", "--poly", text]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot parse polynomial:\n  {text}\n  {' ' * 78}^\n"
        "expected '*', '+' or '-', got 'x' (at position 78)\n"
    )


@pytest.mark.parametrize(
    "command,argv",
    [
        ("strength_profile", ["verify", "1", "5"]),
        ("theta_series", ["theta", "1", "--j", "4", "--rmax", "5"]),
        ("hecke_verify", ["hecke", "1", "--j", "4", "--p", "5"]),
    ],
)
def test_a_bare_value_error_from_the_library_is_internal(
    capsys, monkeypatch, command, argv
):
    # only an InputError is the user's mistake; any other ValueError is a bug
    def broken(*args):
        raise ValueError("broken")

    monkeypatch.setattr(cli, command, broken)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: broken"]


# one argv per usage error in the README's exit-code list
README_USAGE_ERRORS = {
    "inadmissible-D": ["verify", "5", "5"],
    "unparseable-poly": ["theta", "1", "--poly", "x+", "--rmax", "5"],
    "empty-shell": ["verify", "1", "3"],
    "few-nodes": ["quadrature", "1", "1", "--poly", "x^40", "--nodes", "32"],
    "float-range": ["quadrature", "1", str(10**400), "--poly", "x^2"],
    "primality-bound": ["verify", "1", str(arith.MR_BOUND)],
    "theta-budget": ["theta", "1", "--j", "1000", "--rmax", "1000000"],
    "hecke-budget": ["hecke", "1", "--j", "4", "--p", "1000003"],
    "verify-t": ["verify", "1", "5", "--t", "41"],
    "verify-jmax": ["verify", "1", "5", "--jmax", "0"],
    "theta-rmax-low": ["theta", "1", "--j", "4", "--rmax", "0"],
    "theta-rmax-high": ["theta", "1", "--j", "4", "--rmax", "1000001"],
    "theta-j": ["theta", "1", "--j", "0", "--rmax", "5"],
    "hecke-j": ["hecke", "1", "--j", "1001", "--p", "5"],
    "sweep-rmax": ["sweep", "--rmax", "10001"],
    "sweep-jmax": ["sweep", "--jmax", "41"],
    "sweep-parallel": ["sweep", "--parallel", "0"],
    "output-path": ["shell", "1", "1", "--output", "{tmp}/missing/out.json"],
}


@pytest.mark.parametrize("case", README_USAGE_ERRORS)
def test_readme_usage_errors_exit_2(capsys, tmp_path, case):
    argv = [a.format(tmp=tmp_path) for a in README_USAGE_ERRORS[case]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_internal_error_is_neither_usage_nor_failed_verification(
    capsys, monkeypatch
):
    # a non-integer a(r) breaks an invariant of the library, not the input
    monkeypatch.setattr(theta, "a_norm", lambda D, j, r: Fraction(1, 2))
    assert run(["hecke", "1", "--j", "4", "--p", "5", "--alpha", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: a(1,4,6) = 1/2 is not an integer"
    ]


@pytest.mark.parametrize("exc", [AssertionError("broken"), ZeroDivisionError("broken")])
def test_internal_errors_exit_3_and_input_errors_exit_2(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_shell", fail)
    monkeypatch.setattr(cli, "_PARSER", None)  # rebuild with the patched command
    assert run(["shell", "1", "1"]) == 3
    assert capsys.readouterr().err == "internal error: broken\n"
    # a builtin ValueError inside a command is a bug, not the user's input
    monkeypatch.setattr(cli, "_cmd_shell", lambda args: int("x"))
    monkeypatch.setattr(cli, "_PARSER", None)
    assert run(["shell", "1", "1"]) == 3
    assert capsys.readouterr().err.startswith("internal error: invalid literal")

    def reject(args):
        raise InputError("rejected")

    monkeypatch.setattr(cli, "_cmd_shell", reject)
    monkeypatch.setattr(cli, "_PARSER", None)
    assert run(["shell", "1", "1"]) == 2
    assert capsys.readouterr().err == "error: rejected\n"


def test_cli_import_leaves_out_dataclasses_and_multiprocessing():
    # a structural check on start-up cost, not a timing bound: modules a
    # bare interpreter already loads in the same environment are exempt
    heavy = ("dataclasses", "inspect", "multiprocessing")
    env = {**os.environ, "PYTHONPATH": str(Path(normdesign.__file__).parents[1])}

    def loaded(statement: str) -> set[str]:
        code = f"{statement}\nimport sys\nprint(*sys.modules.keys() & {heavy})"
        argv = [sys.executable, "-c", code]
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    assert loaded("import normdesign.cli") <= loaded("pass")


def test_quadrature_node_bound_is_checked_before_any_node(capsys, monkeypatch):
    # every node reads the curve and the weight this call returns
    def no_evaluation(*args):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(design, "_ellipse_parametrization", no_evaluation)
    assert run(["quadrature", "1", "1", "--poly", "x^2", "--nodes", "2097152"]) == 2
    assert "at most 2^20" in capsys.readouterr().err


@pytest.mark.parametrize(
    "terms,nodes,accepted",
    [
        (1, 2**20, True),
        (8, 2**20, True),
        (9, 2**20, False),
        (3600, 2**11, True),
        (3600, 2**12, False),
        (4096, 2**11, True),
        (4097, 2**11, False),
        (3600, 2**20, False),
    ],
)
def test_quadrature_work_budget_edges(capsys, monkeypatch, terms, nodes, accepted):
    """nodes * terms <= design.MAX_QUADRATURE_WORK = 2^23, checked before any node."""
    # every node reads the curve and the weight this call returns
    def stop(*args):
        raise InputError("a node was evaluated")

    monkeypatch.setattr(design, "_ellipse_parametrization", stop)
    assert design.MAX_QUADRATURE_WORK == 2**23
    monomials = [f"x^{i}*y^{k}" for i in range(65) for k in range(65)][:terms]
    argv = ["quadrature", "1", "1", "--poly", "+".join(monomials), "--nodes", str(nodes)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    if accepted:
        assert "a node was evaluated" in err
    else:
        assert f"{nodes} nodes times {terms} terms is past" in err
        assert len(err.splitlines()) == 1


BIG_COEFFICIENT = "1" + "0" * 400 + "*x^2"


@pytest.mark.parametrize(
    "r,poly",
    [
        (10**400, "x^2"),
        (10**306, "1000*x^2"),
        (10**306, "1000*x^2-1000*y^2"),
        (1, BIG_COEFFICIENT),
    ],
)
def test_quadrature_outside_the_float_range_is_a_usage_error(capsys, r, poly):
    assert run(["quadrature", "1", str(r), "--poly", poly, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float range" in captured.err
    assert "Infinity" not in captured.err and "NaN" not in captured.err
    assert len(captured.err.splitlines()) == 1
    blamed = "a coefficient of P" if poly == BIG_COEFFICIENT else "at r of"
    assert blamed in captured.err


def test_quadrature_too_few_nodes_for_degree(capsys):
    # 16 nodes alias x^40 to 0.1355; the exact value is C(40,20)/2^40 = 0.1254
    assert run(["quadrature", "1", "1", "--poly", "x^40", "--nodes", "16"]) == 2
    assert "exceed the polynomial degree 40" in capsys.readouterr().err
    assert run(["quadrature", "1", "1", "--poly", "x^14", "--nodes", "16"]) == 0
    capsys.readouterr()


def test_reproduce_example(capsys):
    assert run(["reproduce-example"]) == 0
    out = capsys.readouterr().out
    assert "12 points" in out
    assert "(11, 19)" in out
    assert "sum of P over the shell: 0" in out
    assert "sum of Q over the shell: -4818834696" in out
    assert "failing [6]" in out
    assert "5-design but not a 6-design" in out


def test_reproduce_example_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "EXAMPLE_Q_SUM", cli.EXAMPLE_Q_SUM + 1)
    assert run(["reproduce-example"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "UNEXPECTED: the worked example did not reproduce"


def report_json(report):
    """The reference dict of a design report: cli._report_text writes its _dumps."""
    return {
        "D": report.D,
        "r": report.r,
        "jmax": report.j_max,
        "vanishing": list(report.vanishing),
        "failing": [
            {"j": f.j, "witness": theta.format_rational(f.witness)}
            for f in report.failing
        ],
        "theorem_main_ok": report.theorem_main_ok,
    }


def assert_report_text(report):
    text = cli._report_text(report)
    assert text == cli._dumps(report_json(report))
    assert json.loads(text) == report_json(report)


@pytest.mark.parametrize("jmax", [1, 13, 40])
@pytest.mark.parametrize("D", normdesign.ADMISSIBLE_D)
def test_report_text_is_the_reference_dump(D, jmax):
    for r in range(1, 301):
        if arith.is_representable(D, r):
            assert_report_text(strength_profile(D, r, jmax))


@pytest.mark.parametrize(
    "fields",
    [
        {"theorem_main_ok": False},
        {"failing": ()},
        {"vanishing": ()},
        {"failing": (FailingDegree(1, -1), FailingDegree(6, -(10**40)))},
        {"failing": (FailingDegree(2, 2**300 + 1), FailingDegree(6, -(2**301)))},
    ],
)
def test_report_text_on_hand_built_reports(fields):
    # the worked example's report (one failing degree, witness -2409417348)
    # with fields a real shell never gives; the text must still be the dump
    assert_report_text(strength_profile(3, 691, 6)._replace(**fields))


@pytest.mark.parametrize("D", normdesign.ADMISSIBLE_D)
def test_design_witnesses_are_ints(D):
    """_report_text writes a witness w as "w/1", which holds only for an int.

    Every FailingDegree strength_profile gives, on the shells verify builds
    and on those sweep walks, and at the CI's large norms, has an int witness.
    """
    profiles = []
    for shell in shells.ball_shells(D, 300):
        profiles.append(strength_profile(D, shell.r, 40, shell))
        profiles.append(strength_profile(D, shell.r, 40))
    for r in (10**24 + 49, 3 * 10**24):  # verify's CI norms; the second is empty
        if shells.shell_from_factorization(D, r).points:
            profiles.append(strength_profile(D, r, 40))
    witnesses = [f.witness for report in profiles for f in report.failing]
    assert witnesses and all(type(w) is int for w in witnesses)


def test_sweep_exit_and_shape(tmp_path):
    out_path = tmp_path / "sweep.json"
    assert run(["sweep", "--rmax", "20", "--jmax", "13", "--output", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_ok"] is True
    assert payload["rmax"] == 20 and payload["jmax"] == 13
    seen = [(rep["D"], rep["r"]) for rep in payload["reports"]]
    assert seen == sorted(seen)
    assert all(rep["theorem_main_ok"] for rep in payload["reports"])


@pytest.mark.parametrize("jmax", [1, 13, 40])
def test_sweep_reports_match_strength_profile(capsys, jmax):
    # sweep finds the representable r with r on the outer loop; its reports
    # must still be the design check of every nonempty shell, D-major
    rmax = 300
    assert run(["sweep", "--rmax", str(rmax), "--jmax", str(jmax)]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = [
        report_json(strength_profile(D, r, jmax))
        for D in normdesign.ADMISSIBLE_D
        for r in range(1, rmax + 1)
        if enumerate_shell(D, r).points
    ]
    assert payload["reports"] == expected


def test_sweep_parallel_output_is_byte_identical(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert run(["sweep", "--rmax", "30", "--output", str(serial)]) == 0
    assert run(["sweep", "--rmax", "30", "--parallel", "2", "--output", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("rmax", [1, 2, 30])
@pytest.mark.parametrize("fail_at", [None, (3, 1), (163, 25)])
def test_sweep_text_equals_the_payload_dump(capsys, monkeypatch, rmax, fail_at):
    # sweep joins each report's own dump; the bytes must be _dumps of the
    # whole payload, on a passing sweep and on a failing one
    real = cli.strength_profile

    def profile(D, r, j_max, shell=None):
        report = real(D, r, j_max, shell)
        return report._replace(theorem_main_ok=(D, r) != fail_at)

    monkeypatch.setattr(cli, "strength_profile", profile)
    reports = [
        report_json(profile(D, r, 13))
        for D in normdesign.ADMISSIBLE_D
        for r in range(1, rmax + 1)
        if enumerate_shell(D, r).points
    ]
    all_ok = all(rep["theorem_main_ok"] for rep in reports)
    payload = {"rmax": rmax, "jmax": 13, "all_ok": all_ok, "reports": reports}
    texts = [cli._dumps(rep) for rep in reports]
    assert cli._sweep_json(rmax, 13, all_ok, texts) == cli._dumps(payload)
    assert run(["sweep", "--rmax", str(rmax)]) == (0 if all_ok else 1)
    assert capsys.readouterr().out == cli._dumps(payload) + "\n"
    assert all_ok == (fail_at is None or fail_at[1] > rmax)


def test_sweep_checks_the_ball_walk_against_is_representable(capsys, monkeypatch):
    # each D's ball walk must find exactly the norms is_representable found;
    # a norm one route misses is a broken invariant, not a usage error
    real = arith.is_representable
    monkeypatch.setattr(
        cli, "is_representable", lambda D, r: (D, r) != (7, 2) and real(D, r)
    )
    assert run(["sweep", "--rmax", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: sweep on D=7:")
    assert captured.err.endswith("disagree on the norms [2]\n")


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, iterable, chunksize=1):
        return [func(item) for item in iterable]


@pytest.mark.parametrize(
    "cpus,requested,expected",
    [(2, 1000, [2]), (4, 3, [3]), (None, 8, []), (1, 8, []), (16, 12, [9])],
)
def test_sweep_parallel_is_clamped_to_cpu_count(
    tmp_path, monkeypatch, cpus, requested, expected
):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    serial = tmp_path / "serial.json"
    clamped = tmp_path / "clamped.json"
    assert run(["sweep", "--rmax", "12", "--output", str(serial)]) == 0
    argv = ["sweep", "--rmax", "12", "--parallel", str(requested)]
    assert run(argv + ["--output", str(clamped)]) == 0
    assert RecordingPool.sizes == expected
    assert serial.read_bytes() == clamped.read_bytes()


def test_repeated_runs_are_byte_identical(capsys):
    assert run(["verify", "3", "691", "--jmax", "6", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "3", "691", "--jmax", "6", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "points.json"
    assert run(["shell", "1", "2", "--format", "json", "--output", str(path)]) == 0
    assert json.loads(path.read_text())["points"] == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


# one argv per command; verify exits 1 (691 is a 5-design, not a 6-design)
OUTPUT_CASES = {
    "shell": ["shell", "3", "691", "--format", "csv"],
    "verify": ["verify", "3", "691", "--t", "6"],
    "theta": ["theta", "2", "--poly", "x^2-1/3*y", "--rmax", "12"],
    "hecke": ["hecke", "1", "--j", "4", "--p", "5", "--alpha", "2", "--format", "json"],
    "quadrature": ["quadrature", "1", "1", "--poly", "x^2"],
    "sweep": ["sweep", "--rmax", "15", "--jmax", "7"],
    "reproduce-example": ["reproduce-example"],
}


@pytest.mark.parametrize("command", OUTPUT_CASES)
def test_output_flag_writes_the_printed_bytes(capsys, tmp_path, command):
    argv = OUTPUT_CASES[command]
    code = run(argv)
    printed = capsys.readouterr().out
    assert code == (1 if command == "verify" else 0)
    path = tmp_path / "out.txt"
    assert run(argv + ["--output", str(path)]) == code
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == printed.encode()


def test_nul_in_the_output_path_is_a_usage_error(capsys):
    # open() raises ValueError, not OSError, for a NUL; argv cannot carry
    # one, but a Python caller of run can
    assert run(["shell", "1", "1", "--output", "a\x00b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot open --output: embedded null byte\n"


@pytest.mark.parametrize(
    "stderr_on_pipe", [False, True], ids=["stderr-apart", "stderr-on-pipe"]
)
@pytest.mark.parametrize(
    "argv",
    # shell's text fits the stdout buffer, so only a flush meets the closed
    # pipe; sweep's does not, so print itself raises. argparse writes the
    # help texts itself, and they fit the buffer too
    [["shell", "1", "5"], ["sweep", "--rmax", "60"], ["--help"], ["theta", "--help"]],
    ids=["buffered", "past-the-buffer", "help", "command-help"],
)
def test_a_closed_stdout_exits_2(argv, stderr_on_pipe):
    # unbuffered streams write at once and hide the exit flush that gave 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(normdesign.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "normdesign.cli", *argv], env=env, timeout=60,
            stdout=write_end, stderr=write_end if stderr_on_pipe else subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    if not stderr_on_pipe:
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


INTERLEAVED = (
    ["shell", "3", "691", "--format", "json"],
    ["verify", "3", "691", "--jmax", "6", "--format", "json"],
    ["theta", "1", "--j", "4", "--rmax", "12", "--format", "csv"],
    ["hecke", "1", "--j", "4", "--p", "5", "--alpha", "2", "--format", "json"],
    ["sweep", "--rmax", "15", "--jmax", "7"],
    ["verify", "1", "3"],
    ["shell", "1", "25"],
    ["verify", "7", "2", "--t", "3"],
    ["theta", "2", "--poly", "x^2-y", "--rmax", "6"],
    ["no-such-command"],
    ["sweep", "--rmax", "9", "--parallel", "1"],
    ["verify", "3", "691"],
)


def _run_captured(argv, capsys):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_interleaved_commands(capsys, monkeypatch):
    fresh = []
    for argv in INTERLEAVED:
        monkeypatch.setattr(cli, "_PARSER", None)  # build a new parser per call
        fresh.append(_run_captured(argv, capsys))
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_run_captured(argv, capsys) for argv in INTERLEAVED]
    parser = cli._PARSER
    reused += [_run_captured(argv, capsys) for argv in reversed(INTERLEAVED)]
    assert cli._PARSER is parser
    assert reused == fresh + fresh[::-1]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 0, 1, 0, 2, 0, 0]
    # no flag of an earlier call leaks into a later one: the last verify
    # gets the default degree bound, not --jmax 6 or --t 3
    assert "degrees 1..13" in fresh[-1][1]
    assert "failing set matches the multiples of u_D=6" in fresh[-1][1]


def _scan_within_reach(monkeypatch):
    """Let the reference scan run only on shells of at most 1001 rows.

    verify and shell factor r at every norm, so a scan of the large norm
    fails here instead of running for hours. Smaller scans still run:
    _prime_element reads the norm 2 shell.
    """
    original = shells.enumerate_shell

    def scan(D, r):
        if shells.scan_rows(D, r) > 1001:
            raise AssertionError(f"the reference scan was started at r={r}")
        return original(D, r)

    monkeypatch.setattr(shells, "enumerate_shell", scan)


def _representable_with_rows(D, rows, last):
    """The last (or first) representable r whose scan has exactly rows + 1 rows."""
    a = -ring_data(D).disc
    lo, hi = (rows * rows * a + 3) // 4, ((rows + 1) ** 2 * a + 3) // 4 - 1
    candidates = range(hi, lo - 1, -1) if last else range(lo, hi + 1)
    r = next(r for r in candidates if arith.is_representable(D, r))
    assert isqrt(4 * r // a) == rows
    return r


@pytest.mark.parametrize("D", normdesign.ADMISSIBLE_D)
def test_verify_and_shell_factor_every_norm(capsys, monkeypatch, D):
    # the only scans are the norm p shells _prime_element reads, at p = 2 and
    # at the ramified p; every shell verify and shell list is factored
    prime_shells = {2} | {p for p, _ in arith.factorize(-ring_data(D).disc)}
    scanned = []
    original = shells.enumerate_shell

    def scan(D, r):
        scanned.append(r)
        return original(D, r)

    monkeypatch.setattr(shells, "enumerate_shell", scan)
    # r = 1..300, the last representable norm of 1001 scan rows and the first of 1002
    edge = [_representable_with_rows(D, rows, last)
            for rows, last in ((1000, True), (1001, False))]
    for r in [*range(1, 301), *edge]:
        run(["verify", str(D), str(r), "--jmax", "13"])
        run(["shell", str(D), str(r), "--format", "json"])
    capsys.readouterr()
    assert scanned and set(scanned) <= prime_shells, sorted(set(scanned))


def test_verify_past_the_scan_reach(monkeypatch):
    # 10^18 + 9 is a prime = 1 mod 4: a scan would need 10^9 rows
    _scan_within_reach(monkeypatch)
    assert run(["verify", "1", "1000000000000000009", "--jmax", "8"]) == 0


def test_shell_past_the_scan_reach(capsys, monkeypatch):
    # 10^18 + 9 is a prime = 1 mod 4: u_D * 2 = 8 points, built by factoring
    _scan_within_reach(monkeypatch)
    r = 1000000000000000009
    assert run(["shell", "1", str(r), "--format", "json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert len(points) == 8
    assert all(norm_form(1, x, y) == r for x, y in points)


def test_verify_factors_n_once(capsys, monkeypatch):
    calls = []
    original = arith.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(arith, "factorize", counting)
    monkeypatch.setattr(shells, "factorize", counting)
    # 10^9 + 9 is a prime = 1 mod 4, so the shell is built from one factorization
    assert run(["verify", "1", "1000000009"]) == 0
    assert calls == [1000000009]
    capsys.readouterr()


def test_inputs_at_the_primality_bound_are_usage_errors(capsys):
    bound = "3317044064679887385961981"
    assert run(["verify", "1", bound]) == 2
    assert "primality is proven" in capsys.readouterr().err
    assert run(["hecke", "1", "--j", "4", "--p", bound]) == 2
    assert "primality is proven" in capsys.readouterr().err
