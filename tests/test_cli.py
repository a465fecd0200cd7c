import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normdesign
from normdesign import arith, cli, harmonic, shells, theta
from normdesign.cli import run
from normdesign.harmonic import BivarPoly
from normdesign.ring import norm_form
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
    assert f"at most 10^6, got {rmax}" in captured.err


def test_theta_rmax_at_the_bound_is_accepted(capsys, monkeypatch):
    def reached(D, poly, r_max):
        raise ValueError(f"theta_series reached at r_max={r_max}")

    monkeypatch.setattr(cli, "theta_series", reached)
    assert cli.MAX_THETA_RMAX == 10**6
    assert run(["theta", "1", "--j", "4", "--rmax", str(10**6)]) == 2
    assert "theta_series reached at r_max=1000000" in capsys.readouterr().err


def _no_scan(monkeypatch):
    def scan(D, r):
        raise ValueError(f"scan reached at r={r}")

    monkeypatch.setattr(shells, "enumerate_shell", scan)
    monkeypatch.setattr(theta, "enumerate_shell", scan)


@pytest.mark.parametrize(
    "D,p,alpha,rows",
    [
        (1, "1000003", "3", "1000004501"),
        (7, "2", "54", "101459066"),
        (1, "1009", "7", "more than 2^28"),
        (163, "1000000000000000009", "3", "more than 2^85"),
        (1, "1009", "1" + "0" * 5000, "more than 2^44999"),
    ],
)
def test_hecke_scan_budget_is_checked_before_any_scan(
    capsys, monkeypatch, D, p, alpha, rows
):
    _no_scan(monkeypatch)
    assert run(["hecke", str(D), "--j", "2", "--p", p, "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"hecke would scan {rows}" in captured.err
    assert "the limit is 10^8 rows" in captured.err


@pytest.mark.parametrize(
    "D,p,alpha",
    [(7, "2", "53"), (1, "1009", "5"), (3, "1999", "3"), (1, "1000003", "1")],
)
def test_hecke_within_the_scan_budget_is_accepted(capsys, monkeypatch, D, p, alpha):
    _no_scan(monkeypatch)
    assert cli.MAX_HECKE_ROWS == 10**8
    j = str(cli.unit_count(D))
    assert run(["hecke", str(D), "--j", j, "--p", p, "--alpha", alpha]) == 2
    err = capsys.readouterr().err
    # alpha < 2 is hecke_verify's own usage error; the rest reach a scan
    assert ("alpha_max must be >= 2" if alpha == "1" else "scan reached") in err


def _no_degree_work(monkeypatch):
    def work(*args):
        raise AssertionError("degree work was started")

    monkeypatch.setattr(harmonic, "basis_poly", work)
    monkeypatch.setattr(cli, "theta_series", work)
    monkeypatch.setattr(cli, "hecke_verify", work)
    _no_scan(monkeypatch)


ARGV_LENGTH_J = "9" * 100_000


@pytest.mark.parametrize(
    "j,shown",
    [
        ("1001", "got 1001"),
        ("100000", "got 100000"),
        ("1" + "0" * 30, "got more than 2^99"),
        pytest.param(ARGV_LENGTH_J, "got more than 2^332192", id="argv-length"),
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
    assert f"error: --j must be at most 1000, {shown}\n" == captured.err


@pytest.mark.parametrize(
    "command,reached",
    [
        (["theta", "1", "--rmax", "20"], "basis_poly"),
        (["hecke", "1", "--p", "5", "--alpha", "2"], "hecke_verify"),
    ],
)
def test_degree_at_the_budget_is_accepted(capsys, monkeypatch, command, reached):
    def stop(*args):
        raise ValueError(f"{reached} reached")

    monkeypatch.setattr(harmonic, "basis_poly", stop)
    monkeypatch.setattr(cli, "hecke_verify", stop)
    assert cli.MAX_DEGREE == 1000
    assert run(command + ["--j", "1000"]) == 2
    assert f"{reached} reached" in capsys.readouterr().err


def test_poly_degree_is_not_budgeted(capsys):
    # the degree budget covers --j only; a --poly of any degree is summed
    assert run(["theta", "1", "--poly", "x^2000", "--rmax", "1"]) == 0
    assert capsys.readouterr().out.endswith("  r=1: 2/1\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--rmax", "10001"], "--rmax must be at most 10^4, got 10001"),
        (["--rmax", "1" + "0" * 5000], "--rmax must be at most 10^4"),
        (["--jmax", "0"], "--jmax must be in [1, 40], got 0"),
        (["--jmax", "41"], "--jmax must be in [1, 40], got 41"),
        (["--rmax", "10", "--jmax", "-5"], "--jmax must be in [1, 40], got -5"),
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
        raise ValueError("task list reached")

    monkeypatch.setattr(cli, "is_representable", reached)
    assert cli.MAX_SWEEP_RMAX == 10**4
    assert run(["sweep"] + argv) == 2
    assert "task list reached" in capsys.readouterr().err


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
    def no_evaluation(*args):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(BivarPoly, "evaluate_float", no_evaluation)
    assert run(["quadrature", "1", "1", "--poly", "x^2", "--nodes", "2097152"]) == 2
    assert "at most 2^20" in capsys.readouterr().err


@pytest.mark.parametrize(
    "r,poly",
    [(10**400, "x^2"), (10**306, "1000*x^2"), (10**306, "1000*x^2-1000*y^2")],
)
def test_quadrature_outside_the_float_range_is_a_usage_error(capsys, r, poly):
    assert run(["quadrature", "1", str(r), "--poly", poly, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "float range" in captured.err
    assert "Infinity" not in captured.err and "NaN" not in captured.err


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


def test_sweep_exit_and_shape(tmp_path):
    out_path = tmp_path / "sweep.json"
    assert run(["sweep", "--rmax", "20", "--jmax", "13", "--output", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["all_ok"] is True
    assert payload["rmax"] == 20 and payload["jmax"] == 13
    seen = [(rep["D"], rep["r"]) for rep in payload["reports"]]
    assert seen == sorted(seen)
    assert all(rep["theorem_main_ok"] for rep in payload["reports"])


def test_sweep_parallel_output_is_byte_identical(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert run(["sweep", "--rmax", "30", "--output", str(serial)]) == 0
    assert run(["sweep", "--rmax", "30", "--parallel", "2", "--output", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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
    [(2, 1000, [2]), (4, 3, [3]), (None, 8, []), (1, 8, [])],
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


def test_verify_past_the_scan_reach():
    # 10^18 + 9 is a prime = 1 mod 4: a scan would need 10^9 rows
    assert run(["verify", "1", "1000000000000000009", "--jmax", "8"]) == 0


def test_shell_past_the_scan_reach(capsys):
    # 10^18 + 9 is a prime = 1 mod 4: u_D * 2 = 8 points, built by factoring
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
    # 10^9 + 9 is a prime = 1 mod 4, past the scan crossover
    assert run(["verify", "1", "1000000009"]) == 0
    assert calls == [1000000009]
    capsys.readouterr()


def test_inputs_at_the_primality_bound_are_usage_errors(capsys):
    bound = "3317044064679887385961981"
    assert run(["verify", "1", bound]) == 2
    assert "primality is proven" in capsys.readouterr().err
    assert run(["hecke", "1", "--j", "4", "--p", bound]) == 2
    assert "primality is proven" in capsys.readouterr().err
