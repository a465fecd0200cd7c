import json

import pytest

from normdesign import cli
from normdesign.cli import run
from normdesign.shells import enumerate_shell, load_shell_cache


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


def test_shell_populates_cache_flag_and_env(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    assert run(["shell", "1", "25", "--cache", str(cache)]) == 0
    assert (1, 25) in load_shell_cache(str(cache))

    env_cache = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv("NORMDESIGN_CACHE", str(env_cache))
    assert run(["shell", "7", "2"]) == 0
    capsys.readouterr()
    assert (7, 2) in load_shell_cache(str(env_cache))


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


def test_verify_json_schema(capsys):
    assert run(["verify", "3", "691", "--jmax", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failing"] == [{"j": 6, "witness": "-2409417348/1"}]
    assert payload["theorem_main_ok"] is True


def test_theta_with_j_and_poly(capsys):
    assert run(["theta", "1", "--j", "4", "--rmax", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["j"] == 4
    assert payload["coeffs"][2] == "-16/1"  # unnormalized R sum: u_D * a(1,4,2)

    assert run(["theta", "1", "--poly", "1", "--rmax", "5", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "r,coefficient"
    assert rows[1:] == ["0,1/1", "1,4/1", "2,4/1", "3,0/1", "4,4/1", "5,8/1"]


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


def test_quadrature_command(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x^2", "--nodes", "256"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_quadrature_bad_poly_reports_position(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x^2+oops"]) == 2
    err = capsys.readouterr().err
    assert "position 4" in err
    assert "^" in err


def test_quadrature_bad_nodes(capsys):
    assert run(["quadrature", "1", "1", "--poly", "x", "--nodes", "100"]) == 2
    capsys.readouterr()


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
    monkeypatch.setattr(cli, "Pool", RecordingPool)
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
