import json
import math

import pytest

from normdesign.design import (
    DesignReport,
    is_t_design,
    measure_density,
    norm_form_float,
    quadrature_average,
    spherical_map,
    strength_profile,
    verify_theorem_main,
)
from normdesign.harmonic import BasisKind, BivarPoly, basis_pair, basis_poly, parse_poly
from normdesign.ring import ADMISSIBLE_D, unit_count
from normdesign.shells import enumerate_shell
from normdesign.theta import format_rational


def test_is_t_design_examples():
    assert is_t_design(3, 691, 5) is True
    assert is_t_design(3, 691, 6) is False
    assert is_t_design(1, 2, 3) is True


def test_is_t_design_brute_force_cross_check():
    shell = enumerate_shell(1, 2)
    assert shell.points == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    for j in (1, 2, 3):
        for kind in BasisKind:
            p = basis_poly(1, j, kind).poly
            assert sum(p.evaluate(x, y) for x, y in shell.points) == 0


def test_design_checks_reject_empty_shells():
    with pytest.raises(ValueError):
        is_t_design(1, 3, 2)
    with pytest.raises(ValueError):
        strength_profile(1, 3, 4)
    with pytest.raises(ValueError):
        is_t_design(1, 0, 2)


def test_profile_guards():
    with pytest.raises(ValueError):
        strength_profile(1, 2, 41)
    with pytest.raises(ValueError):
        strength_profile(1, 2, 0)
    with pytest.raises(ValueError):
        is_t_design(1, 2, 0)


def test_strength_profile_examples():
    report = strength_profile(3, 691, 6)
    assert [f.j for f in report.failing] == [6]
    assert report.vanishing == (1, 2, 3, 4, 5)
    assert report.failing[0].witness == -2409417348

    report = strength_profile(1, 2, 8)
    assert [f.j for f in report.failing] == [4, 8]

    report = strength_profile(7, 2, 6)
    assert [f.j for f in report.failing] == [2, 4, 6]


def test_verify_theorem_main_examples():
    ok, report = verify_theorem_main(3, 691, 12)
    assert ok and report.theorem_main_ok
    assert [f.j for f in report.failing] == [6, 12]

    ok, report = verify_theorem_main(163, 41, 8)
    assert ok
    assert [f.j for f in report.failing] == [2, 4, 6, 8]

    assert enumerate_shell(2, 3).points == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    ok, report = verify_theorem_main(2, 3, 8)
    assert ok
    assert [f.j for f in report.failing] == [2, 4, 6, 8]


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_witnesses_are_reproducible_shell_sums(D):
    from normdesign.theta import basis_shell_sums

    for r in (2, 4, 18, 49):
        if not enumerate_shell(D, r).points:
            continue
        report = strength_profile(D, r, 2 * unit_count(D) + 1)
        for f in report.failing:
            r_sum, _ = basis_shell_sums(D, f.j, r)
            assert f.witness == r_sum and f.witness != 0
        covered = set(report.vanishing) | {f.j for f in report.failing}
        assert covered == set(range(1, report.j_max + 1))


def test_design_report_json_shape():
    report = strength_profile(3, 691, 6)
    payload = report.to_json_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload == {
        "D": 3,
        "r": 691,
        "jmax": 6,
        "vanishing": [1, 2, 3, 4, 5],
        "failing": [{"j": 6, "witness": "-2409417348/1"}],
        "theorem_main_ok": True,
    }


# -- quadrature ----------------------------------------------------------------


def test_quadrature_normalization_examples():
    one = BivarPoly.constant(1)
    assert quadrature_average(1, 1, one, 256) == pytest.approx(1.0, abs=1e-12)
    q3 = parse_poly("x^2+x*y+y^2")
    assert quadrature_average(3, 1, q3, 256) == pytest.approx(1.0, abs=1e-12)
    assert quadrature_average(1, 1, parse_poly("x^2"), 256) == pytest.approx(
        0.5, abs=1e-12
    )


def test_quadrature_node_validation():
    one = BivarPoly.constant(1)
    with pytest.raises(ValueError):
        quadrature_average(1, 1, one, 100)  # not a power of two
    with pytest.raises(ValueError):
        quadrature_average(1, 1, one, 8)  # too few
    with pytest.raises(ValueError):
        quadrature_average(1, 0, one, 256)


@pytest.mark.parametrize("M", (16, 32, 64))
def test_quadrature_exact_moments_below_node_count(M):
    """On the unit circle the average of x^(2k) is C(2k, k) / 4^k."""
    for two_k in range(0, M, 2):
        value = quadrature_average(1, 1, BivarPoly.monomial(two_k, 0), M)
        exact = math.comb(two_k, two_k // 2) / 4 ** (two_k // 2)
        assert value == pytest.approx(exact, rel=1e-12, abs=1e-15), (M, two_k)


@pytest.mark.parametrize("M", (16, 32, 64))
def test_quadrature_rejects_degree_at_or_above_node_count(M):
    for two_k in (M, M + 2, 2 * M + 8):
        with pytest.raises(ValueError, match="exceed the polynomial degree"):
            quadrature_average(1, 1, BivarPoly.monomial(two_k, 0), M)
    with pytest.raises(ValueError):  # total degree, not the x or y degree
        quadrature_average(1, 1, BivarPoly.monomial(M // 2, M // 2), M)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("r", (1, 4))
def test_quadrature_doubling_convergence_guard(D, r):
    p = parse_poly("x^2+2*x*y-y^2")
    v256 = quadrature_average(D, r, p, 256)
    v512 = quadrature_average(D, r, p, 512)
    assert abs(v256 - v512) < 1e-12


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("r", (1, 4))
def test_measure_density_constant_along_the_curve(D, r):
    values = [measure_density(D, r, 2 * math.pi * k / 64) for k in range(64)]
    expected = math.sqrt(D) if D % 4 in (1, 2) else 1 / (2 * math.sqrt(D))
    for v in values:
        assert abs(v - values[0]) < 1e-12
        assert v == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("D", (1, 2, 3, 7))
@pytest.mark.parametrize("r", (1, 4))
def test_quadrature_kills_basis_polynomials(D, r):
    for j in range(1, 9):
        for kind in BasisKind:
            p = basis_poly(D, j, kind).poly
            assert abs(quadrature_average(D, r, p, 256)) < 1e-10, (D, r, j, kind)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_vanishing_degrees_match_quadrature_averages(D):
    for r in range(1, 51):
        shell = enumerate_shell(D, r)
        if not shell.points:
            continue
        report = strength_profile(D, r, 6)
        for j in report.vanishing:
            for kind in BasisKind:
                p = basis_poly(D, j, kind).poly
                discrete = sum(
                    p.evaluate_float(x, y) for x, y in shell.points
                ) / len(shell.points)
                integral = quadrature_average(D, r, p, 256)
                assert abs(discrete - integral) < 1e-9, (D, r, j, kind)


# -- spherical correspondence -----------------------------------------------------


def test_spherical_map_examples():
    assert spherical_map(1, [(1.0, 0.0)]) == [(1.0, 0.0)]

    ((x, y),) = spherical_map(3, [(0.0, 1.0)])
    assert x == pytest.approx(-1 / math.sqrt(3), abs=1e-12)
    assert y == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    ((x, y),) = spherical_map(2, [(0.0, 1.0)])
    assert x == 0.0
    assert y == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_spherical_map_rejects_off_circle_points():
    with pytest.raises(ValueError):
        spherical_map(1, [(1.0, 0.1)])


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_spherical_map_lands_on_the_ellipse(D):
    circle = [
        (math.cos(2 * math.pi * k / 40), math.sin(2 * math.pi * k / 40))
        for k in range(40)
    ]
    for x, y in spherical_map(D, circle):
        assert abs(norm_form_float(D, x, y) - 1.0) < 1e-9


@pytest.mark.parametrize("D", (1, 2, 3, 7))
@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_mapped_polygons_are_ellipse_designs(D, t):
    """Vertices of a regular (t+1)-gon map to a degree-t averaging set."""
    n = t + 1
    polygon = [
        (math.cos(2 * math.pi * k / n + 0.3), math.sin(2 * math.pi * k / n + 0.3))
        for k in range(n)
    ]
    mapped = spherical_map(D, polygon)
    for i in range(t + 1):
        for k in range(t + 1 - i):
            mono = BivarPoly.monomial(i, k)
            discrete = sum(mono.evaluate_float(x, y) for x, y in mapped) / n
            integral = quadrature_average(D, 1, mono, 256)
            assert abs(discrete - integral) < 1e-9, (D, t, i, k)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_design_size_bound(D):
    """A shell that averages all degrees <= t has at least t+1 points."""
    for r in range(1, 51):
        shell = enumerate_shell(D, r)
        if not shell.points:
            continue
        report = strength_profile(D, r, 2 * unit_count(D) + 1)
        strength = 0
        for j in range(1, report.j_max + 1):
            if j in report.vanishing:
                strength = j
            else:
                break
        assert len(shell.points) >= strength + 1, (D, r)
