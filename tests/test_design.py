import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign import design
from normdesign.arith import is_representable
from normdesign.cli import _report_text
from normdesign.design import (
    MAX_NODES,
    _ellipse_parametrization,
    quadrature_average,
    spherical_map,
    strength_profile,
)
from normdesign.harmonic import BasisKind, BivarPoly, basis_poly, parse_poly
from normdesign.ring import ADMISSIBLE_D, InputError, norm_form, ring_data
from normdesign.shells import enumerate_shell
from normdesign.theta import basis_shell_sums_upto, shell_sum
from test_cli import _representable_with_rows, report_json
from test_harmonic import polys


def test_t_design_examples():
    # strength_profile(D, r, t) stops at degree t: a t-design fails nowhere
    assert strength_profile(3, 691, 5).failing == ()
    assert [f.j for f in strength_profile(3, 691, 6).failing] == [6]
    assert strength_profile(1, 2, 3).failing == ()


def test_is_t_design_brute_force_cross_check():
    shell = enumerate_shell(1, 2)
    assert shell.points == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    for j in (1, 2, 3):
        for kind in BasisKind:
            p = basis_poly(1, j, kind).poly
            assert sum(p.evaluate(x, y) for x, y in shell.points) == 0


def test_design_checks_reject_empty_shells():
    with pytest.raises(ValueError, match="inert prime"):
        strength_profile(1, 3, 2)
    with pytest.raises(ValueError, match="inert prime"):
        strength_profile(1, 3, 4)
    with pytest.raises(ValueError, match="r >= 1"):
        strength_profile(1, 0, 2)


@pytest.mark.parametrize(
    "D,r,other", [(1, 5, (1, 10)), (1, 5, (2, 5)), (7, 2, (3, 2)), (3, 691, (3, 7))]
)
def test_strength_profile_rejects_the_shell_of_another_norm_or_ring(D, r, other):
    # a shell of (D, r) gives the default's report; one of another (D, r)
    # would classify the wrong points, so it is a usage error
    shell = enumerate_shell(D, r)
    assert strength_profile(D, r, 13, shell) == strength_profile(D, r, 13)
    with pytest.raises(InputError, match="not the norm"):
        strength_profile(D, r, 13, enumerate_shell(*other))
    with pytest.raises(InputError, match="not the norm"):
        strength_profile(*other, 13, shell)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_strength_profile_takes_each_route_on_its_side_of_the_crossover(D):
    # the default shell is factored at every r; on each side of the 1000-row
    # mark (the last representable norm of 1001 scan rows and the first of
    # 1002) its report equals the one on the reference scan's shell
    for rows, last in ((1000, True), (1001, False)):
        r = _representable_with_rows(D, rows, last)
        shell = enumerate_shell(D, r)
        assert strength_profile(D, r, 13) == strength_profile(D, r, 13, shell)


def test_profile_guards():
    with pytest.raises(ValueError):
        strength_profile(1, 2, 41)
    with pytest.raises(ValueError):
        strength_profile(1, 2, 0)
    with pytest.raises(ValueError):
        strength_profile(1, 2, -1)


def test_strength_profile_examples():
    report = strength_profile(3, 691, 6)
    assert [f.j for f in report.failing] == [6]
    assert report.vanishing == (1, 2, 3, 4, 5)
    assert report.failing[0].witness == -2409417348

    report = strength_profile(1, 2, 8)
    assert [f.j for f in report.failing] == [4, 8]

    report = strength_profile(7, 2, 6)
    assert [f.j for f in report.failing] == [2, 4, 6]


def test_theorem_main_examples():
    report = strength_profile(3, 691, 12)
    assert report.theorem_main_ok
    assert [f.j for f in report.failing] == [6, 12]

    report = strength_profile(163, 41, 8)
    assert report.theorem_main_ok
    assert [f.j for f in report.failing] == [2, 4, 6, 8]

    assert enumerate_shell(2, 3).points == ((-1, -1), (-1, 1), (1, -1), (1, 1))
    report = strength_profile(2, 3, 8)
    assert report.theorem_main_ok
    assert [f.j for f in report.failing] == [2, 4, 6, 8]


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_witnesses_are_reproducible_shell_sums(D):
    for r in (2, 4, 18, 49):
        if not enumerate_shell(D, r).points:
            continue
        report = strength_profile(D, r, 2 * ring_data(D).unit_count + 1)
        for f in report.failing:
            r_sum = shell_sum(D, basis_poly(D, f.j, BasisKind.REAL_PART).poly, r)
            assert f.witness == r_sum and f.witness != 0
            assert type(f.witness) is int
        covered = set(report.vanishing) | {f.j for f in report.failing}
        assert covered == set(range(1, report.j_max + 1))


def test_design_report_json_shape():
    report = strength_profile(3, 691, 6)
    assert (report.D, report.r, report.j_max) == (3, 691, 6)
    assert report.vanishing == (1, 2, 3, 4, 5)
    assert [(f.j, f.witness) for f in report.failing] == [(6, -2409417348)]
    payload = report_json(report)
    assert json.loads(_report_text(report)) == payload
    assert payload == {
        "D": 3,
        "r": 691,
        "jmax": 6,
        "vanishing": [1, 2, 3, 4, 5],
        "failing": [{"j": 6, "witness": "-2409417348/1"}],
        "theorem_main_ok": True,
    }


@pytest.mark.parametrize("jmax_of", ["1", "u_D", "13", "40"])
@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_theorem_main_ok_is_false_on_any_forged_degree(monkeypatch, D, jmax_of):
    # theorem_main_ok compares the failing degrees with u_D, 2*u_D, ... as
    # lists. Forge the shell sums one degree at a time: a nonzero sum off the
    # multiples of u_D, or a zero on one, must each make it False, and so
    # must the sum at u_D moved to degree 1.
    u = ring_data(D).unit_count
    jmax = u if jmax_of == "u_D" else int(jmax_of)
    forged = []
    monkeypatch.setattr(design, "basis_shell_sums_upto", lambda shell, j_max: forged)
    for r in (1, next(r for r in range(2, 50) if is_representable(D, r))):
        true_sums = basis_shell_sums_upto(enumerate_shell(D, r), jmax)
        forged[:] = true_sums
        assert strength_profile(D, r, jmax).theorem_main_ok
        for j in range(1, jmax + 1):
            forged[:] = true_sums
            forged[j - 1] = 0 if j % u == 0 else 1
            assert not strength_profile(D, r, jmax).theorem_main_ok, (r, j)
        if jmax >= u:  # as many failing degrees as expected, one at the wrong j
            forged[:] = true_sums
            forged[0], forged[u - 1] = forged[u - 1], forged[0]
            assert not strength_profile(D, r, jmax).theorem_main_ok, r


# -- quadrature ----------------------------------------------------------------


def test_quadrature_normalization_examples():
    one = BivarPoly({(0, 0): 1})
    assert quadrature_average(1, 1, one, 256) == pytest.approx(1.0, abs=1e-12)
    q3 = parse_poly("x^2+x*y+y^2")
    assert quadrature_average(3, 1, q3, 256) == pytest.approx(1.0, abs=1e-12)
    assert quadrature_average(1, 1, parse_poly("x^2"), 256) == pytest.approx(
        0.5, abs=1e-12
    )


def test_quadrature_node_validation():
    one = BivarPoly({(0, 0): 1})
    with pytest.raises(ValueError):
        quadrature_average(1, 1, one, 100)  # not a power of two
    with pytest.raises(ValueError):
        quadrature_average(1, 1, one, 8)  # too few
    with pytest.raises(ValueError):
        quadrature_average(1, 0, one, 256)
    with pytest.raises(ValueError, match="at most 2"):
        quadrature_average(1, 1, one, 2 * MAX_NODES)


# a coefficient of 10^400 has no float; the error blames it, not r
BIG_COEFFICIENT = "1" + "0" * 400 + "*x^2"


@pytest.mark.parametrize(
    "D,r,poly",
    [
        (1, 10**400, "x^2"),
        (1, 10**306, "1000*x^2"),
        (1, 10**306, "1000*x^2-1000*y^2"),
        # the weight's quadratic form overflows, so the weight would read 0
        # and the average of 1 would come out near 0.31
        (163, 10**306, "1"),
        (1, 1, BIG_COEFFICIENT),
    ],
)
def test_quadrature_outside_the_float_range_is_a_value_error(D, r, poly):
    with pytest.raises(ValueError, match="float range") as err:
        quadrature_average(D, r, parse_poly(poly), 256)
    assert str(r) not in str(err.value)
    blamed = "a coefficient of P" if poly == BIG_COEFFICIENT else "at r of"
    assert blamed in str(err.value)


def test_quadrature_coefficient_below_the_float_range_rounds_to_zero():
    # 1/10^400 rounds to 0.0, as float() rounds it, and the average is 0.0
    P = parse_poly("1/1" + "0" * 400 + "*x^2")
    assert repr(quadrature_average(1, 1, P, 256)) == "0.0"


def _float_coefficients(P):
    """P with each coefficient c replaced by the float nearest to it."""
    return BivarPoly({m: Fraction(float(c)) for m, c in P.terms.items()})


# numerators and denominators past 2^53, so that a coefficient rounded
# twice (numerator, then quotient) shows
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.fractions(-(10**30), 10**30, max_denominator=10**25),
    max_size=8,
).map(BivarPoly)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    st.one_of(polys, wide_polys),
    st.sampled_from(ADMISSIBLE_D),
    st.sampled_from((1, 2, 691)),
)
def test_quadrature_rounds_each_coefficient_once(P, D, r):
    # each coefficient enters as float(c), correctly rounded, and only once:
    # the exact float coefficients give the same float, bit for bit
    expected = quadrature_average(D, r, _float_coefficients(P), 32)
    assert repr(quadrature_average(D, r, P, 32)) == repr(expected)


def test_quadrature_coefficient_size_costs_one_division():
    # (10^60000 - 1)/(10^60000 - 3) rounds to 1.0; at 16 384 nodes a division
    # per node took about 0.8 s, one division per call takes milliseconds
    P = BivarPoly({(2, 0): Fraction(10**60000 - 1, 10**60000 - 3)})
    expected = quadrature_average(1, 1, _float_coefficients(P), 2**14)
    assert repr(quadrature_average(1, 1, P, 2**14)) == repr(expected)


@pytest.mark.parametrize("M", (16, 32, 64))
def test_quadrature_exact_moments_below_node_count(M):
    """On the unit circle the average of x^(2k) is C(2k, k) / 4^k."""
    for two_k in range(0, M, 2):
        value = quadrature_average(1, 1, BivarPoly({(two_k, 0): 1}), M)
        exact = math.comb(two_k, two_k // 2) / 4 ** (two_k // 2)
        assert value == pytest.approx(exact, rel=1e-12, abs=1e-15), (M, two_k)


@pytest.mark.parametrize("M", (16, 32, 64))
def test_quadrature_rejects_degree_at_or_above_node_count(M):
    for two_k in (M, M + 2, 2 * M + 8):
        with pytest.raises(ValueError, match="exceed the polynomial degree"):
            quadrature_average(1, 1, BivarPoly({(two_k, 0): 1}), M)
    with pytest.raises(ValueError):  # total degree, not the x or y degree
        quadrature_average(1, 1, BivarPoly({(M // 2, M // 2): 1}), M)


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
    """weight(gamma(theta)) * |gamma'(theta)| does not depend on theta."""
    curve, weight, _ = _ellipse_parametrization(D, r)
    values = []
    for k in range(64):
        x, y, dx, dy = curve(2 * math.pi * k / 64)
        values.append(weight(x, y) * math.hypot(dx, dy))
    expected = math.sqrt(D) if D % 4 in (1, 2) else 1 / (2 * math.sqrt(D))
    for v in values:
        assert abs(v - values[0]) < 1e-12
        assert v == pytest.approx(expected, abs=1e-12)


def _paper_weight(D, x, y):
    """The paper's weight on the norm ellipse, one formula per family of w."""
    if D % 4 in (1, 2):
        return 1.0 / math.sqrt(x * x / (D * D) + y * y)
    return 1.0 / math.sqrt(
        20.0 * x * x + (D * D + 2.0 * D + 5.0) * y * y + (20.0 + 4.0 * D) * x * y
    )


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("r", (1, 691, 10**300))
def test_weight_is_the_papers_formula_bit_for_bit(D, r):
    curve, weight, _ = _ellipse_parametrization(D, r)
    for node in range(4096):
        x, y, _, _ = curve(2 * math.pi * node / 4096)
        assert repr(weight(x, y)) == repr(_paper_weight(D, x, y)), (D, r, node)


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
                discrete = float(
                    sum(p.evaluate(x, y) for x, y in shell.points)
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
        assert abs(norm_form(D, x, y) - 1.0) < 1e-9


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
            mono = BivarPoly({(i, k): 1})
            discrete = sum(
                float(mono.evaluate(Fraction(x), Fraction(y))) for x, y in mapped
            ) / n
            integral = quadrature_average(D, 1, mono, 256)
            assert abs(discrete - integral) < 1e-9, (D, t, i, k)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_design_size_bound(D):
    """A shell that averages all degrees <= t has at least t+1 points."""
    for r in range(1, 51):
        shell = enumerate_shell(D, r)
        if not shell.points:
            continue
        report = strength_profile(D, r, 2 * ring_data(D).unit_count + 1)
        strength = 0
        for j in range(1, report.j_max + 1):
            if j in report.vanishing:
                strength = j
            else:
                break
        assert len(shell.points) >= strength + 1, (D, r)
