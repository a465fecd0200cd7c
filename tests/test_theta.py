import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign import theta
from normdesign.cli import run
from normdesign.arith import is_prime, splitting_type
from normdesign.harmonic import BasisKind, BivarPoly, basis_poly, parse_poly
from normdesign.ring import ADMISSIBLE_D, SplitType, norm_form, unit_count
from normdesign.shells import enumerate_shell
from normdesign.theta import (
    a_norm,
    a_prime_closed_form,
    basis_shell_sums_upto,
    format_rational,
    hecke_verify,
    shell_sum,
    theta_series,
)

Q6 = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"


def primes_up_to(n):
    # is_prime is checked against a sieve in test_arith
    return [p for p in range(n + 1) if is_prime(p)]


def basis_sums(D, j, r):
    """(sum of R_{D,j}, sum of I_{D,j}/sqrt(D)) over the norm r shell."""
    return basis_shell_sums_upto(enumerate_shell(D, r), j)[j - 1]


def test_shell_sum_examples():
    assert shell_sum(3, parse_poly("2*x^2+3462*x*y+1729*y^2"), 691) == 0
    assert shell_sum(3, parse_poly(Q6), 691) == -4818834696
    assert shell_sum(1, parse_poly("x^2-y^2"), 1) == 0
    assert shell_sum(1, parse_poly("x^2"), 3) == 0  # empty shell


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 7))
def test_basis_sums_agree_with_generic_evaluation(D, j):
    """The integral-basis power route against plain polynomial evaluation."""
    R = basis_poly(D, j, BasisKind.REAL_PART).poly
    Iq = basis_poly(D, j, BasisKind.IMAG_PART).poly
    for r in (1, 2, 4, 25, 49, 90, 121):
        r_sum, i_sum = basis_sums(D, j, r)
        assert r_sum == shell_sum(D, R, r), (D, j, r)
        assert i_sum == shell_sum(D, Iq, r), (D, j, r)


def test_theta_series_representation_counts():
    ones = parse_poly("1")
    assert theta_series(1, ones, 5) == (1, 4, 4, 0, 4, 8)
    assert theta_series(3, ones, 3) == (1, 6, 0, 6)


def test_theta_series_vanishing_tail():
    assert all(c == 0 for c in theta_series(1, parse_poly("x^2-y^2"), 10))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_theta_series_matches_per_shell_sums(D):
    p = parse_poly("x^2+2*x*y-y^2")
    series = theta_series(D, p, 40)
    for r in range(41):
        assert series[r] == shell_sum(D, p, r), (D, r)


def _monomials(parity):
    return st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda m: sum(m) % 2 == parity and sum(m) > 0
    )


_COEFFS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def mixed_polys(draw):
    """A constant plus odd- and even-degree terms, all with Fraction coefficients."""
    terms = {(0, 0): draw(_COEFFS)}
    terms.update(draw(st.dictionaries(_monomials(1), _COEFFS, max_size=4)))
    terms.update(draw(st.dictionaries(_monomials(0), _COEFFS, max_size=4)))
    return BivarPoly(terms)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.sampled_from(ADMISSIBLE_D), mixed_polys(), st.integers(1, 60))
def test_theta_series_matches_all_point_shell_sums(D, P, r_max):
    """The +-z paired walk against shell_sum, which evaluates every point."""
    series = theta_series(D, P, r_max)
    assert len(series) == r_max + 1
    for r in range(r_max + 1):
        assert series[r] == shell_sum(D, P, r), (D, P, r)


ODD_ONLY = "x^3-2*x*y^2+5/3*y+x^2*y^5"


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_theta_series_of_odd_only_poly_is_zero_without_a_walk(D, monkeypatch):
    def no_walk(D, bound):
        raise AssertionError("the lattice was walked")

    monkeypatch.setattr(theta, "_half_lattice_norms_upto", no_walk)
    assert theta_series(D, parse_poly(ODD_ONLY), 40) == (0,) * 41


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_theta_series_of_constant_plus_odd_terms_counts_points(D):
    c = Fraction(-7, 3)
    series = theta_series(D, parse_poly(ODD_ONLY + "-7/3"), 60)
    for r in range(61):
        assert series[r] == c * len(enumerate_shell(D, r).points), (D, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("bound", [1, 2, 3, 50, 257])
def test_half_walk_takes_one_point_of_each_pair(D, bound):
    walked = list(theta._half_lattice_norms_upto(D, bound))
    for x, y, n in walked:
        assert n == norm_form(D, x, y), (x, y, n)
    half = {(x, y) for x, y, _ in walked}
    assert len(half) == len(walked)
    assert not half & {(-x, -y) for x, y in half}
    box = 2 + isqrt(4 * bound)
    ball = {
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if 0 < norm_form(D, x, y) <= bound
    }
    assert half | {(-x, -y) for x, y in half} == ball


def test_theta_series_rejects_bad_rmax():
    with pytest.raises(ValueError):
        theta_series(1, parse_poly("x"), 0)


def test_a_norm_examples():
    assert a_norm(7, 2, 2) == -3
    assert a_norm(1, 4, 2) == -4  # (1+i)^4
    assert a_norm(1, 4, 5) == -14
    assert a_norm(3, 6, 691) == -401569558


def test_a_norm_at_zero_and_validation():
    for D in ADMISSIBLE_D:
        assert a_norm(D, 3, 0) == 0
    with pytest.raises(ValueError):
        a_norm(1, 0, 5)
    with pytest.raises(ValueError):
        a_norm(1, 2, -1)


def test_cuspidality_of_basis_sums_at_zero():
    for D in ADMISSIBLE_D:
        for j in range(1, 11):
            r_sum, i_sum = basis_sums(D, j, 0)
            assert r_sum == 0 and i_sum == 0


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_imag_sums_vanish_for_even_degrees(D):
    for j in (2, 4, 6, 8, 10, 12):
        for r in range(1, 101):
            assert basis_sums(D, j, r)[1] == 0, (D, j, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_real_sums_vanish_off_unit_multiples(D):
    u = unit_count(D)
    for j in range(1, 14):
        if j % u == 0:
            continue
        for r in range(1, 101):
            assert a_norm(D, j, r) == 0, (D, j, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_both_sums_vanish_for_odd_degrees(D):
    for j in (1, 3, 5, 7, 9, 11, 13):
        for r in range(1, 101):
            r_sum, i_sum = basis_sums(D, j, r)
            assert r_sum == 0 and i_sum == 0, (D, j, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_integrality_on_unit_multiples(D):
    u = unit_count(D)
    multiples = [j for j in range(1, 13) if j % u == 0]
    for r in range(1, 301):
        shell = enumerate_shell(D, r)
        if not shell.points:
            continue
        sums = basis_shell_sums_upto(shell, 12)
        for j in multiples:
            assert (sums[j - 1][0] / u).denominator == 1, (D, j, r)


def test_a_prime_closed_form_examples():
    assert a_prime_closed_form(7, 2, 2) == -3  # split: 2 * (-3/2)
    assert a_prime_closed_form(1, 4, 2) == -4  # ramified: Re (1+i)^4
    assert a_prime_closed_form(2, 4, 2) == 4  # ramified: Re (sqrt(-2))^4
    assert a_prime_closed_form(2, 4, 2) == a_norm(2, 4, 2)


def test_a_prime_closed_form_validation():
    with pytest.raises(ValueError):
        a_prime_closed_form(1, 4, 3)  # inert: empty shell
    with pytest.raises(ValueError):
        a_prime_closed_form(1, 2, 2)  # j not a multiple of u_D
    with pytest.raises(ValueError):
        a_prime_closed_form(1, 4, 6)  # not prime


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_a_prime_closed_form_matches_shell_sums(D):
    u = unit_count(D)
    for j in (u, 2 * u):
        for p in primes_up_to(60):
            if splitting_type(D, p) is SplitType.INERT:
                continue
            assert a_prime_closed_form(D, j, p) == a_norm(D, j, p), (D, j, p)


def test_certified_prime_two_values():
    # a(1,j,2) = Re (1+i)^j in the 1/u_D normalization
    for j, expected in ((4, -4), (8, 16), (12, -64)):
        assert a_norm(1, j, 2) == expected
    # a(2,j,2) = Re (i*sqrt2)^j; the j+1 exponent variant does not hold
    for j, expected in ((2, -2), (4, 4), (6, -8), (8, 16)):
        assert a_norm(2, j, 2) == expected
        assert a_norm(2, j, 2) != Fraction((-1) ** (j // 2) * 2 ** (j + 1))


def test_oddness_of_d7_coefficients_at_two():
    for j in (2, 4, 6, 8, 10, 12):
        value = a_norm(7, j, 2)
        assert value.denominator == 1 and value.numerator % 2 == 1


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_nonvanishing_mod_p_at_odd_split_primes(D):
    u = unit_count(D)
    for j in (u, 2 * u):
        for p in primes_up_to(100):
            if p == 2 or splitting_type(D, p) is not SplitType.SPLIT:
                continue
            value = a_norm(D, j, p)
            assert value.denominator == 1
            assert value.numerator % p != 0, (D, j, p)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_odd_ramified_primes_vanish_mod_p_but_not_over_z(D):
    # at an odd ramified prime the shell is the unit orbit of sqrt(-D),
    # so the coefficient is (-D)^(j/2): nonzero, yet divisible by p = D
    u = unit_count(D)
    for p in primes_up_to(200):
        if p == 2 or splitting_type(D, p) is not SplitType.RAMIFIED:
            continue
        for j in (u, 2 * u):
            value = a_norm(D, j, p)
            assert value == Fraction(-D) ** (j // 2)
            assert value != 0
            assert value.numerator % p == 0


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_inert_prime_squares(D):
    u = unit_count(D)
    for j in (u, 2 * u):
        for p in primes_up_to(20):
            if splitting_type(D, p) is not SplitType.INERT:
                continue
            for alpha in (2, 4):
                assert a_norm(D, j, p**alpha) == Fraction(p) ** (
                    j * alpha // 2
                ), (D, j, p, alpha)


def test_hecke_verify_examples():
    report = hecke_verify(1, 4, 5, 2, [(2, 11)])
    assert report.all_passed
    recursion = [c for c in report.checks if c.identity == "prime-power-recursion"]
    assert recursion[0].left == -429
    assert a_norm(1, 4, 25) == -429

    report = hecke_verify(1, 4, 3, 2)
    assert report.all_passed
    assert a_norm(1, 4, 9) == 81

    report = hecke_verify(7, 2, 3, 2, [(2, 11)])
    mult = [c for c in report.checks if c.identity == "multiplicativity"]
    assert mult[0].left == a_norm(7, 2, 22)
    assert mult[0].right == a_norm(7, 2, 2) * a_norm(7, 2, 11)
    assert mult[0].passed


def test_hecke_checks_are_integers():
    report = hecke_verify(1, 4, 5, 3, [(2, 11), (3, 7), (4, 9)])
    assert report.all_passed
    for check in report.checks:
        assert type(check.left) is int, check
        assert type(check.right) is int, check
    assert format_rational(report.checks[0].left) == f"{report.checks[0].left}/1"


def test_hecke_verify_rejects_a_non_integer_coefficient(monkeypatch):
    monkeypatch.setattr(theta, "a_norm", lambda D, j, r: Fraction(1, 2))
    with pytest.raises(ArithmeticError):
        hecke_verify(1, 4, 5, 3, [(2, 11)])


def test_hecke_verify_validation():
    with pytest.raises(ValueError):
        hecke_verify(1, 3, 5, 2)  # j not a multiple of u_D
    with pytest.raises(ValueError):
        hecke_verify(1, 4, 4, 2)  # p not prime
    with pytest.raises(ValueError):
        hecke_verify(1, 4, 5, 1)  # alpha_max too small
    with pytest.raises(ValueError):
        hecke_verify(1, 4, 5, 2, [(2, 4)])  # pair not coprime


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_hecke_identities_small_grid(D):
    u = unit_count(D)
    pairs = [(2, 3), (3, 4), (2, 9), (4, 9), (5, 6)]
    for p in (2, 3, 5, 7):
        report = hecke_verify(D, u, p, 3, pairs)
        assert report.all_passed, (D, p)


def test_theta_json_round_trip(capsys):
    poly = "x^2+x*y+y^2"
    assert run(["theta", "3", "--poly", poly, "--rmax", "8", "--format", "json"]) == 0
    loaded = json.loads(capsys.readouterr().out)
    assert loaded["D"] == 3
    assert loaded["poly"] == poly
    series = theta_series(3, parse_poly(poly), 8)
    assert tuple(Fraction(c) for c in loaded["coeffs"]) == series
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(5)) == "5/1"
    assert Fraction("5/1") == 5
