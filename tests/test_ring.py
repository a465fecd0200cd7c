import cmath
import math
import random
from fractions import Fraction

import pytest

from normdesign.ring import (
    ADMISSIBLE_D,
    QuadInt,
    discriminant,
    embed,
    mul,
    norm_form,
    ring_data,
    unit_count,
    unit_group,
)


def brute_force_units(D):
    """Independent route: all norm-1 points with |a|, |b| <= 2."""
    return {
        (a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if norm_form(D, a, b) == 1
    }


def test_norm_form_examples():
    assert norm_form(3, 11, 19) == 691
    assert norm_form(1, 0, 0) == 0
    assert norm_form(7, 0, 1) == 2


@pytest.mark.parametrize("bad", [0, -1, 4, 5, 6, 15, 164])
def test_inadmissible_d_rejected(bad):
    with pytest.raises(ValueError):
        norm_form(bad, 1, 0)
    with pytest.raises(ValueError):
        QuadInt(bad, 1, 0)
    with pytest.raises(ValueError):
        discriminant(bad)
    with pytest.raises(ValueError):
        unit_group(bad)
    with pytest.raises(ValueError):
        ring_data(bad)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_norm_nonnegative_and_definite(D):
    for a in range(-6, 7):
        for b in range(-6, 7):
            n = norm_form(D, a, b)
            assert n >= 0
            assert (n == 0) == (a == 0 and b == 0)


def test_unit_group_examples():
    assert {u.coords() for u in unit_group(1)} == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert {u.coords() for u in unit_group(3)} == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }
    assert {u.coords() for u in unit_group(11)} == {(1, 0), (-1, 0)}


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_unit_group_matches_brute_force(D):
    units = unit_group(D)
    assert len(units) == unit_count(D)
    assert {u.coords() for u in units} == brute_force_units(D)
    # closed under negation and multiplication
    coords = {u.coords() for u in units}
    for u in units:
        assert (-u).coords() in coords
        for v in units:
            assert (u * v).coords() in coords
            assert (u * v).norm() == 1


def test_mul_examples():
    assert mul(QuadInt(1, 0, 1), QuadInt(1, 0, 1)) == QuadInt(1, -1, 0)
    assert mul(QuadInt(3, 0, 1), QuadInt(3, 0, 1)) == QuadInt(3, -1, 1)
    assert mul(QuadInt(2, 1, 1), QuadInt(2, 1, -1)) == QuadInt(2, 3, 0)


def test_mul_rejects_mixed_rings():
    with pytest.raises(ValueError):
        mul(QuadInt(1, 1, 0), QuadInt(2, 1, 0))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_mul_commutative_associative_and_norm_multiplicative(D):
    rng = random.Random(1000 + D)
    for _ in range(40):
        u = QuadInt(D, rng.randint(-50, 50), rng.randint(-50, 50))
        v = QuadInt(D, rng.randint(-50, 50), rng.randint(-50, 50))
        w = QuadInt(D, rng.randint(-50, 50), rng.randint(-50, 50))
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert (u * v).norm() == u.norm() * v.norm()


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_conj_gives_the_norm(D):
    rng = random.Random(2000 + D)
    for _ in range(25):
        u = QuadInt(D, rng.randint(-40, 40), rng.randint(-40, 40))
        assert u * u.conj() == QuadInt(D, u.norm(), 0)


def test_discriminant_examples():
    assert discriminant(1) == -4
    assert discriminant(7) == -7
    assert discriminant(2) == -8
    for D in ADMISSIBLE_D:
        if D % 4 == 3:
            assert discriminant(D) == -D
        else:
            assert discriminant(D) == -4 * D


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_ring_data_matches_w(D):
    """The record against w = sqrt(-D) for D = 1, 2, (1 + sqrt(-D))/2 otherwise."""
    R = ring_data(D)
    if D % 4 in (1, 2):
        t, n, rho, sigma, w = 0, D, Fraction(0), Fraction(1), cmath.sqrt(-D)
    else:
        t, n = 1, (1 + D) // 4
        rho, sigma, w = Fraction(1, 2), Fraction(1, 2), (1 + cmath.sqrt(-D)) / 2
    assert (R.t, R.n, R.rho, R.sigma) == (t, n, rho, sigma)
    assert R.disc == t * t - 4 * n
    assert w * w == pytest.approx(t * w - n, abs=1e-12)
    assert QuadInt(D, 0, 1) * QuadInt(D, 0, 1) == QuadInt(D, -n, t)
    assert (R.re_w, R.im_w) == pytest.approx((w.real, w.imag), abs=1e-12)
    assert R.unit_count == len(R.units) == unit_count(D)
    assert R.units == tuple(sorted(brute_force_units(D)))


def test_embed_examples():
    assert embed(QuadInt(1, 1, 1)) == (1.0, 1.0)
    re, im = embed(QuadInt(3, 0, 2))
    assert re == pytest.approx(1.0, abs=1e-15)
    assert im == pytest.approx(math.sqrt(3), abs=1e-12)
    re, im = embed(QuadInt(2, 0, 1))
    assert re == 0.0
    assert im == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_embed_squared_length_matches_norm(D):
    for a in range(-100, 101):
        for b in range(-100, 101):
            re, im = embed(QuadInt(D, a, b))
            n = norm_form(D, a, b)
            assert round(re * re + im * im) == n
            if n:
                assert abs((re * re + im * im) - n) / n < 1e-12
    # large coordinates below 2**50 keep relative error tiny
    big = 2**49 + 12345
    re, im = embed(QuadInt(D, big, -big))
    n = norm_form(D, big, -big)
    assert abs((re * re + im * im) - n) / n < 1e-12


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 13))
def test_unit_power_sums(D, j):
    """Sum of alpha^j over the units: 0 unless u_D | j, else u_D."""
    total = QuadInt(D, 0, 0)
    for alpha in unit_group(D):
        power = QuadInt(D, 1, 0)
        for _ in range(j):  # repeated mul on purpose
            power = mul(power, alpha)
        total = total + power
    if j % unit_count(D) == 0:
        assert total == QuadInt(D, unit_count(D), 0)
    else:
        assert total == QuadInt(D, 0, 0)
