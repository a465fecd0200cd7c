import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign import arith, design, harmonic, ring, shells, theta
from normdesign.harmonic import BivarPoly
from normdesign.ring import (
    ADMISSIBLE_D,
    RingData,
    conj,
    discriminant,
    mul,
    norm_form,
    parts,
    powers,
    ring_data,
)


def rho_sigma(D):
    """w = rho + sigma*sqrt(-D): rho = t/2 and sigma = sigma2/2, both rational."""
    R = ring_data(D)
    return Fraction(R.t, 2), Fraction(R.sigma2, 2)


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
        discriminant(bad)
    with pytest.raises(ValueError) as expected:
        ring_data(bad)
    # mul reads its own per-D table, and falls back to ring_data's error
    with pytest.raises(ValueError) as got:
        mul(bad, (1, 0), (1, 0))
    assert str(got.value) == str(expected.value)


# Each call is also wrong in its next argument: D must be the one reported.
D_FIRST = {
    "splitting_type": lambda: arith.splitting_type(5, 4),
    "is_representable": lambda: arith.is_representable(5, 0),
    "strength_profile": lambda: design.strength_profile(5, 0, 3),
    "quadrature_average": lambda: design.quadrature_average(
        5, 0, BivarPoly({(0, 0): 1}), 3
    ),
    "basis_poly": lambda: harmonic.basis_poly(5, 0, harmonic.BasisKind.REAL_PART),
    "decompose": lambda: harmonic.decompose(5, BivarPoly({(1, 0): 1, (0, 0): 1})),
    "theta_series": lambda: theta.theta_series(5, BivarPoly({(0, 0): 1}), 0),
    "a_norm": lambda: theta.a_norm(5, 0, -1),
    "a_prime_closed_form": lambda: theta.a_prime_closed_form(5, 0, 4),
    "hecke_verify": lambda: theta.hecke_verify(5, 0, 4, 0),
}


@pytest.mark.parametrize("call", D_FIRST.values(), ids=D_FIRST.keys())
def test_inadmissible_d_is_reported_before_other_arguments(call):
    with pytest.raises(ValueError, match=r"^D must be one of .*, got 5$"):
        call()


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_norm_nonnegative_and_definite(D):
    for a in range(-6, 7):
        for b in range(-6, 7):
            n = norm_form(D, a, b)
            assert n >= 0
            assert (n == 0) == (a == 0 and b == 0)


def test_unit_group_examples():
    assert set(ring_data(1).units) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(ring_data(3).units) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }
    assert set(ring_data(11).units) == {(1, 0), (-1, 0)}


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_unit_group_matches_brute_force(D):
    units = ring_data(D).units
    assert len(units) == ring_data(D).unit_count
    assert set(units) == brute_force_units(D)
    # closed under negation and multiplication
    for u in units:
        assert (-u[0], -u[1]) in units
        for v in units:
            uv = mul(D, u, v)
            assert uv in units
            assert norm_form(D, *uv) == 1


def test_mul_examples():
    assert mul(1, (0, 1), (0, 1)) == (-1, 0)
    assert mul(3, (0, 1), (0, 1)) == (-1, 1)
    assert mul(2, (1, 1), (1, -1)) == (3, 0)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_mul_commutative_associative_and_norm_multiplicative(D):
    rng = random.Random(1000 + D)
    for _ in range(40):
        u = (rng.randint(-50, 50), rng.randint(-50, 50))
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        w = (rng.randint(-50, 50), rng.randint(-50, 50))
        assert mul(D, u, v) == mul(D, v, u)
        assert mul(D, mul(D, u, v), w) == mul(D, u, mul(D, v, w))
        assert norm_form(D, *mul(D, u, v)) == norm_form(D, *u) * norm_form(D, *v)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_conj_gives_the_norm(D):
    rng = random.Random(2000 + D)
    for _ in range(25):
        u = (rng.randint(-40, 40), rng.randint(-40, 40))
        assert mul(D, u, conj(D, u)) == (norm_form(D, *u), 0)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_parts_reads_rho_and_sigma(D):
    rho, sigma = rho_sigma(D)
    assert parts(D, (0, 0)) == (0, 0)
    assert parts(D, (5, 0)) == (5, 0)
    # w itself: a zero integer part does not make the element zero
    assert parts(D, (0, 1)) == (rho, sigma)
    assert parts(D, (3, -2)) == (3 - 2 * rho, -2 * sigma)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_powers_repeat_mul_and_parts_match_the_embedding(D):
    R = ring_data(D)
    rng = random.Random(3000 + D)
    for _ in range(20):
        u = (rng.randint(-30, 30), rng.randint(-30, 30))
        e = rng.randint(0, 12)
        got = powers(D, u, e)
        assert len(got) == e + 1
        expected = (1, 0)
        for k in range(e + 1):
            assert got[k] == expected, (u, e, k)
            expected = mul(D, expected, u)
        # a + b*w sits at (a + b*Re w, b*Im w), and Im w = sigma*sqrt(D)
        a, b = got[e]
        re, im_over_root = parts(D, (a, b))
        scale = max(1.0, abs(a) + abs(b))
        assert abs(float(re) - (a + b * R.t / 2)) <= 1e-12 * scale
        assert abs(float(im_over_root) - b * R.im_w / math.sqrt(D)) <= 1e-12 * scale


admissible = st.sampled_from(ADMISSIBLE_D)
small_ints = st.integers(-10**6, 10**6)
small_fractions = st.fractions(-100, 100, max_denominator=50)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    admissible,
    st.one_of(
        st.tuples(small_ints, small_ints), st.tuples(small_fractions, small_fractions)
    ),
)
def test_parts_is_a_plus_b_rho_and_b_sigma(D, u):
    rho, sigma = rho_sigma(D)
    a, b = u
    got = parts(D, u)
    assert got == (a + b * rho, b * sigma)
    assert type(got[0]) is Fraction and type(got[1]) is Fraction


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
    assert (R.t, R.n, *rho_sigma(D)) == (t, n, rho, sigma)
    assert R.disc == t * t - 4 * n
    assert w * w == pytest.approx(t * w - n, abs=1e-12)
    assert mul(D, (0, 1), (0, 1)) == (-n, t)
    assert (R.t / 2, R.im_w) == pytest.approx((w.real, w.imag), abs=1e-12)
    assert R.unit_count == len(R.units)
    assert R.units == tuple(sorted(brute_force_units(D)))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_embed_squared_length_matches_norm(D):
    """a + b*w sits at (a + b*Re w, b*Im w) in C, at squared length N(a + b*w)."""
    R = ring_data(D)

    def embed(a, b):
        return a + b * R.t / 2, b * R.im_w

    for a in range(-100, 101):
        for b in range(-100, 101):
            re, im = embed(a, b)
            n = norm_form(D, a, b)
            assert round(re * re + im * im) == n
            if n:
                assert abs((re * re + im * im) - n) / n < 1e-12
    # large coordinates below 2**50 keep relative error tiny
    big = 2**49 + 12345
    re, im = embed(big, -big)
    n = norm_form(D, big, -big)
    assert abs((re * re + im * im) - n) / n < 1e-12


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 13))
def test_unit_power_sums(D, j):
    """Sum of alpha^j over the units: 0 unless u_D | j, else u_D."""
    total = (0, 0)
    for alpha in ring_data(D).units:
        power = (1, 0)
        for _ in range(j):  # repeated mul on purpose
            power = mul(D, power, alpha)
        total = (total[0] + power[0], total[1] + power[1])
    u = ring_data(D).unit_count
    if j % u == 0:
        assert total == (u, 0)
    else:
        assert total == (0, 0)


def test_ring_data_holds_only_what_the_library_reads():
    """w's parts are derived from t and sigma2; u_D is read from the record."""
    assert RingData._fields == (
        "t", "n", "disc", "unit_count", "units", "sigma2", "im_w"
    )
    assert not hasattr(ring, "unit_count")


HUGE = 10**40  # past 64 bits: named as "more than 2^132" / "less than -2^132"
POLY = BivarPoly({(1, 0): 1})


@pytest.mark.parametrize(
    "call,shown",
    [
        (lambda: design.strength_profile(1, 5, HUGE), "got more than 2^132"),
        (lambda: theta.theta_series(1, POLY, -HUGE), "got less than -2^132"),
        (lambda: theta.a_norm(1, -HUGE, 5), "got less than -2^132"),
        (lambda: theta.a_prime_closed_form(1, 4, -HUGE), "got less than -2^132"),
        (lambda: harmonic.basis_poly(1, -HUGE, harmonic.BasisKind.REAL_PART),
         "got less than -2^132"),
        (lambda: shells.enumerate_shell(1, -HUGE), "got less than -2^132"),
        (lambda: arith.factorize(-HUGE), "got less than -2^132"),
        (lambda: arith.is_representable(1, -HUGE), "got less than -2^132"),
        (lambda: arith.splitting_type(1, -HUGE), "got less than -2^132"),
    ],
)
def test_input_errors_name_large_values_by_size(call, shown):
    with pytest.raises(ring.InputError) as info:
        call()
    assert str(info.value).endswith(shown)


def test_input_error_is_a_value_error():
    # library callers that catch ValueError see no change
    assert issubclass(ring.InputError, ValueError)
    assert issubclass(harmonic.PolyParseError, ring.InputError)
    with pytest.raises(ValueError):
        ring_data(5)
