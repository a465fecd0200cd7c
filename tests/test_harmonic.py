import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign.harmonic import (
    BasisKind,
    BivarPoly,
    PolyParseError,
    basis_pair,
    basis_poly,
    decompose,
    evaluate,
    format_poly,
    in_span,
    norm_form_poly,
    parse_poly,
)
from normdesign.ring import ADMISSIBLE_D


def poly(text):
    return parse_poly(text)


def random_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def horner_reference(P, x, y):
    """Reference for evaluate: Fraction Horner in y inside Horner in x."""
    x = Fraction(x)
    y = Fraction(y)
    by_x = {}
    for (i, k), c in P.terms.items():
        by_x.setdefault(i, {})[k] = c
    total = Fraction(0)
    for i in sorted(by_x, reverse=True):
        inner = by_x[i]
        acc = Fraction(0)
        for k in range(max(inner), -1, -1):
            acc = acc * y + inner.get(k, Fraction(0))
        total += acc * x**i
    return total


# Fixed example order keeps the suite reproducible run to run.
PROPERTY = settings(deadline=None, derandomize=True, max_examples=200)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
coefficients = st.one_of(st.integers(-1000, 1000), fractions)
polys = st.one_of(
    st.just(BivarPoly.zero()),
    coefficients.map(BivarPoly.constant),
    st.dictionaries(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), coefficients, max_size=8
    ).map(BivarPoly),
)
int_points = st.integers(-10**6, 10**6)
rational_points = st.one_of(int_points, fractions)


# -- BivarPoly basics ---------------------------------------------------------


def test_terms_normalized():
    p = BivarPoly({(1, 0): Fraction(1, 2), (0, 0): 0})
    assert p.terms == {(1, 0): Fraction(1, 2)}
    assert (p - p).is_zero
    assert BivarPoly.zero().degree == -1


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})


def test_evaluate_examples():
    assert evaluate(poly("x^2-y^2"), 1, 1) == 0
    assert evaluate(poly("2*x^2+3462*x*y+1729*y^2"), 11, 19) == 1347969
    assert evaluate(poly("x^2+x*y+y^2"), 11, 19) == 691


def test_evaluate_rational_points():
    p = poly("x^3-3*x*y^2")
    rng = random.Random(7)
    for _ in range(30):
        a = random_fraction(rng)
        b = random_fraction(rng)
        assert p.evaluate(a, b) == a**3 - 3 * a * b**2


@PROPERTY
@given(polys, int_points, int_points)
def test_evaluate_matches_horner_at_int_points(P, x, y):
    assert P.evaluate(x, y) == horner_reference(P, x, y)


@PROPERTY
@given(polys, fractions, fractions)
def test_evaluate_matches_horner_at_fraction_points(P, x, y):
    assert P.evaluate(x, y) == horner_reference(P, x, y)


@PROPERTY
@given(polys, rational_points, rational_points)
def test_evaluate_matches_horner_at_mixed_points(P, x, y):
    value = P.evaluate(x, y)
    assert type(value) is Fraction
    assert value == horner_reference(P, x, y)
    assert P.evaluate(y, x) == horner_reference(P, y, x)


@PROPERTY
@given(
    polys,
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    fractions.map(str),
    rational_points,
)
def test_evaluate_converts_float_and_str_like_fraction(P, f, text, q):
    assert P.evaluate(f, q) == P.evaluate(Fraction(f), q)
    assert P.evaluate(q, text) == P.evaluate(q, Fraction(text))
    assert P.evaluate(f, text) == horner_reference(P, Fraction(f), Fraction(text))


def test_evaluate_cache_is_invisible_to_equality():
    p = poly("1/2*x^3-2/3*y")
    q = poly("1/2*x^3-2/3*y")
    p.evaluate(Fraction(1, 3), 2)  # builds p's integer form, not q's
    assert p == q and hash(p) == hash(q)
    assert p.evaluate(5, Fraction(-7, 4)) == horner_reference(p, 5, Fraction(-7, 4))


def test_poly_arithmetic():
    q = norm_form_poly(1)
    assert q == poly("x^2+y^2")
    assert q**2 == poly("x^4+2*x^2*y^2+y^4")
    assert q * 2 - q == q
    assert norm_form_poly(3) == poly("x^2+x*y+y^2")
    assert norm_form_poly(7) == poly("x^2+x*y+2*y^2")


# -- text format --------------------------------------------------------------


def test_format_matches_documented_example():
    p = poly("2*x^2+3462*x*y+1729*y^2")
    assert format_poly(p) == "2*x^2+3462*x*y+1729*y^2"


def test_parse_fractions_signs_and_spaces():
    p = parse_poly(" -1/2*y^3 + x ")
    assert p.terms == {(0, 3): Fraction(-1, 2), (1, 0): Fraction(1)}
    assert parse_poly("0").is_zero
    assert parse_poly("3").terms == {(0, 0): Fraction(3)}
    assert parse_poly("x*y*x").terms == {(2, 1): Fraction(1)}


def test_round_trip_random_polys():
    rng = random.Random(99)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 5), rng.randint(0, 5))] = random_fraction(rng)
        p = BivarPoly(terms)
        assert parse_poly(format_poly(p)) == p


@PROPERTY
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
        max_size=10,
    ).map(BivarPoly)
)
def test_round_trip_property(P):
    assert parse_poly(format_poly(P)) == P


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^2+oops", 4),
        ("", 0),
        ("2**x", 2),
        ("x^", 2),
        ("1/0", 2),
        ("+", 1),
        ("x y", 2),
        ("2*", 2),
        ("x*y*", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert err.value.position == position


# -- basis polynomials ---------------------------------------------------------


def test_basis_poly_examples():
    r12 = basis_poly(1, 2, BasisKind.REAL_PART)
    assert r12.poly == poly("x^2-y^2")
    assert r12.radical is False

    r32 = basis_poly(3, 2, BasisKind.REAL_PART)
    assert r32.poly == poly("x^2+x*y-1/2*y^2")

    i32 = basis_poly(3, 2, BasisKind.IMAG_PART)
    assert i32.poly == poly("x*y+1/2*y^2")
    assert i32.radical is True


def test_basis_poly_rejects_degree_zero():
    with pytest.raises(ValueError):
        basis_poly(1, 0, BasisKind.REAL_PART)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 13))
def test_basis_is_homogeneous_with_dyadic_denominators(D, j):
    for kind in BasisKind:
        element = basis_poly(D, j, kind)
        p = element.poly
        assert p.is_homogeneous and p.degree == j
        for c in p.terms.values():
            denom = c.denominator
            assert denom & (denom - 1) == 0  # power of two
            if D % 4 in (1, 2):
                assert denom == 1


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 13))
def test_basis_pair_linearly_independent(D, j):
    R, Iq = basis_pair(D, j)
    coords_r = [R.coefficient(j - m, m) for m in range(j + 1)]
    coords_i = [Iq.coefficient(j - m, m) for m in range(j + 1)]
    # exact rank-2 check: some 2x2 minor is nonzero
    assert any(
        coords_r[a] * coords_i[b] - coords_r[b] * coords_i[a] != 0
        for a in range(j + 1)
        for b in range(a + 1, j + 1)
    )


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 9))
def test_real_basis_is_harmonic_in_straightened_coordinates(D, j):
    """R_{D,j} equals Re(x' + i y')^j with x'^2, y'^2 rational in (x, y)."""
    if D % 4 in (1, 2):
        x_prime = BivarPoly.monomial(1, 0)
        y_prime_sq = BivarPoly.monomial(0, 2, D)
    else:
        x_prime = BivarPoly({(1, 0): 1, (0, 1): Fraction(1, 2)})
        y_prime_sq = BivarPoly.monomial(0, 2, Fraction(D, 4))
    expected = BivarPoly.zero()
    for n in range(j // 2 + 1):
        expected = expected + (
            x_prime ** (j - 2 * n) * y_prime_sq**n * ((-1) ** n * math.comb(j, 2 * n))
        )
    R, _ = basis_pair(D, j)
    assert R == expected


@pytest.mark.parametrize("D", (1, 2))
@pytest.mark.parametrize("j", (1, 3, 5, 7, 9, 11, 13))
def test_odd_degree_imag_monomials_have_odd_y_exponent(D, j):
    _, Iq = basis_pair(D, j)
    assert all(k % 2 == 1 for _, k in Iq.terms)


# -- span membership ------------------------------------------------------------


def test_in_span_examples():
    assert in_span(3, 2, poly("2*x^2+3462*x*y+1729*y^2")) == (2, 3460)
    assert in_span(1, 2, poly("x^2+y^2")) is None
    assert in_span(1, 3, poly("x^3-3*x*y^2")) == (1, 0)


def test_in_span_validates_input():
    with pytest.raises(ValueError):
        in_span(1, 2, poly("x^2+x"))  # not homogeneous
    with pytest.raises(ValueError):
        in_span(1, 3, poly("x^2-y^2"))  # wrong degree
    with pytest.raises(ValueError):
        in_span(1, 2, BivarPoly.zero())


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 9))
def test_in_span_recovers_random_combinations(D, j):
    R, Iq = basis_pair(D, j)
    rng = random.Random(100 * D + j)
    for _ in range(10):
        a = random_fraction(rng)
        b = random_fraction(rng)
        combo = a * R + b * Iq
        if combo.is_zero:
            continue
        assert in_span(D, j, combo) == (a, b)


def test_in_span_rejects_outside_vectors():
    # q itself is never in the span, any D: the span is trace-free
    for D in (1, 2, 3, 7):
        assert in_span(D, 2, norm_form_poly(D)) is None


# -- decomposition --------------------------------------------------------------


def test_decompose_examples():
    assert decompose(1, poly("x^2+y^2")) == ((0, 0, 0), (1, 1, 0))
    assert decompose(1, poly("x^2")) == (
        (0, Fraction(1, 2), 0),
        (1, Fraction(1, 2), 0),
    )
    # frozen from an exact pre-build solve, cross-checked below by evaluation
    assert decompose(3, poly("x^4")) == (
        (0, Fraction(-1, 9), Fraction(-1, 3)),
        (1, Fraction(4, 9), Fraction(-4, 3)),
        (2, Fraction(2, 3), 0),
    )


def test_decompose_validates_input():
    with pytest.raises(ValueError):
        decompose(1, poly("x^2+x"))
    assert decompose(1, BivarPoly.zero()) == ()
    assert decompose(1, poly("5")) == ((0, 5, 0),)


def reconstruct(D, layers, j):
    q = norm_form_poly(D)
    total = BivarPoly.zero()
    for k, a_k, b_k in layers:
        if j - 2 * k >= 1:
            R, Iq = basis_pair(D, j - 2 * k)
            total = total + q**k * (a_k * R + b_k * Iq)
        else:
            total = total + a_k * q**k
    return total


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(0, 7))
def test_decompose_reconstructs_random_homogeneous_polys(D, j):
    rng = random.Random(17 * D + j)
    for _ in range(4):
        P = BivarPoly({(j - m, m): random_fraction(rng) for m in range(j + 1)})
        if P.is_zero:
            continue
        layers = decompose(D, P)
        assert [k for k, _, _ in layers] == list(range(j // 2 + 1))
        rebuilt = reconstruct(D, layers, j)
        assert rebuilt == P  # exact polynomial identity
        for _ in range(50):
            a = random_fraction(rng)
            b = random_fraction(rng)
            assert rebuilt.evaluate(a, b) == P.evaluate(a, b)
