import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign.harmonic import (
    BasisKind,
    BivarPoly,
    HarmonicBasisElement,
    PolyParseError,
    basis_poly,
    decompose,
    format_poly,
    parse_poly,
)
from normdesign.ring import ADMISSIBLE_D, parts, powers, ring_data


def poly(text):
    return parse_poly(text)


def norm_form_poly(D):
    """The norm form x^2 + t*x*y + n*y^2 of O_D."""
    R = ring_data(D)
    return BivarPoly({(2, 0): 1, (1, 1): R.t, (0, 2): R.n})


def lincomb(*pairs):
    """The sum of c * P over the (c, P) pairs, on term dicts."""
    terms = {}
    for c, P in pairs:
        for m, v in P.terms.items():
            terms[m] = terms.get(m, 0) + c * v
    return BivarPoly(terms)


def product(*factors):
    """The product of the factors, on term dicts; 1 when there are none."""
    terms = {(0, 0): 1}
    for P in factors:
        out = {}
        for (i1, k1), c1 in terms.items():
            for (i2, k2), c2 in P.terms.items():
                m = (i1 + i2, k1 + k2)
                out[m] = out.get(m, 0) + c1 * c2
        terms = out
    return BivarPoly(terms)


def basis_pair(D, j):
    """(R_{D,j}, I_{D,j}/sqrt(D)) as rational polynomials."""
    return (
        basis_poly(D, j, BasisKind.REAL_PART).poly,
        basis_poly(D, j, BasisKind.IMAG_PART).poly,
    )


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
    st.just(BivarPoly()),
    coefficients.map(lambda c: BivarPoly({(0, 0): c})),
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
    assert BivarPoly([((1, 0), Fraction(1, 2)), ((1, 0), Fraction(-1, 2))]).is_zero
    assert BivarPoly().degree == -1


def test_coefficients_are_integers_over_one_denominator():
    p = BivarPoly({(1, 0): Fraction(2, 4), (0, 1): Fraction(1, 3)})
    assert p.den == 6
    assert p.numerators == {(1, 0): 3, (0, 1): 2}
    assert BivarPoly.__slots__ == ("den", "numerators")
    assert not hasattr(p, "integer_form")
    assert not hasattr(BivarPoly, "coefficient")  # terms is the one reader
    zero = BivarPoly({(2, 1): 0, (0, 0): Fraction(0, 5)})
    assert zero.den == 1 and zero.numerators == {}
    # split, rescaled and cancelling inputs of one polynomial give one state
    same = [
        p,
        BivarPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 6)}),
        BivarPoly([((0, 1), Fraction(1, 6)), ((1, 0), 1), ((0, 1), Fraction(1, 6)),
                   ((1, 0), Fraction(-1, 2)), ((3, 3), 7), ((3, 3), -7)]),
    ]
    for q in same:
        assert (q.den, q.numerators, hash(q)) == (6, p.numerators, hash(p))
        assert q == p
    assert BivarPoly({(1, 0): 3, (0, 1): 2}) != p  # the numerators alone


DELETED_ALGEBRA = (
    "zero", "constant", "monomial",
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
)


def test_bivar_poly_has_no_ring_algebra():
    """BivarPoly(terms) is the one constructor, and it has no operators."""
    for name in DELETED_ALGEBRA:
        assert not hasattr(BivarPoly, name), name


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})


def test_evaluate_examples():
    assert poly("x^2-y^2").evaluate(1, 1) == 0
    assert poly("2*x^2+3462*x*y+1729*y^2").evaluate(11, 19) == 1347969
    assert poly("x^2+x*y+y^2").evaluate(11, 19) == 691


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


def test_evaluate_rejects_inexact_points():
    p = poly("1/2*x^3-2/3*x*y")
    for point in ((0.5, 2), (2, Decimal("0.5")), ("1/2", "3")):
        with pytest.raises(TypeError):
            p.evaluate(*point)
    # the constructor takes the same two types as coefficients: 0.1 would
    # read as 3602879701896397/36028797018963968 and "1/3" parse as text
    for c in (0.1, "1/3", Decimal("0.5")):
        with pytest.raises(TypeError, match="int or Fraction"):
            BivarPoly({(1, 0): c})
    assert BivarPoly({(1, 0): True}).numerators == {(1, 0): 1}


def test_evaluate_rejects_a_str_point_before_any_product():
    # t * "ab" with t = 3*10^30 would raise OverflowError (or, for a smaller
    # t, build a string of t copies) before the TypeError at the sum
    p = poly("3000000000000000000000000000000*x+y")
    for point in (("ab", 0), (0, "ab"), ("ab", "cd")):
        with pytest.raises(TypeError, match="int or Fraction"):
            p.evaluate(*point)


def test_evaluate_takes_one_power_per_term():
    # a list of every power of 0 up to 10^7 + 1 would take about 80 MB
    P = BivarPoly({(10**7 + 1, 0): 1})
    tracemalloc.start()
    try:
        assert P.evaluate(0, 0) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_evaluate_cache_is_invisible_to_equality():
    p = poly("1/2*x^3-2/3*y")
    q = poly("1/2*x^3-2/3*y")
    p.evaluate(Fraction(1, 3), 2)  # leaves no state behind in p
    assert p == q and hash(p) == hash(q)
    assert p.evaluate(5, Fraction(-7, 4)) == horner_reference(p, 5, Fraction(-7, 4))


def test_poly_arithmetic():
    q = norm_form_poly(1)
    assert q == poly("x^2+y^2")
    assert norm_form_poly(3) == poly("x^2+x*y+y^2")
    assert norm_form_poly(7) == poly("x^2+x*y+2*y^2")


# -- text format --------------------------------------------------------------


def test_format_matches_documented_example():
    p = poly("2*x^2+3462*x*y+1729*y^2")
    assert format_poly(p) == "2*x^2+3462*x*y+1729*y^2"


def test_str_repr_and_equality_with_other_types():
    p = poly("-1/2*y^3+x")
    assert str(p) == format_poly(p) == "x-1/2*y^3"
    assert repr(p) == "BivarPoly('x-1/2*y^3')"
    assert str(BivarPoly()) == "0"
    # a non-polynomial is never equal, and == does not raise
    assert p.__eq__("x-1/2*y^3") is NotImplemented
    assert p != "x-1/2*y^3" and p != 0


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


PARSE_ERRORS = [
    ("x^2+oops", 4, "unexpected character 'o'"),
    ("", 0, "empty polynomial"),
    ("2**x", 2, "expected a factor"),
    ("x^", 2, "expected an exponent"),
    ("1/0", 2, "zero denominator"),
    ("+", 1, "empty term"),
    ("x y", 2, "expected '*', '+' or '-'"),
    ("2*", 2, "dangling '*'"),
    ("x*y*", 4, "dangling '*'"),
    ("1/", 2, "expected a denominator"),
    ("x^y", 2, "expected an exponent"),
    ("x+", 2, "empty term"),
    ("-", 1, "empty term"),
    ("2 3", 2, "expected '*', '+' or '-'"),
    ("x*-y", 2, "expected a factor"),
    ("/", 0, "expected a factor"),
    ("x^2^3", 3, "expected '*', '+' or '-'"),
    ("--x", 1, "expected a factor"),
]


@pytest.mark.parametrize(
    "text,position,message",
    PARSE_ERRORS,
    ids=[f"{text}-{position}" for text, position, _ in PARSE_ERRORS],
)
def test_parse_errors_carry_positions(text, position, message):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert err.value.position == position
    assert str(err.value).startswith(message), str(err.value)


# -- basis polynomials ---------------------------------------------------------


def test_basis_poly_examples():
    r12 = basis_poly(1, 2, BasisKind.REAL_PART)
    assert r12.poly == poly("x^2-y^2")
    # kind says which part was asked for; the wrapper carries only poly
    assert HarmonicBasisElement._fields == ("poly",)

    r32 = basis_poly(3, 2, BasisKind.REAL_PART)
    assert r32.poly == poly("x^2+x*y-1/2*y^2")

    i32 = basis_poly(3, 2, BasisKind.IMAG_PART)
    assert i32.poly == poly("x*y+1/2*y^2")


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
    r_terms, i_terms = R.terms, Iq.terms
    coords_r = [r_terms.get((j - m, m), 0) for m in range(j + 1)]
    coords_i = [i_terms.get((j - m, m), 0) for m in range(j + 1)]
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
        x_prime = BivarPoly({(1, 0): 1})
        y_prime_sq = BivarPoly({(0, 2): D})
    else:
        x_prime = BivarPoly({(1, 0): 1, (0, 1): Fraction(1, 2)})
        y_prime_sq = BivarPoly({(0, 2): Fraction(D, 4)})
    expected = lincomb(
        *(
            (
                (-1) ** n * math.comb(j, 2 * n),
                product(*[x_prime] * (j - 2 * n), *[y_prime_sq] * n),
            )
            for n in range(j // 2 + 1)
        )
    )
    R, _ = basis_pair(D, j)
    assert R == expected


@pytest.mark.parametrize("D", (1, 2))
@pytest.mark.parametrize("j", (1, 3, 5, 7, 9, 11, 13))
def test_odd_degree_imag_monomials_have_odd_y_exponent(D, j):
    _, Iq = basis_pair(D, j)
    assert all(k % 2 == 1 for _, k in Iq.terms)


# -- Fraction oracles for the int routes ----------------------------------------


def canonical_reference(terms):
    """(den, numerators) from Fraction sums: den is the LCM of the reduced
    coefficients' denominators, each numerator the coefficient times den."""
    acc = {}
    for m, c in terms:
        acc[m] = acc.get(m, 0) + Fraction(c)
    coeffs = {m: c for m, c in acc.items() if c}
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}


def state(P):
    return P.den, P.numerators


def basis_reference(D, j, kind):
    """C(j, m) * w^m split into Fraction parts by ring.parts, term by term."""
    part = 0 if kind is BasisKind.REAL_PART else 1
    return canonical_reference(
        ((j - m, m), math.comb(j, m) * parts(D, w_m)[part])
        for m, w_m in enumerate(powers(D, (0, 1), j))
    )


def parse_reference(text):
    """Fraction products per term for a text parse_poly accepts, through BivarPoly."""
    terms = []
    for sign, body in re.findall(r"([+-]?)([^+-]+)", re.sub(r"\s", "", text)):
        coeff, exps = Fraction(-1 if sign == "-" else 1), [0, 0]
        for factor in body.split("*"):
            if factor[0] in "xy":
                exps["xy".index(factor[0])] += int(factor[2:] or 1)
            else:
                num, _, den = factor.partition("/")
                coeff *= Fraction(int(num), int(den or 1))
        terms.append(((exps[0], exps[1]), coeff))
    return BivarPoly(terms), terms


def format_reference(P):
    """format_poly on the Fraction coefficients of P.terms."""
    if P.is_zero:
        return "0"
    pieces = []
    terms = P.terms
    for i, k in sorted(terms, key=lambda m: (m[0] + m[1], -m[0])):
        c = terms[i, k]
        mag = abs(c)
        factors = []
        if mag != 1 or (i == 0 and k == 0):
            factors.append(str(mag.numerator) if mag.denominator == 1 else
                           f"{mag.numerator}/{mag.denominator}")
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if k:
            factors.append("y" if k == 1 else f"y^{k}")
        sign = "-" if c < 0 else ("+" if pieces else "")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces)


@pytest.mark.parametrize("kind", BasisKind)
@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_basis_poly_matches_the_parts_expansion(D, kind):
    for j in (*range(1, 61), 1000):
        P = basis_poly(D, j, kind).poly
        assert state(P) == basis_reference(D, j, kind), j
        if j <= 60:
            assert format_poly(P) == format_reference(P), j


CANCELLING = ["x-x", "6/4*x+2/4*y", "0*x", "2/4", "-0", "x+x", "0*x+1/3",
              "6/4*x^2-2/4*y^2", "1/2*x*y-2/4*y*x+3/9", "x^2*3*y-3*x^2*y+1/6*2*x"]


@pytest.mark.parametrize("text", CANCELLING)
def test_parse_poly_matches_the_fraction_parse_on_cancellations(text):
    P = parse_poly(text)
    reference, terms = parse_reference(text)
    assert state(P) == state(reference) == canonical_reference(terms)
    assert format_poly(P) == format_reference(P)


# a few monomials, so repeats are common; coefficients include 0 and
# reducible fractions such as 6/4; a term may be followed by its negation
_monomial_texts = st.sampled_from(["", "x", "y", "x*y", "x^2", "y^3*x", "x^2*y^2"])
_coefficient_texts = st.one_of(
    st.just(""),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@st.composite
def poly_texts(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        coeff, mono = draw(_coefficient_texts), draw(_monomial_texts)
        term = "*".join(f for f in (coeff, mono) if f) or "1"
        sign = draw(st.sampled_from(["+", "-"]))
        pieces.append(sign + term)
        if draw(st.booleans()):
            pieces.append(("-" if sign == "+" else "+") + term)
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text


@PROPERTY
@given(poly_texts())
def test_parse_and_format_match_the_fraction_routes(text):
    P = parse_poly(text)
    reference, terms = parse_reference(text)
    assert state(P) == state(reference) == canonical_reference(terms)
    shown = format_poly(P)
    assert shown == format_reference(P)
    assert state(parse_poly(shown)) == state(P)


@PROPERTY
@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          coefficients), max_size=12))
def test_constructor_matches_the_fraction_sums(terms):
    # each term again with its sign flipped on half of them: cancellations
    terms += [(m, -c) for m, c in terms[::2]]
    assert state(BivarPoly(terms)) == canonical_reference(terms)


# -- span membership, read off decompose ---------------------------------------
# P lies in the span of {R_{D,j}, I_{D,j}/sqrt(D)} exactly when decompose puts
# its coordinates in layer 0 and zeros above it.


def span_layers(j, a, b):
    """decompose's layers for a*R_j + b*I_j/sqrt(D)."""
    return ((0, a, b),) + tuple((k, 0, 0) for k in range(1, j // 2 + 1))


def test_in_span_examples():
    assert decompose(3, poly("2*x^2+3462*x*y+1729*y^2")) == span_layers(2, 2, 3460)
    assert decompose(1, poly("x^2+y^2")) == ((0, 0, 0), (1, 1, 0))
    assert decompose(1, poly("x^3-3*x*y^2")) == span_layers(3, 1, 0)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(1, 9))
def test_in_span_recovers_random_combinations(D, j):
    R, Iq = basis_pair(D, j)
    rng = random.Random(100 * D + j)
    for _ in range(10):
        a = random_fraction(rng)
        b = random_fraction(rng)
        combo = lincomb((a, R), (b, Iq))
        if combo.is_zero:
            continue
        assert decompose(D, combo) == span_layers(j, a, b)


def test_in_span_rejects_outside_vectors():
    # q itself is never in the span, any D: the span is trace-free
    for D in (1, 2, 3, 7):
        assert decompose(D, norm_form_poly(D)) == ((0, 0, 0), (1, 1, 0))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(3, 9))
def test_in_span_rejects_a_nonzero_norm_form_layer(D, j):
    """a*R_j + b*Iq_j + c*q*R_{j-2} has layer 1 = (c, 0), off the span when c != 0."""
    R, Iq = basis_pair(D, j)
    q_layer = product(norm_form_poly(D), basis_pair(D, j - 2)[0])
    rng = random.Random(31 * D + j)
    for _ in range(5):
        a = random_fraction(rng)
        b = random_fraction(rng)
        c = random_fraction(rng) or Fraction(1)
        combo = lincomb((a, R), (b, Iq), (c, q_layer))
        assert decompose(D, combo) == ((0, a, b), (1, c, 0)) + span_layers(j, a, b)[2:]


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
    assert decompose(1, BivarPoly()) == ()
    assert decompose(1, poly("5")) == ((0, 5, 0),)


def reconstruct(D, layers, j):
    q = norm_form_poly(D)
    pieces = []
    for k, a_k, b_k in layers:
        q_k = product(*[q] * k)
        if j - 2 * k >= 1:
            R, Iq = basis_pair(D, j - 2 * k)
            pieces.append((1, product(q_k, lincomb((a_k, R), (b_k, Iq)))))
        else:
            pieces.append((a_k, q_k))
    return lincomb(*pieces)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("j", range(0, 13))
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
