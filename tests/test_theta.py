import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign import design, theta
from normdesign.cli import COPRIME_PAIRS, MAX_DEGREE, run
from normdesign.arith import (
    factorize,
    is_prime,
    is_representable,
    kronecker,
    splitting_type,
)
from normdesign.harmonic import BasisKind, BivarPoly, basis_poly, parse_poly
from normdesign.ring import (
    ADMISSIBLE_D,
    SplitType,
    discriminant,
    norm_form,
    parts,
    powers,
    ring_data,
)
from normdesign.shells import (
    Shell,
    enumerate_shell,
    half_ball_rows,
    shell_from_factorization,
)
from normdesign.theta import (
    HeckeCheck,
    HeckeReport,
    a_norm,
    a_prime_closed_form,
    basis_shell_sums_upto,
    format_rational,
    hecke_verify,
    power_sums,
    shell_sum,
    theta_series,
)

Q6 = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"


def primes_up_to(n):
    # is_prime is checked against a sieve in test_arith
    return [p for p in range(n + 1) if is_prime(p)]


def basis_sums(D, j, r):
    """(sum of R_{D,j}, sum of I_{D,j}/sqrt(D)) over the norm r shell.

    The real half is basis_shell_sums_upto's int. The imaginary half is
    read apart from it, from power_sums' w-coordinate b: sigma2*b/2.
    """
    shell = enumerate_shell(D, r)
    sb = power_sums(shell, j)[j - 1][1]
    return basis_shell_sums_upto(shell, j)[j - 1], Fraction(ring_data(D).sigma2 * sb, 2)


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
        assert type(r_sum) is int
        assert r_sum == shell_sum(D, R, r), (D, j, r)
        assert i_sum == shell_sum(D, Iq, r) == 0, (D, j, r)


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

    # theta_series reads the walker through its own binding
    monkeypatch.setattr(theta, "half_ball_rows", no_walk)
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
    rows = list(half_ball_rows(D, bound))
    walked = [(x, y) for y, xs in rows for x in xs]
    for x, y in walked:
        assert 0 < norm_form(D, x, y) <= bound, (x, y)
    half = set(walked)
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
    # rows come in order y = 0, 1, ..., and each row y >= 1 is whole
    assert [y for y, _ in rows] == list(range(max(y for _, y in ball) + 1))
    for y, xs in rows[1:]:
        assert type(xs) is range and xs.step == 1
        assert set(xs) == {x for x, yy in ball if yy == y}, (D, bound, y)


WIDE_ROW_CASES = {
    "basis12": lambda D: basis_poly(D, 12, BasisKind.REAL_PART).poly,
    "dense20": lambda D: BivarPoly(
        ((i, d - i), Fraction((3 * i + 7 * d) % 13 - 6, 1 + (i + 2 * d) % 9))
        for d in range(21)
        for i in range(d + 1)
    ),
    "y_only": lambda D: parse_poly("3/4*y^6-y^4+5/2*y^2+y-1/3"),
    "x_only": lambda D: parse_poly("-2/5*x^8+x^5+7*x^2-3/7"),
    # odd terms over 7 and 11, even over 3 and 5: the even part's own
    # denominator, 15, is not P's, 1155
    "mixed_dens": lambda D: parse_poly(
        "1/7*x^3-5/11*x*y^2+2/3*x^2*y^2-4/5*y^4+1/3*x^2+1/5"
    ),
}


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize("case", sorted(WIDE_ROW_CASES))
def test_theta_series_matches_shell_sums_on_wide_rows(case, D):
    """Every r <= 400, so the walk folds rows of up to about 40 points."""
    P = WIDE_ROW_CASES[case](D)
    series = theta_series(D, P, 400)
    for r in range(401):
        assert series[r] == shell_sum(D, P, r), (case, D, r)


def test_theta_series_evaluates_only_at_the_origin(monkeypatch):
    points = []
    evaluate = BivarPoly.evaluate

    def counting(self, x, y):
        points.append((x, y))
        return evaluate(self, x, y)

    monkeypatch.setattr(BivarPoly, "evaluate", counting)
    for D, P in [(1, parse_poly(Q6)), (163, parse_poly(ODD_ONLY + "-7/3"))]:
        points.clear()
        theta_series(D, P, 300)
        assert points == [(0, 0)], D


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


a_norm_case = st.tuples(
    st.sampled_from(ADMISSIBLE_D),
    st.integers(1, 30),
    st.one_of(
        st.integers(0, 3000),
        # norms of lattice points, so most shells are nonempty
        st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    ),
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(a_norm_case)
def test_a_norm_matches_the_power_sums_route(case):
    D, j, r = case
    if isinstance(r, tuple):
        r = norm_form(D, *r)
    old = parts(D, power_sums(enumerate_shell(D, r), j)[j - 1])[0] / ring_data(D).unit_count
    assert a_norm(D, j, r) == old


POWER_SUMS_JMAX = (1, 2, 13, 40)


def power_oracle(D, points, j_max):
    """[(sum of a, sum of b) over z^j = a + b*w for j = 1..j_max].

    One ring.powers list per point serves every degree.
    """
    sa, sb = [0] * j_max, [0] * j_max
    for z in points:
        for i, (a, b) in enumerate(powers(D, z, j_max)[1:]):
            sa[i] += a
            sb[i] += b
    return list(zip(sa, sb))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_power_sums_match_the_power_oracle(D):
    """Each entry of power_sums against the sum of ring.powers(D, z, j)[j].

    Every representable r <= 500 (scanned shells) and three large norms
    (factored shells): two near 10^9 and 10^18 + 9, which is empty for
    some D. j_max = 1 takes no product at all. Odd degrees vanish
    over a whole shell (z -> -z), so each shell is also summed over one
    point of each +-z pair, where they need not.
    """
    scanned = [r for r in range(1, 501) if is_representable(D, r)]
    factored = [norm_form(D, 31622, 17), norm_form(D, 25000, 2000), 10**18 + 9]
    shells = [enumerate_shell(D, r) for r in scanned]
    shells += [shell_from_factorization(D, r) for r in factored]
    for whole in shells:
        r = whole.r
        half = Shell(D, r, tuple(z for z in whole.points if z > (0, 0)))
        for shell in (whole, half):
            oracle = power_oracle(D, shell.points, 40)
            for j_max in POWER_SUMS_JMAX:
                assert power_sums(shell, j_max) == oracle[:j_max], (D, r, j_max)


_COORD = st.integers(-(10**6), 10**6)


@st.composite
def kernel_shells(draw):
    """(shell, j_max) for power_sums, with no symmetry to lean on.

    A single point of any norm with |x|, |y| <= 10^6, among them points of
    trace s = 2x + t*y = 0 and real points (y = 0); or a scanned shell, whole
    or an arbitrary subset of its points.
    """
    D = draw(st.sampled_from(ADMISSIBLE_D))
    t = ring_data(D).t
    kind = draw(st.sampled_from(("point", "trace 0", "real", "whole", "subset")))
    if kind in ("whole", "subset"):
        shell = enumerate_shell(D, draw(st.integers(0, 3000)))
        if kind == "subset":
            n = len(shell.points)
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            points = tuple(z for z, k in zip(shell.points, keep) if k)
            shell = Shell(D, shell.r, points)
    else:
        x, y = draw(_COORD), draw(_COORD)
        if kind == "trace 0":
            x, y = (x, -2 * x) if t else (0, y)
        elif kind == "real":
            y = 0
        shell = Shell(D, norm_form(D, x, y), ((x, y),))
    return shell, draw(st.integers(0, 40))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(kernel_shells())
def test_power_sums_match_the_power_oracle_on_any_points(case):
    shell, j_max = case
    assert power_sums(shell, j_max) == power_oracle(shell.D, shell.points, j_max)


def kernel_edge_shells(D):
    """name -> Shell: the point sets at the edges of power_sums' zero skips.

    z = 1 + w has y != 0, trace 2 + t != 0, and conj z is neither z nor -z.
    {z, conj z} has a nonzero odd part, so the odd updates must be taken;
    {z, -z} has a zero odd part but a nonzero y sum in its even part, so
    the even b update must be taken. The trace-0 group is w0 and -w0 with
    w0 = (0, 1) for t = 0 and (-1, 2) for t = 1, both of norm D.
    """
    t = ring_data(D).t
    z = (1, 1)
    r = norm_form(D, *z)
    w0 = (-1, 2) if t else (0, 1)
    return {
        "one point": Shell(D, r, (z,)),
        "z, conj z": Shell(D, r, (z, (1 + t, -1))),
        "z, -z": Shell(D, r, (z, (-1, -1))),
        "trace-0 point": Shell(D, D, (w0,)),
        "trace-0 group": Shell(D, D, (w0, (-w0[0], -w0[1]))),
        "whole shell": enumerate_shell(D, r),
    }


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_power_sums_at_the_edges_of_the_zero_skips(D):
    """Each edge shape against the power oracle at every j_max in 1..41.

    Odd and even j_max end the two-degree loop on either half. The shapes
    whose odd sums, or even b sums, are not 0 would be wrong if a skip fired
    on them.
    """
    for name, shell in kernel_edge_shells(D).items():
        assert len(set(shell.points)) == len(shell.points), (D, name)
        oracle = power_oracle(D, shell.points, 41)
        for j_max in range(1, 42):
            assert power_sums(shell, j_max) == oracle[:j_max], (D, name, j_max)
        odd_sums = [s for j, s in enumerate(oracle, start=1) if j % 2]
        even_b = [b for j, (_, b) in enumerate(oracle, start=1) if j % 2 == 0]
        if name == "z, conj z":
            assert any(sa or sb for sa, sb in odd_sums), D
        if name == "z, -z":
            assert any(even_b) and not any(sa or sb for sa, sb in odd_sums), D


def test_power_sums_assert_each_point_has_the_shell_norm():
    five, ten = enumerate_shell(1, 5).points, enumerate_shell(1, 10).points
    # the norm 10 shell is closed under conjugation, so b = 0 would not see it
    for D, r, points in ((1, 5, ten), (1, 5, five + ((1, 1),)), (3, 4, ((0, 1),))):
        with pytest.raises(AssertionError, match="has norm"):
            power_sums(Shell(D, r, points), 3)
    assert power_sums(Shell(1, 5, ten), 0) == []  # no degree, no point read


def test_verify_reports_a_wrong_norm_point_as_an_internal_error(monkeypatch, capsys):
    def mislabelled(D, r):
        return Shell(D, r, enumerate_shell(D, 2 * r).points)

    monkeypatch.setattr(design, "shell_from_factorization", mislabelled)
    assert run(["verify", "1", "5", "--jmax", "13"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1
    assert "has norm 10" in captured.err


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


def test_basis_sums_assert_a_conjugation_closed_shell():
    whole = enumerate_shell(1, 5)
    upper = Shell(1, 5, tuple((x, y) for x, y in whole.points if y > 0))
    assert power_sums(upper, 1) == [(0, 6)]  # 6i: the I_{1,1} sum is not 0
    assert basis_shell_sums_upto(whole, 4) == [0, 0, 0, -56]
    with pytest.raises(AssertionError):
        basis_shell_sums_upto(upper, 4)


def test_a_norm_asserts_a_real_shell_sum(monkeypatch, capsys):
    real = theta.enumerate_shell

    def first_point_only(D, r):
        return Shell(D, r, real(D, r).points[:1])

    monkeypatch.setattr(theta, "enumerate_shell", first_point_only)
    assert powers(1, theta.enumerate_shell(1, 5).points[0], 4)[4] == (-7, 24)
    with pytest.raises(AssertionError):
        a_norm(1, 4, 5)
    assert run(["hecke", "1", "--j", "4", "--p", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal error: ")


_A_NORM_NORMS = {
    D: [r for r in range(1, 2001) if is_representable(D, r)] for D in ADMISSIBLE_D
}


@st.composite
def a_norm_oracle_cases(draw):
    """(D, j, r): j up to cli.MAX_DEGREE, r a representable norm <= 2000 or p^3."""
    D = draw(st.sampled_from(ADMISSIBLE_D))
    j = draw(st.one_of(st.integers(1, 40), st.integers(1, MAX_DEGREE)))
    cubes = st.sampled_from([p**3 for p in (2, 3, 5, 7, 11, 1009)])
    r = draw(st.one_of(st.sampled_from(_A_NORM_NORMS[D]), cubes))
    return D, j, r


@settings(deadline=None, derandomize=True, max_examples=150)
@given(a_norm_oracle_cases())
def test_a_norm_matches_the_per_point_oracle(case):
    """a_norm against the sum of powers(D, z, j)[j] over the scanned shell."""
    D, j, r = case
    sa, sb = power_oracle(D, enumerate_shell(D, r).points, j)[j - 1]
    assert sb == 0
    assert a_norm(D, j, r) == Fraction(sa, ring_data(D).unit_count)


def a_norm_edge_shells(D):
    """name -> Shell closed under conjugation, so a_norm's b sum is 0.

    Over a whole shell every odd degree sums to 0 (z -> -z), so a wrong odd
    branch of a_norm's ladder would pass there; {z, conj z} with z = 1 + w
    has nonzero odd sums. (3, 0) and (-3, 0) are groups on the row y = 0,
    alone and as one trace's +- pair; {w0, -w0} is a group of trace 0.
    """
    t = ring_data(D).t
    z = (1, 1)
    r = norm_form(D, *z)
    w0 = (-1, 2) if t else (0, 1)
    return {
        "z, conj z": Shell(D, r, (z, (1 + t, -1))),
        "real point": Shell(D, 9, ((3, 0),)),
        "real +- pair": Shell(D, 9, ((-3, 0), (3, 0))),
        "trace-0 group": Shell(D, D, (w0, (-w0[0], -w0[1]))),
        "whole shell": enumerate_shell(D, r),
    }


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_a_norm_at_the_ladder_edges(D, monkeypatch):
    """Each edge shape, scanned through theta.enumerate_shell, against the
    per-point oracle at every j in 1..41 and at 97 and cli.MAX_DEGREE."""
    u = ring_data(D).unit_count
    degrees = [*range(1, 42), 97, MAX_DEGREE]
    for name, shell in a_norm_edge_shells(D).items():
        monkeypatch.setattr(theta, "enumerate_shell", lambda *_: shell)
        oracle = power_oracle(D, shell.points, MAX_DEGREE)
        for j in degrees:
            sa, sb = oracle[j - 1]
            assert sb == 0, (D, name, j)
            assert a_norm(D, j, shell.r) == Fraction(sa, u), (D, name, j)
        if name in ("z, conj z", "real point"):
            assert any(oracle[j - 1][0] for j in degrees if j % 2), (D, name)


def test_a_norm_asserts_each_point_has_the_shell_norm(monkeypatch, capsys):
    # (r + 1, 0) is real, so a_norm's b sum cannot see that it is off the shell
    def off_shell(D, r):
        return Shell(D, r, ((r + 1, 0),))

    monkeypatch.setattr(theta, "enumerate_shell", off_shell)
    with pytest.raises(AssertionError, match="has norm 36"):
        a_norm(1, 4, 5)
    assert run(["hecke", "1", "--j", "4", "--p", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1
    assert "has norm" in captured.err


def test_design_path_builds_no_fraction_parts(monkeypatch, capsys):
    calls = []
    real = theta.parts

    def counted(D, u):
        calls.append((D, u))
        return real(D, u)

    monkeypatch.setattr(theta, "parts", counted)
    assert run(["sweep", "--rmax", "60"]) == 0
    assert run(["verify", "1", "65", "--jmax", "13"]) == 0
    capsys.readouterr()
    assert calls == []
    assert a_prime_closed_form(7, 2, 2) == -3  # the counter does see theta's calls
    assert len(calls) == 1


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_real_sums_vanish_off_unit_multiples(D):
    u = ring_data(D).unit_count
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
    u = ring_data(D).unit_count
    multiples = [j for j in range(1, 13) if j % u == 0]
    for r in range(1, 301):
        shell = enumerate_shell(D, r)
        if not shell.points:
            continue
        sums = basis_shell_sums_upto(shell, 12)
        for j in multiples:
            assert sums[j - 1] % u == 0, (D, j, r)


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
    u = ring_data(D).unit_count
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
    u = ring_data(D).unit_count
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
    u = ring_data(D).unit_count
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
    u = ring_data(D).unit_count
    for j in (u, 2 * u):
        for p in primes_up_to(20):
            if splitting_type(D, p) is not SplitType.INERT:
                continue
            for alpha in (2, 4):
                assert a_norm(D, j, p**alpha) == Fraction(p) ** (
                    j * alpha // 2
                ), (D, j, p, alpha)


def multiplicative_a(D, j, r):
    """Oracle for a(r): the product of a(p^alpha) over the factorization of r.

    Each a(p^alpha) comes from the Hecke recursion a(p^(k+1)) =
    a(p)*a(p^k) - chi(p)*p^j*a(p^(k-1)) with a(1) = 1, seeded with the closed
    form at split and ramified p and with a(p) = 0 at inert p. No shell of
    norm r is scanned.
    """
    disc = ring_data(D).disc
    value = 1
    for p, alpha in factorize(r):
        if splitting_type(D, p) is SplitType.INERT:
            a_p = 0
        else:
            a_p = a_prime_closed_form(D, j, p)
        chi = kronecker(disc, p)
        prev, cur = 1, a_p
        for _ in range(alpha - 1):
            prev, cur = cur, a_p * cur - chi * p**j * prev
        value *= cur
    return value


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_a_norm_matches_the_multiplicative_oracle(D):
    u = ring_data(D).unit_count
    for j in (u, 2 * u, 3 * u):
        for r in range(1, 2001):
            assert a_norm(D, j, r) == multiplicative_a(D, j, r), (D, j, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_nonvanishing_through_prime_powers(D):
    """a(p^alpha) != 0 at every representable p^alpha with p < 200, alpha <= 8.

    a(r) is multiplicative, so a(r) != 0 on every representable r whose
    prime powers are covered. Modulo p the recursion's p^j term drops, so
    a(p^alpha) = a(p)^alpha mod p, which is nonzero at split p (criterion 7).
    At ramified p, chi = 0 and a(p^alpha) = a(p)^alpha exactly; an inert
    p^alpha is representable only for even alpha.
    """
    u = ring_data(D).unit_count
    for j in (u, 2 * u):
        for p in primes_up_to(199):
            kind = splitting_type(D, p)
            a_p = Fraction(multiplicative_a(D, j, p))
            for alpha in range(1, 9):
                if kind is SplitType.INERT and alpha % 2:
                    continue
                value = Fraction(multiplicative_a(D, j, p**alpha))
                assert value.denominator == 1 and value != 0, (D, j, p, alpha)
                if kind is SplitType.SPLIT:
                    residue = pow(a_p.numerator, alpha, p)
                    assert value.numerator % p == residue != 0, (D, j, p, alpha)
                elif kind is SplitType.RAMIFIED:
                    assert value == a_p**alpha, (D, j, p, alpha)


@st.composite
def norms_near_1e9(draw):
    """(D, r) with r near 10^9: any r, or a lattice point's norm, so that
    about half the shells are nonempty."""
    D = draw(st.sampled_from(ADMISSIBLE_D))
    if draw(st.booleans()):
        return D, draw(st.integers(10**9, 2 * 10**9))
    x = draw(st.integers(isqrt(10**9) // 2, isqrt(10**9)))
    y = draw(st.integers(0, isqrt(10**9 // ring_data(D).n)))
    return D, norm_form(D, x, y)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(norms_near_1e9(), st.integers(1, 3))
def test_a_norm_matches_the_multiplicative_oracle_near_1e9(case, m):
    D, r = case
    j = m * ring_data(D).unit_count
    assert a_norm(D, j, r) == multiplicative_a(D, j, r), (D, j, r)


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


def hecke_reference(D, j, p, alpha_max, pairs):
    """hecke_verify's report with a fresh a_norm call for every quantity."""

    def a(r):
        value = a_norm(D, j, r)
        assert value.denominator == 1
        return value.numerator

    checks = []
    for r1, r2 in pairs:
        left, right = a(r1 * r2), a(r1) * a(r2)
        checks.append(
            HeckeCheck("multiplicativity", (r1, r2), left, right, left == right)
        )
    chi = kronecker(discriminant(D), p)
    for alpha in range(2, alpha_max + 1):
        left = a(p**alpha)
        right = a(p) * a(p ** (alpha - 1)) - chi * p**j * a(p ** (alpha - 2))
        checks.append(
            HeckeCheck("prime-power-recursion", (p, alpha), left, right, left == right)
        )
    for alpha in range(1, alpha_max + 1):
        left, right = a(p**alpha) % p, pow(a(p), alpha, p)
        checks.append(
            HeckeCheck("prime-power-congruence", (p, alpha), left, right, left == right)
        )
    return HeckeReport(D=D, j=j, checks=tuple(checks))


@pytest.mark.parametrize("D,p", [(1, 5), (3, 7), (7, 2), (163, 41)])
def test_hecke_verify_scans_each_r_once(monkeypatch, D, p):
    pairs = COPRIME_PAIRS
    j, alpha_max = 2 * ring_data(D).unit_count, 4
    calls = []

    def counted(D, j, r):
        calls.append(r)
        return a_norm(D, j, r)

    monkeypatch.setattr(theta, "a_norm", counted)
    report = hecke_verify(D, j, p, alpha_max, pairs)
    expected = {p**alpha for alpha in range(alpha_max + 1)}
    expected |= {r for r1, r2 in pairs for r in (r1, r2, r1 * r2)}
    assert sorted(calls) == sorted(expected)
    assert report == hecke_reference(D, j, p, alpha_max, pairs)


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
    u = ring_data(D).unit_count
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
