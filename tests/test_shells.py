from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign.arith import factorize, is_prime, kronecker, splitting_type
from normdesign.ring import (
    ADMISSIBLE_D,
    InputError,
    discriminant,
    mul,
    norm_form,
    SplitType,
    ring_data,
)
from normdesign.shells import (
    WHEEL_MIN_ROWS,
    _SIEVE_BLOCK,
    _wheel_rows,
    ball_shells,
    enumerate_shell,
    shell_from_factorization,
)
from normdesign.theta import basis_shell_sums_upto, power_sums

EXAMPLE_691 = (
    (-30, 11), (-30, 19), (-19, -11), (-19, 30), (-11, -19), (-11, 30),
    (11, -30), (11, 19), (19, -30), (19, 11), (30, -19), (30, -11),
)


def naive_shell(D, r):
    bound = 2 + isqrt(4 * r) if r else 1
    return sorted(
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if norm_form(D, x, y) == r
    )


def plain_scan(D, r):
    """The reference scan without the sieve: isqrt on every row."""
    R = ring_data(D)
    if r == 0:
        return ((0, 0),)
    t, a = R.t, -R.disc
    r4 = 4 * r
    points = set()
    for y in range(isqrt(r4 // a) + 1):
        rem = r4 - a * y * y
        s = isqrt(rem)
        if s * s == rem:
            ty = t * y
            for x in ((s - ty) // 2, (-s - ty) // 2):
                points.add((x, y))
                points.add((-x, -y))
    return tuple(sorted(points))


def representation_count(D, r):
    """Points of norm r >= 1, from class number 1 and no lattice scan.

    u_D * sum over d | r of kronecker(disc, d); the divisor sum is
    multiplicative, so it is a product over the prime powers of r.
    """
    disc = discriminant(D)
    count = ring_data(D).unit_count
    for p, alpha in factorize(r):
        count *= sum(kronecker(disc, p**k) for k in range(alpha + 1))
    return count


R_MAX = 10**9
any_norm = st.tuples(st.sampled_from(ADMISSIBLE_D), st.integers(1, R_MAX))
# most large r are not norms of O_D, so also draw the norm of a random
# lattice point to reach large nonempty shells
lattice_norm = st.builds(
    lambda D, x, y: (D, norm_form(D, x, y)),
    st.sampled_from(ADMISSIBLE_D),
    st.integers(-15000, 15000),
    st.integers(-2500, 2500),
).filter(lambda case: 1 <= case[1] <= R_MAX)


def test_example_shell_d3_r691():
    shell = enumerate_shell(3, 691)
    assert shell.points == EXAMPLE_691


def test_small_shells():
    assert enumerate_shell(1, 1).points == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert enumerate_shell(1, 3).points == ()
    assert enumerate_shell(1, 0).points == ((0, 0),)
    assert enumerate_shell(2, 3).points == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_negative_norm_rejected():
    with pytest.raises(InputError) as scanned:
        enumerate_shell(1, -1)
    with pytest.raises(InputError) as factored:
        shell_from_factorization(1, -1)
    assert str(factored.value) == str(scanned.value)
    assert str(scanned.value) == "shell norm must be nonnegative, got -1"


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_completeness_against_naive_grid(D):
    """One naive grid pass per D, bucketed by norm, covers every r <= 500."""
    r_max = 500
    bound = 2 + isqrt(4 * r_max)
    by_norm = {}
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            n = norm_form(D, x, y)
            if n <= r_max:
                by_norm.setdefault(n, []).append((x, y))
    for r in range(r_max + 1):
        expected = tuple(sorted(by_norm.get(r, ())))
        assert enumerate_shell(D, r).points == expected, (D, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_ball_shells_are_the_scanned_shells(D):
    """One ball walk gives each nonempty shell up to the bound, in increasing r."""
    r_max = 300
    expected = [enumerate_shell(D, r) for r in range(1, r_max + 1)]
    assert list(ball_shells(D, r_max)) == [s for s in expected if s.points]
    assert list(ball_shells(D, 1)) == [s for s in expected[:1] if s.points]


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_spot_larger_shells_against_naive_loop(D):
    for r in (691, 1024, 1729):
        assert enumerate_shell(D, r).points == tuple(naive_shell(D, r))


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_shell_invariants(D):
    units = ring_data(D).units
    for r in range(1, 80):
        shell = enumerate_shell(D, r)
        pts = set(shell.points)
        assert list(shell.points) == sorted(pts)  # sorted, duplicate-free
        for x, y in shell.points:
            assert norm_form(D, x, y) == r
            assert (-x, -y) in pts
            for u in units:
                assert mul(D, u, (x, y)) in pts
        if pts:
            assert len(pts) % ring_data(D).unit_count == 0


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.one_of(any_norm, lattice_norm))
def test_shell_against_representation_count_and_invariants(case):
    D, r = case
    shell = enumerate_shell(D, r)
    assert len(shell.points) == representation_count(D, r)
    assert all(norm_form(D, x, y) == r for x, y in shell.points)
    u = ring_data(D).unit_count
    imag = [sb for _, sb in power_sums(shell, 13)]
    for j, r_sum in enumerate(basis_shell_sums_upto(shell, 13), start=1):
        assert imag[j - 1] == 0, (j, imag[j - 1])
        if j % u:
            assert r_sum == 0, (j, r_sum)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_orbits_partition_the_shell(D):
    """The units act freely on every nonzero shell: their orbits tile it."""
    units = ring_data(D).units
    for r in (1, 2, 4, 25, 49, 92):
        points = set(enumerate_shell(D, r).points)
        orbits = {frozenset(mul(D, u, p) for u in units) for p in points}
        assert all(len(orbit) == ring_data(D).unit_count for orbit in orbits)
        assert sum(map(len, orbits)) == len(points)
        assert set().union(*orbits) == points


# -- the sieve against the plain scan --------------------------------------------

# r4 = 0 mod each of these primes, so its classes are the c with
# -|disc|*c^2 a square: all of y mod q or only c = 0
PRIMORIAL_17 = 3 * 5 * 7 * 11 * 13 * 17
PRIMORIAL_23 = PRIMORIAL_17 * 19 * 23
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def near_wheel_threshold(D):
    """Norms whose scan has WHEEL_MIN_ROWS +- 3 rows, so both row walks run."""
    a = -discriminant(D)
    lo = (WHEEL_MIN_ROWS - 4) ** 2 * a // 4
    hi = (WHEEL_MIN_ROWS + 3) ** 2 * a // 4
    return st.integers(max(lo, 1), hi).map(lambda r: (D, r))


def split_primes(D):
    """The primes 1000 <= p < 2000 that split in O_D, as Hecke checks draw."""
    return [
        p for p in range(1000, 2000)
        if is_prime(p) and splitting_type(D, p) is SplitType.SPLIT
    ]


def split_prime_powers(D):
    """p^2 and p^3 for the split primes 1000 <= p < 2000, as Hecke checks scan."""
    return st.tuples(
        st.sampled_from(split_primes(D)), st.sampled_from((2, 3))
    ).map(lambda pe: (D, pe[0] ** pe[1]))


def point_at_rows(D, rows, y):
    """(D, r) with a point on row y (y mod rows) and a scan of at most rows rows."""
    R = ring_data(D)
    a = -R.disc
    y %= rows
    s = isqrt(a * ((rows - 1) ** 2 - y * y))
    s -= (s - R.t * y) % 2  # 2x + t*y = s needs s = t*y (mod 2)
    return D, norm_form(D, (s - R.t * y) // 2, y)


def norm_at_rows(D, rows, fraction):
    """(D, r) with a scan of about rows rows, any r between rows - 1 and rows."""
    a = -discriminant(D)
    lo, hi = (rows - 1) ** 2 * a // 4, rows**2 * a // 4
    return D, lo + (hi - lo) * fraction // 1000


# 10^3 to 2*10^5 scan rows: the sieve primes 3..31 up to all of 3..47, and
# one to four blocks
long_scan_rows = st.integers(1000, 200000)

wheel_case = st.one_of(
    st.sampled_from(ADMISSIBLE_D).flatmap(near_wheel_threshold),
    st.builds(
        lambda D, x, y: (D, norm_form(D, x, y)),
        st.sampled_from(ADMISSIBLE_D),
        st.integers(-30000, 30000),
        st.integers(-30000, 30000),
    ).filter(lambda case: case[1] >= 1),
    st.tuples(
        st.sampled_from(ADMISSIBLE_D),
        st.integers(1, 40000).map(lambda k: k * PRIMORIAL_17),
    ),
    st.sampled_from(ADMISSIBLE_D).flatmap(split_prime_powers),
    st.builds(
        point_at_rows,
        st.sampled_from(ADMISSIBLE_D),
        long_scan_rows,
        st.integers(0, 200000),
    ),
    st.builds(
        norm_at_rows,
        st.sampled_from(ADMISSIBLE_D),
        long_scan_rows,
        st.integers(0, 1000),
    ),
    st.tuples(
        st.sampled_from(ADMISSIBLE_D),
        st.integers(1, 400).map(lambda k: k * PRIMORIAL_23),
    ),
)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(wheel_case)
def test_wheel_scan_matches_plain_scan(case):
    D, r = case
    assert enumerate_shell(D, r).points == plain_scan(D, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_wheel_with_all_six_primes_matches_plain_scan(D):
    """More than three blocks of rows, each sieved by every prime 3..47."""
    r = norm_form(D, 123457, 255300)
    assert isqrt(4 * r // -discriminant(D)) + 1 > 3 * _SIEVE_BLOCK
    shell = enumerate_shell(D, r)
    assert (123457, 255300) in shell.points
    assert shell.points == plain_scan(D, r)


# q = D divides |disc| and is a sieve prime from q^2 + 1 rows on: 19 at every
# size here, 43 from 16 000 rows (1 200 rows stop at 31)
@pytest.mark.parametrize("D", (19, 43))
@pytest.mark.parametrize("rows", (1200, 16000, 60000, 200000))
def test_wheel_where_a_prime_divides_the_discriminant(D, rows):
    a = -discriminant(D)
    for case in (
        point_at_rows(D, rows, rows // 3),
        point_at_rows(D, rows, a * (rows // (3 * a))),  # y = 0 mod |disc|
        (D, a * point_at_rows(D, rows // a, 7)[1]),  # r = 0 mod |disc|
        (D, PRIMORIAL_23 * (rows * rows * a // 4 // PRIMORIAL_23 + 1)),
    ):
        assert enumerate_shell(*case).points == plain_scan(*case), case


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.one_of(
    st.builds(
        point_at_rows,
        st.sampled_from(ADMISSIBLE_D),
        st.integers(WHEEL_MIN_ROWS, 200000),
        st.integers(0, 200000),
    ),
    st.builds(
        norm_at_rows,
        st.sampled_from(ADMISSIBLE_D),
        st.integers(WHEEL_MIN_ROWS, 200000),
        st.integers(0, 1000),
    ),
))
def test_wheel_rows_are_distinct_in_range_and_keep_every_point_row(case):
    D, r = case
    a, r4 = -discriminant(D), 4 * r
    ymax = isqrt(r4 // a)
    rows = list(_wheel_rows(a, r4, ymax))
    assert len(rows) == len(set(rows))
    assert all(0 <= y <= ymax for y in rows)
    assert {abs(y) for _, y in plain_scan(D, r)} <= set(rows)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_wheel_past_the_outer_modulus_bound(D):
    """Over 5*10^6 rows, more than 76 blocks of the sieve; the factorization
    route gives the shell."""
    r = norm_form(D, 1234567, 5000000)
    a, r4 = -discriminant(D), 4 * r
    ymax = isqrt(r4 // a)
    assert ymax + 1 > 76 * _SIEVE_BLOCK
    shell = shell_from_factorization(D, r)
    rows = list(_wheel_rows(a, r4, ymax))
    assert len(rows) == len(set(rows))
    assert all(0 <= y <= ymax for y in rows)
    assert {abs(y) for _, y in shell.points} <= set(rows)
    assert enumerate_shell(D, r) == shell


def test_wheel_tests_few_rows_of_p_cubed_shells():
    """At most 0.2% of the scan rows of norm p^3 shells, p in [1000, 2000)."""
    tested = total = 0
    for D in ADMISSIBLE_D:
        primes = split_primes(D)
        for p in primes[:: len(primes) // 5]:
            a, r4 = -discriminant(D), 4 * p**3
            ymax = isqrt(r4 // a)
            total += ymax + 1
            tested += sum(1 for _ in _wheel_rows(a, r4, ymax))
    assert tested <= total // 500, (tested, total)


def sieve_oracle(a, r4, ymax):
    """The y in 0..ymax with r4 - a*y^2 a square mod every q in SIEVE_PRIMES
    with q^2 <= ymax, by brute force one prime at a time."""
    ys = range(ymax + 1)
    for q in SIEVE_PRIMES:
        if q * q <= ymax:
            squares = {c * c % q for c in range(q)}
            ys = [y for y in ys if (r4 - a * y * y) % q in squares]
    return list(ys)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
@pytest.mark.parametrize(
    "ymax",
    [k * _SIEVE_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)] + [199, 2208, 2209],
)
def test_wheel_rows_match_the_sieve_oracle(D, ymax):
    """Block edges (a last block of one row, and a block from a base that is
    no multiple of q) and the sizes where 47 joins; for D = 19 and 43 a
    sieve prime divides |disc|."""
    a = -discriminant(D)
    r_low = -(-a * ymax * ymax // 4)
    r_high = (a * (ymax + 1) ** 2 - 1) // 4
    for r in (r_low, r_low + 7, r_high):
        r4 = 4 * r
        assert isqrt(r4 // a) == ymax
        rows = list(_wheel_rows(a, r4, ymax))
        assert all(y < z for y, z in zip(rows, rows[1:]))
        assert rows == sieve_oracle(a, r4, ymax), (D, r)


# -- the factorization route against the scan -----------------------------------

# Small primes of every splitting type (2 and the odd ramified p = D among
# them), primes = 1 mod 8 whose p - 1 holds 2^3 up to 2^23 (deep Tonelli-Shanks
# loops), and larger primes of both residues mod 4.
ROUTE_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 67, 73, 97, 163, 193,
    257, 1009, 1013, 10007, 65537, 786433, 7340033, 999999937, 998244353,
)


def prime_powers(bound):
    return st.sampled_from(ROUTE_PRIMES).flatmap(
        lambda p: st.integers(1, max(1, bound.bit_length() // p.bit_length())).map(
            lambda k: p**k
        )
    ).filter(lambda q: q <= bound)


def near_crossover(D):
    """Norms whose scan has 1000 +- 3 rows, where both routes are cheap."""
    a = -discriminant(D)
    lo = (1000 - 3) ** 2 * a // 4
    hi = (1000 + 4) ** 2 * a // 4
    return st.integers(lo, hi).map(lambda r: (D, r))


route_case = st.one_of(
    any_norm,
    lattice_norm,
    st.sampled_from(ADMISSIBLE_D).flatmap(near_crossover),
    st.tuples(
        st.sampled_from(ADMISSIBLE_D),
        st.lists(prime_powers(R_MAX), min_size=1, max_size=3).map(prod),
    ).filter(lambda case: case[1] <= R_MAX),
)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_factorization_route_matches_scan_on_small_norms(D):
    for r in range(1000):
        assert shell_from_factorization(D, r) == enumerate_shell(D, r), (D, r)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_factorization_route_at_every_splitting_type(D):
    """Every power <= 10^9 of 2 (split for D = 7, ramified for D = 1, 2 and
    inert otherwise), of the odd ramified prime D, of 3 and 5, and of primes
    = 1 mod 8, where Tonelli-Shanks runs its inner loop."""
    primes = sorted({2, D, 3, 5, 17, 41, 73, 97, 193, 65537, 786433, 7340033} - {1})
    kinds = {splitting_type(D, p) for p in primes}
    assert kinds == set(SplitType)
    assert any(
        p % 8 == 1 and splitting_type(D, p) is SplitType.SPLIT for p in primes
    )
    for p in primes:
        q = p
        while q <= R_MAX:
            assert shell_from_factorization(D, q) == enumerate_shell(D, q), (D, q)
            q *= p


@settings(deadline=None, derandomize=True, max_examples=200)
@given(route_case)
def test_factorization_route_matches_scan(case):
    D, r = case
    assert shell_from_factorization(D, r) == enumerate_shell(D, r)


R_BIG = 2 * 10**18
big_norm = st.one_of(
    st.builds(
        lambda D, x, y: (D, norm_form(D, x, y)),
        st.sampled_from(ADMISSIBLE_D),
        st.integers(-(10**9), 10**9),
        st.integers(-(10**8), 10**8),
    ),
    st.tuples(
        st.sampled_from(ADMISSIBLE_D),
        st.lists(prime_powers(R_BIG), min_size=1, max_size=4).map(prod),
    ),
    st.tuples(st.sampled_from(ADMISSIBLE_D), st.just(10**18 + 9)),
).filter(lambda case: 1 <= case[1] <= R_BIG)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(big_norm)
def test_factorization_route_past_the_scan(case):
    """At r up to 2*10^18 the scan would take up to 10^9 rows, so check the
    shell against the norm form and the divisor-sum count instead."""
    D, r = case
    shell = shell_from_factorization(D, r)
    assert (shell.D, shell.r) == (D, r)
    assert list(shell.points) == sorted(set(shell.points))
    assert all(norm_form(D, x, y) == r for x, y in shell.points)
    assert len(shell.points) == representation_count(D, r)
