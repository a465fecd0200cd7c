import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdesign.arith import (
    MR_BOUND,
    _is_strong_probable_prime,
    factorize,
    is_prime,
    is_representable,
    kronecker,
    splitting_type,
    sqrt_mod,
)
from normdesign.ring import ADMISSIBLE_D, SplitType, discriminant, ring_data
from normdesign.shells import enumerate_shell


def primes_up_to(n):
    """All primes <= n by a byte sieve: the reference for is_prime."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def product(factors):
    return math.prod(p**alpha for p, alpha in factors)


def legendre_oracle(a, p):
    """Euler criterion by brute force, p an odd prime."""
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x - a) % p == 0 for x in range(1, p)) else -1


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-7, 3) == -1
    assert kronecker(-8, 2) == 0


def test_kronecker_at_zero():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(0, 0) == 0


def test_kronecker_matches_legendre_oracle():
    for p in primes_up_to(199):
        if p == 2:
            continue
        for a in range(-199, 200):
            assert kronecker(a, p) == legendre_oracle(a, p), (a, p)


def test_kronecker_multiplicative_in_both_arguments():
    values = [-15, -8, -5, -3, -2, -1, 1, 2, 3, 5, 9, 14]
    for a in values:
        for b in values:
            for n in values:
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for a in values:
        for m in values:
            for n in values:
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_factorize_examples():
    assert factorize(691) == ((691, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_reconstructs_and_sorts():
    for n in range(1, 2001):
        factors = factorize(n)
        assert product(factors) == n
        primes = [p for p, _ in factors]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(alpha >= 1 for _, alpha in factors)


def test_is_prime_against_sieve():
    primes = set(primes_up_to(500))
    for n in range(501):
        assert is_prime(n) == (n in primes)


def trial_division_factors(n):
    """Reference factorization: divide by 2, 3 and 6k +- 1 up to sqrt(n)."""

    def divisors():
        yield 2
        yield 3
        d = 5
        while True:
            yield d
            yield d + 2
            d += 6

    factors = []
    for p in divisors():
        if p * p > n:
            break
        alpha = 0
        while n % p == 0:
            n //= p
            alpha += 1
        if alpha:
            factors.append((p, alpha))
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# composites that pass Miller-Rabin to every prime base up to 7, 31 and 37
# respectively, so each needs a later base than the one before
STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert is_prime(n) is False, n
        assert product(factorize(n)) == n
        assert len(factorize(n)) > 1


def test_is_prime_on_large_primes():
    assert is_prime(2**61 - 1) is True
    assert is_prime(10**18 + 9) is True
    assert is_prime((2**61 - 1) * (10**6 + 3)) is False
    assert factorize(10**18 + 9) == ((10**18 + 9, 1),)


def test_factorize_prime_powers_past_trial_division():
    # every prime here exceeds 41, the last trial divisor, so Pollard rho
    # has to split each power itself
    assert factorize(43**2) == ((43, 2),)
    assert factorize(43**3) == ((43, 3),)
    assert factorize(1009**5) == ((1009, 5),)
    assert factorize(1000003**2) == ((1000003, 2),)
    assert factorize(10007**2 * 10009) == ((10007, 2), (10009, 1))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    st.one_of(
        st.integers(1, 10**12),
        # products of two primes near 10^5 and 10^6: rho's hardest inputs here
        st.builds(
            lambda a, b: a * b,
            st.integers(10**5, 2 * 10**5),
            st.integers(10**6, 2 * 10**6),
        ),
    )
)
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division_factors(n)
    assert is_prime(n) == (trial_division_factors(n) == ((n, 1),))


def test_factorize_cache_is_bounded_and_returns_what_it_computed():
    # the cache must not grow with the range of n that one sweep asks about
    assert factorize.cache_info().maxsize is not None
    ns = list(range(1, 501)) + [10**12 + 39, 1009**5, 10007**2 * 10009]
    factorize.cache_clear()
    cold = [factorize(n) for n in ns]
    # asked nine times in a row, as sweep asks about one r: eight hits each
    hits = factorize.cache_info().hits
    warm = [[factorize(n) for _ in range(9)][-1] for n in ns]
    assert factorize.cache_info().hits - hits >= 8 * len(ns)
    assert cold == warm == [trial_division_factors(n) for n in ns]


def test_primality_and_factoring_reject_the_miller_rabin_bound():
    for f in (is_prime, factorize):
        with pytest.raises(ValueError, match="primality is proven"):
            f(MR_BOUND)
        with pytest.raises(ValueError):
            f(MR_BOUND + 2)
    assert is_prime(MR_BOUND - 1) is False  # even, and still below the bound
    assert product(factorize(MR_BOUND - 1)) == MR_BOUND - 1
    # the bound is the first composite that fools all 13 bases
    assert MR_BOUND == 1287836182261 * 2575672364521
    assert _is_strong_probable_prime(MR_BOUND)


@pytest.mark.parametrize(
    # 2-adic valuations of p - 1 from 1 to 23 exercise every depth of the
    # Tonelli-Shanks loop
    "p", (3, 5, 7, 13, 17, 41, 73, 97, 193, 257, 65537, 786433, 7340033, 998244353)
)
def test_sqrt_mod_squares_back(p):
    residues = {pow(x, 2, p) for x in range(1, min(p, 400))}
    for a in residues:
        root = sqrt_mod(a, p)
        assert 0 <= root < p
        assert root * root % p == a, (a, p)


def test_splitting_type_examples():
    assert splitting_type(1, 2) is SplitType.RAMIFIED
    assert splitting_type(7, 2) is SplitType.SPLIT
    assert splitting_type(7, 3) is SplitType.INERT


def test_splitting_type_rejects_composites():
    with pytest.raises(ValueError):
        splitting_type(1, 6)
    with pytest.raises(ValueError):
        splitting_type(1, 1)


def test_splitting_type_cache_is_bounded():
    primes = primes_up_to(17389)  # the first 2000 primes
    assert len(primes) == 2000
    for p in primes:
        is_representable(1, p)
    info = splitting_type.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= 1024


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_split_two_iff_minus_d_is_one_mod_eight(D):
    if discriminant(D) % 2 == 0:
        assert splitting_type(D, 2) is SplitType.RAMIFIED
    elif (-D) % 8 == 1:
        assert splitting_type(D, 2) is SplitType.SPLIT
    else:
        assert splitting_type(D, 2) is SplitType.INERT


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_prime_shell_sizes_match_splitting(D):
    u = ring_data(D).unit_count
    for p in primes_up_to(200):
        count = len(enumerate_shell(D, p).points)
        split = splitting_type(D, p)
        if split is SplitType.RAMIFIED:
            assert count == u
        elif split is SplitType.SPLIT:
            assert count == 2 * u
        else:
            assert count == 0


def test_is_representable_examples():
    assert is_representable(3, 691) is True
    assert is_representable(1, 3) is False
    assert is_representable(1, 9) is True


def test_is_representable_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_representable(1, 0)


@pytest.mark.parametrize("D", ADMISSIBLE_D)
def test_is_representable_agrees_with_enumeration(D):
    # the full r <= 2000 certification runs in the acceptance suite
    for r in range(1, 301):
        assert is_representable(D, r) == bool(enumerate_shell(D, r).points), (D, r)
