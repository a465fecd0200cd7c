"""Elementary number theory: Kronecker symbol, factorization, prime splitting.

Primality is trial division by the primes up to 41 followed by Miller-Rabin
with those 13 bases, which is deterministic for n below ``MR_BOUND``
(about 3.3*10^24; Sorenson-Webster 2015). Factoring adds Pollard rho with
Brent's cycle finding, whose cost grows like the square root of the
second-largest prime factor of n; ``factorize`` returns the pairs
((p, alpha), ...) sorted by p. ``is_prime`` and ``factorize`` reject
n >= ``MR_BOUND``, where the test would no longer be a proof.

Two small bounded caches serve repeated questions. ``splitting_type`` is
asked about the same few primes for every norm. ``factorize`` keeps its
last 16 results: ``sweep`` asks ``is_representable(D, r)`` for the nine D
back to back, so each r is factored once, and a hit costs about 1/25 of
factoring an r <= 500 again. Neither cache grows with the input range.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import gcd

from .ring import InputError, SplitType, _shown, ring_data


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), totally extended to all integers n.

    Agrees with the Legendre symbol for odd prime n and is multiplicative
    in both arguments. (a|0) is 1 for a = +-1 and 0 otherwise.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # Split off the even part of n; (a|2) = 0, 1, -1 for a even, a = +-1,
    # a = +-3 mod 8 respectively.
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol on the odd part via quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


#: The primes up to 41: trial divisors, and the Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Least n that is a strong probable prime to every base in _SMALL_PRIMES
#: and still composite: below it the Miller-Rabin test decides primality.
MR_BOUND = 3317044064679887385961981


def _require_below_bound(n: int, what: str) -> None:
    if n >= MR_BOUND:
        raise InputError(
            f"{what} requires n < {MR_BOUND}, where primality is proven, "
            f"got {_shown(n)}"
        )


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to every base in _SMALL_PRIMES; n odd and > 41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MR_BOUND; InputError above."""
    if n < 2:
        return False
    _require_below_bound(n, "is_prime")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return n < 43 * 43 or _is_strong_probable_prime(n)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor <= 41.

    Pollard rho on x -> x^2 + c with Brent's cycle finding, trying
    c = 1, 2, ... until one gives a divisor other than n.
    """
    batch = 128  # steps whose |x - y| share one gcd
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


# bounded: sweep asks about each r nine times in a row, then not again
@lru_cache(maxsize=16)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact factorization as ((p, alpha), ...) pairs, sorted by increasing p.

    Trial division to 41, then Pollard rho. Requires 1 <= n < MR_BOUND.
    The last 16 results are cached, so the nine ``is_representable(D, r)``
    calls that ``sweep`` makes for one r share one factorization. The
    result is a tuple of int pairs, immutable and safe to share.
    """
    if n < 1:
        raise InputError(f"factorize requires n >= 1, got {_shown(n)}")
    _require_below_bound(n, "factorize")
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return tuple(sorted(counts.items()))


def sqrt_mod(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p.

    Tonelli-Shanks (Cohen, Alg. 1.5.1). Requires a to be a nonzero residue:
    at a = 0 (mod p) the search for the order of t never ends.
    """
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, root = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # least i with t^(2^i) = 1; i < m because a is a residue
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


# bounded: the factorization route feeds it every prime factor of every r
@lru_cache(maxsize=1024)
def splitting_type(D: int, p: int) -> SplitType:
    """How the rational prime p behaves in O_D.

    Ramified iff p divides the discriminant; otherwise split or inert by
    the sign of the Kronecker symbol of the discriminant at p.
    """
    delta = ring_data(D).disc
    if not is_prime(p):
        raise InputError(f"splitting_type requires a prime, got {_shown(p)}")
    if abs(delta) % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if kronecker(delta, p) == 1 else SplitType.INERT


def is_representable(D: int, r: int) -> bool:
    """Whether the norm form of O_D represents r.

    True iff every inert prime divides r to an even power; class number 1
    makes this criterion exact, and it is certified against enumeration.
    """
    ring_data(D)
    if r < 1:
        raise InputError(f"is_representable requires r >= 1, got {_shown(r)}")
    for p, alpha in factorize(r):
        if alpha % 2 == 1 and splitting_type(D, p) is SplitType.INERT:
            return False
    return True
