"""Elementary number theory: Kronecker symbol, factorization, prime splitting.

Everything here is deterministic trial-division arithmetic: O(sqrt(N))
divisions, about 1.5*10^4 for the N up to 2*10^9 that ``verify`` is
benchmarked on. Far larger N would need Miller-Rabin and Pollard rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ring import SplitType, discriminant, require_admissible


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


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n, factors sorted by increasing prime."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = 1
        for p, alpha in self.factors:
            out *= p**alpha
        return out


def factorize(n: int) -> Factorization:
    """Exact factorization by deterministic trial division. Requires n >= 1."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors: list[tuple[int, int]] = []
    for p in _trial_divisors(m):
        if p * p > m:
            break
        if m % p == 0:
            alpha = 0
            while m % p == 0:
                m //= p
                alpha += 1
            factors.append((p, alpha))
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _trial_divisors(n: int):
    yield 2
    yield 3
    d = 5
    while d * d <= n:
        yield d
        yield d + 2
        d += 6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _trial_divisors(n):
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


@lru_cache(maxsize=None)
def splitting_type(D: int, p: int) -> SplitType:
    """How the rational prime p behaves in O_D.

    Ramified iff p divides the discriminant; otherwise split or inert by
    the sign of the Kronecker symbol of the discriminant at p.
    """
    require_admissible(D)
    if not is_prime(p):
        raise ValueError(f"splitting_type requires a prime, got {p}")
    delta = discriminant(D)
    if abs(delta) % p == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if kronecker(delta, p) == 1 else SplitType.INERT


def is_representable(D: int, r: int) -> bool:
    """Whether the norm form of O_D represents r.

    True iff every inert prime divides r to an even power; class number 1
    makes this criterion exact, and it is certified against enumeration.
    """
    require_admissible(D)
    if r < 1:
        raise ValueError(f"is_representable requires r >= 1, got {r}")
    for p, alpha in factorize(r).factors:
        if alpha % 2 == 1 and splitting_type(D, p) is SplitType.INERT:
            return False
    return True
