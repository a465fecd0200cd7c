"""Theta coefficients over the norm lattices and Hecke identity checks.

The coefficient of q^r in the theta series of a polynomial P over O_D is
the exact sum of P over the norm r shell. The norm is even in z and every
shell is closed under z -> -z, while P(z) + P(-z) is twice the even-degree
part of P; so theta_series walks one point of each +-z pair and evaluates
that doubled even part there, and adds P(0, 0) at r = 0. shell_sum
evaluates P at every shell point and stays the reference the tests check
theta_series against. Basis-polynomial sums are also available through a
faster route: summing (x + w*y)^j in the integral basis and reading off
real and imaginary parts, which the tests pin against the generic
polynomial evaluation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .arith import is_prime, kronecker, splitting_type
from .harmonic import BivarPoly
from .ring import SplitType, mul, parts, powers, ring_data
from .shells import Shell, enumerate_shell


HeckeCheck = namedtuple("HeckeCheck", "identity inputs left right passed")


class HeckeReport(namedtuple("HeckeReport", "D j checks")):
    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def shell_sum(D: int, P: BivarPoly, r: int) -> Fraction:
    """Exact sum of P over the norm r shell; 0 on an empty shell.

    The all-points reference: P is evaluated at every shell point, with no
    use of the +-z symmetry theta_series relies on.
    """
    shell = enumerate_shell(D, r)
    total = Fraction(0)
    for x, y in shell.points:
        total += P.evaluate(x, y)
    return total


def power_sums(shell: Shell, j_max: int) -> list[tuple[int, int]]:
    """Integral-basis coordinates of sum z^j over the shell, j = 1..j_max.

    Entry j-1 holds (sum of a, sum of b) where z^j = a + b*w for the shell
    point z = x + w*y.
    """
    D = shell.D
    sums = [[0, 0] for _ in range(j_max)]
    for z in shell.points:
        a, b = z
        for j in range(j_max):
            sums[j][0] += a
            sums[j][1] += b
            if j + 1 < j_max:
                a, b = mul(D, (a, b), z)
    return [(sa, sb) for sa, sb in sums]


def basis_shell_sums_upto(shell: Shell, j_max: int) -> list[tuple[Fraction, Fraction]]:
    """Basis sums of every degree 1..j_max over one shell, in one pass."""
    return [parts(shell.D, s) for s in power_sums(shell, j_max)]


def _half_lattice_norms_upto(D: int, bound: int):
    """Yield (x, y, norm) over one point of each +-z pair with 0 < norm <= bound.

    The row y = 0 gives x = 1..isqrt(bound); the rows y >= 1 are whole, with
    the completed square of enumerate_shell: |2x + t*y| <= isqrt(4*bound -
    |disc|*y^2). These points and their negatives make up the ball without 0.
    """
    R = ring_data(D)
    t, n, a = R.t, R.n, -R.disc
    for x in range(1, isqrt(bound) + 1):
        yield x, 0, x * x
    b4 = 4 * bound
    for y in range(1, isqrt(b4 // a) + 1):
        s = isqrt(b4 - a * y * y)
        ty = t * y
        ny2 = n * y * y
        for x in range(-((s + ty) // 2), (s - ty) // 2 + 1):
            yield x, y, x * x + ty * x + ny2


def theta_series(D: int, P: BivarPoly, r_max: int) -> tuple[Fraction, ...]:
    """Theta coefficients of P for r = 0..r_max, in one lattice sweep.

    Entry r is the sum of P over the norm r shell. The norm is even in z,
    so the walk visits one point of each +-z pair and adds E(z) = P(z) +
    P(-z), twice the terms of P with even total degree; entry 0 is P(0, 0).
    When P has only odd-degree terms every entry is 0 and nothing is walked.
    """
    ring_data(D)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    coeffs = [Fraction(0)] * (r_max + 1)
    coeffs[0] = P.evaluate(0, 0)
    even = BivarPoly(
        ((i, k), 2 * c) for (i, k), c in P.terms.items() if (i + k) % 2 == 0
    )
    if not even.is_zero:
        for x, y, n in _half_lattice_norms_upto(D, r_max):
            coeffs[n] += even.evaluate(x, y)
    return tuple(coeffs)


def a_norm(D: int, j: int, r: int) -> Fraction:
    """Normalized theta coefficient: the R_{D,j} shell sum divided by u_D.

    Integer-valued whenever j is a multiple of u_D, where the underlying
    series is a Hecke eigenform with a(1) = 1.
    """
    R = ring_data(D)
    if j < 1:
        raise ValueError(f"basis degree must be >= 1, got {j}")
    r_sum = parts(D, power_sums(enumerate_shell(D, r), j)[j - 1])[0]
    return r_sum / R.unit_count


def a_prime_closed_form(D: int, j: int, p: int) -> Fraction:
    """Eigenform coefficient at a prime with a nonempty shell, closed form.

    R_{D,j} at any shell point for ramified p, twice that for split p;
    valid only for j a multiple of u_D, where the value is orbit-invariant.
    """
    u = ring_data(D).unit_count
    if not is_prime(p):
        raise ValueError(f"a_prime_closed_form requires a prime, got {p}")
    if j < 1 or j % u != 0:
        raise ValueError(f"closed form requires j to be a positive multiple of u_D={u}")
    split = splitting_type(D, p)
    if split is SplitType.INERT:
        raise ValueError(f"the norm {p} shell is empty for D={D}")
    value = parts(D, powers(D, enumerate_shell(D, p).points[0], j)[j])[0]
    return value if split is SplitType.RAMIFIED else 2 * value


def hecke_verify(
    D: int,
    j: int,
    p: int,
    alpha_max: int,
    coprime_pairs: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
) -> HeckeReport:
    """Check the eigenform identities against direct shell sums.

    Verifies multiplicativity over the given coprime pairs, the prime
    power recursion with character value kronecker(discriminant(D), p),
    and the mod p congruence a(p^alpha) = a(p)^alpha. Every quantity on
    either side is built from independently computed shell sums, and every
    side of every check is an integer: a(r) is integral for j a multiple of
    u_D, and ArithmeticError is raised if a_norm ever returns a non-integer.
    """
    R = ring_data(D)
    u = R.unit_count
    if j < 1 or j % u != 0:
        raise ValueError(f"Hecke identities hold for j a multiple of u_D={u}")
    if not is_prime(p):
        raise ValueError(f"hecke_verify requires a prime, got {p}")
    if alpha_max < 2:
        raise ValueError(f"alpha_max must be >= 2, got {alpha_max}")
    checks: list[HeckeCheck] = []

    def a(r: int) -> int:
        value = a_norm(D, j, r)
        if value.denominator != 1:
            raise ArithmeticError(f"a({D},{j},{r}) = {value} is not an integer")
        return value.numerator

    for r1, r2 in coprime_pairs:
        if math.gcd(r1, r2) != 1:
            raise ValueError(f"pair ({r1}, {r2}) is not coprime")
        left = a(r1 * r2)
        right = a(r1) * a(r2)
        checks.append(
            HeckeCheck("multiplicativity", (r1, r2), left, right, left == right)
        )

    chi = kronecker(R.disc, p)
    a_pow = [a(p**alpha) for alpha in range(alpha_max + 1)]
    for alpha in range(2, alpha_max + 1):
        left = a_pow[alpha]
        right = a_pow[1] * a_pow[alpha - 1] - chi * p**j * a_pow[alpha - 2]
        checks.append(
            HeckeCheck("prime-power-recursion", (p, alpha), left, right, left == right)
        )

    for alpha in range(1, alpha_max + 1):
        left, right = a_pow[alpha] % p, pow(a_pow[1], alpha, p)
        checks.append(
            HeckeCheck(
                "prime-power-congruence", (p, alpha), left, right, left == right
            )
        )

    return HeckeReport(D=D, j=j, checks=tuple(checks))


def format_rational(value: Fraction | int) -> str:
    """"num/den" in lowest terms; an int n prints as "n/1"."""
    return f"{value.numerator}/{value.denominator}"
