"""Theta coefficients over the norm lattices and Hecke identity checks.

The coefficient of q^r in the theta series of a polynomial P over O_D is
the exact sum of P over the norm r shell. The norm is even in z and every
shell is closed under z -> -z, while P(z) + P(-z) is twice the even-degree
part of P; so theta_series walks one point of each +-z pair and sums that
doubled even part there, and adds P(0, 0) at r = 0. It works on P's integer
numerators: on each lattice row they fold into one polynomial in x,
evaluated by Horner at the row's points, and the values add into one int
per norm, so only a nonzero sum becomes a Fraction. shell_sum evaluates P
at every shell point and stays the reference the tests check theta_series
against. Basis-polynomial sums take a faster route: (x + w*y)^j summed in
the integral basis by the Lucas sequence of each trace, over per-trace
point sums with one ring product per point to check its premise; two
degrees per step and no update whose multiplier is exactly 0 (power_sums),
or a doubling ladder to one degree (a_norm). The zero skip assumes no
symmetry. A shell is closed under conjugation, so the sum is real, its
w-coordinate 0 (asserted) and its int a the R_{D,j} sum.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .arith import is_prime, kronecker, splitting_type
from .harmonic import BivarPoly
from .ring import (
    InputError, SplitType, _shown, mul, norm_form, parts, powers, ring_data
)
from .shells import Shell, enumerate_shell, half_ball_rows


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


def _trace_groups(shell: Shell) -> dict[int, list[int]]:
    """|s| -> [xp, yp, cp, xn, yn, cn]: the x, y and count sums of the points
    of trace s = 2x + t*y = |s|, then of those of trace -|s| < 0. A point of
    norm r is a root of z^2 - s*z + r; one ``mul`` per point asserts it.
    """
    D, r = shell.D, shell.r
    t = ring_data(D).t
    groups: dict[int, list[int]] = {}
    for z in shell.points:
        x, y = z
        s = 2 * x + t * y
        assert mul(D, z, z) == (s * x - r, s * y), (
            f"D={D} r={r}: the point {z} has norm {norm_form(D, x, y)}"
        )
        a, k = (s, 0) if s >= 0 else (-s, 3)
        g = groups.get(a)
        if g is None:
            g = groups[a] = [0, 0, 0, 0, 0, 0]
        g[k] += x
        g[k + 1] += y
        g[k + 2] += 1
    return groups


def power_sums(shell: Shell, j_max: int) -> list[tuple[int, int]]:
    """Integral-basis coordinates of sum z^j over the shell, j = 1..j_max.

    Entry j-1 holds (sum of a, sum of b) where z^j = a + b*w for the shell
    point z = x + w*y. A point of norm r and trace s = 2x + t*y is a root of
    z^2 - s*z + r, so z^j = U_j*z - r*U_(j-1) with the Lucas sequence
    U_0 = 0, U_1 = 1, U_j = s*U_(j-1) - r*U_(j-2) (Crandall and Pomerance,
    Prime Numbers). _trace_groups checks that premise at every point and
    sums the points per trace; since U_j(-s) = (-1)^(j-1)*U_j(s), the
    traces s and -s share one sequence.
    Each step of it takes two degrees: the odd one from the sums of the
    group's odd part, the even one from those of its even part. An update
    whose multiplier is exactly 0 is skipped: both odd ones when the odd
    part's sums are all 0, the even b one when its y sum is. These zeros
    are computed from all of a group's points, and every point is still
    checked, so no symmetry of the shell is assumed: half shells and single
    points come out exact. On a whole shell the odd part's sums are 0 at
    every |s| > 0, and a degree costs three products per |s|.
    """
    if j_max < 1:
        return []
    r = shell.r
    sa = [0] * j_max
    sb = [0] * j_max
    last = j_max - 1
    for a, (xp, yp, cp, xn, yn, cn) in _trace_groups(shell).items():
        # with U at a, trace -a gives z^j = (-1)^(j-1)*(U_j*z + r*U_(j-1)),
        # so odd degrees read the odd part's sums and even ones the even part's
        Xo, Yo, Co = xp + xn, yp + yn, cp - cn
        Xe, Ye, Ce = xp - xn, yp - yn, cp + cn
        odd = Xo or Yo or Co
        u0, u1 = 0, 1  # U_i, U_(i+1)
        for i in range(0, j_max, 2):  # entries i and i + 1, degrees i + 1, i + 2
            ru = r * u0
            if odd:
                sa[i] += u1 * Xo - ru * Co
                sb[i] += u1 * Yo
            if i == last:
                break
            u0, u1 = u1, a * u1 - ru
            ru = r * u0
            sa[i + 1] += u1 * Xe - ru * Ce
            if Ye:
                sb[i + 1] += u1 * Ye
            u0, u1 = u1, a * u1 - ru
    return list(zip(sa, sb))


def basis_shell_sums_upto(shell: Shell, j_max: int) -> list[int]:
    """The R_{D,j} shell sums, j = 1..j_max: the int a of power_sums' (a, 0)."""
    sums = power_sums(shell, j_max)
    # conj(x, y) = (x + t*y, -y) keeps the shell, so sum z^j is real: b = 0
    assert not any(sb for _, sb in sums), f"D={shell.D} r={shell.r}: sum not real"
    return [sa for sa, _ in sums]


def theta_series(D: int, P: BivarPoly, r_max: int) -> tuple[Fraction, ...]:
    """Theta coefficients of P for r = 0..r_max, in one lattice sweep.

    Entry r is the sum of P over the norm r shell. The norm is even in z,
    so the walk (shells.half_ball_rows) visits one point of each +-z pair
    and adds E(z) = P(z) + P(-z), twice the terms of P with even total
    degree; entry 0 is P(0, 0).
    When P has only odd-degree terms every entry is 0 and nothing is walked.

    The walk stays in ints: E's terms are P's numerators over P.den, and on
    each lattice row y they fold into one polynomial in x with coefficients
    sum_k t_ik * y^k, so a point costs one Horner step per power of x
    whatever the term count. The values add into one int per norm, and
    each nonzero sum becomes one Fraction over P's denominator.
    """
    R = ring_data(D)
    if r_max < 1:
        raise InputError(f"r_max must be >= 1, got {_shown(r_max)}")
    even = [(2 * t, i, k) for (i, k), t in P.numerators.items() if (i + k) % 2 == 0]
    sums = [0] * (r_max + 1)
    if even:
        dx = max(i for _, i, _ in even)
        for y, xs in half_ball_rows(D, r_max):
            row = [0] * (dx + 1)
            for t, i, k in even:
                row[dx - i] += t * y**k
            ty, ny2 = R.t * y, R.n * y * y
            for x in xs:
                value = 0
                for c in row:
                    value = value * x + c
                sums[x * (x + ty) + ny2] += value
    zero = Fraction(0)
    coeffs = [Fraction(s, P.den) if s else zero for s in sums]
    coeffs[0] = P.evaluate(0, 0)
    return tuple(coeffs)


def a_norm(D: int, j: int, r: int) -> Fraction:
    """Normalized theta coefficient: the R_{D,j} shell sum divided by u_D.

    Integer-valued whenever j is a multiple of u_D, where the underlying
    series is a Hecke eigenform with a(1) = 1. Each trace group of the
    scanned shell reaches power_sums' (U_(j-1), U_j) by the doubling ladder
    U_2k = U_k*(2*U_(k+1) - s*U_k), U_(2k+1) = U_(k+1)^2 - r*U_k^2: O(log j)
    products per trace. The shell is closed under conjugation: b sums to 0.
    """
    R = ring_data(D)
    if j < 1:
        raise InputError(f"basis degree must be >= 1, got {_shown(j)}")
    bits = bin(j - 1)[3:]  # from k = 1 to k = j - 1, a doubling per bit
    sa = sb = 0
    for s, (xp, yp, cp, xn, yn, cn) in _trace_groups(enumerate_shell(D, r)).items():
        u0, u1 = (1, s) if j > 1 else (0, 1)  # U_k, U_(k+1)
        for bit in bits:
            u0, u1 = u0 * (2 * u1 - s * u0), u1 * u1 - r * u0 * u0
            if bit == "1":
                u0, u1 = u1, s * u1 - r * u0
        if j % 2:  # power_sums' signs: odd j reads the odd part, even j the even
            sa += u1 * (xp + xn) - r * u0 * (cp - cn)
            sb += u1 * (yp + yn)
        else:
            sa += u1 * (xp - xn) - r * u0 * (cp + cn)
            sb += u1 * (yp - yn)
    assert sb == 0, f"D={D} r={r}: sum not real"  # as in basis_shell_sums_upto
    return Fraction(sa, R.unit_count)


def a_prime_closed_form(D: int, j: int, p: int) -> Fraction:
    """Eigenform coefficient at a prime with a nonempty shell, closed form.

    R_{D,j} at any shell point for ramified p, twice that for split p;
    valid only for j a multiple of u_D, where the value is orbit-invariant.
    """
    u = ring_data(D).unit_count
    if not is_prime(p):
        raise InputError(f"a_prime_closed_form requires a prime, got {_shown(p)}")
    if j < 1 or j % u != 0:
        raise InputError(f"closed form requires j to be a positive multiple of u_D={u}")
    split = splitting_type(D, p)
    if split is SplitType.INERT:
        raise InputError(f"the norm {p} shell is empty for D={D}")
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
    Each distinct r is scanned and summed once per call.
    """
    R = ring_data(D)
    u = R.unit_count
    if j < 1 or j % u != 0:
        raise InputError(f"Hecke identities hold for j a multiple of u_D={u}")
    if not is_prime(p):
        raise InputError(f"hecke_verify requires a prime, got {_shown(p)}")
    if alpha_max < 2:
        raise InputError(f"alpha_max must be >= 2, got {_shown(alpha_max)}")
    checks: list[HeckeCheck] = []
    known: dict[int, int] = {}

    def a(r: int) -> int:
        if r not in known:
            value = a_norm(D, j, r)
            if value.denominator != 1:
                raise ArithmeticError(f"a({D},{j},{r}) = {value} is not an integer")
            known[r] = value.numerator
        return known[r]

    for r1, r2 in coprime_pairs:
        if math.gcd(r1, r2) != 1:
            raise InputError(f"pair ({r1}, {r2}) is not coprime")
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
