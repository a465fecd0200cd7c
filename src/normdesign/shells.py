"""Enumeration of the norm shells: lattice points of O_D with a fixed norm.

Two routes give the same shell: ``enumerate_shell`` scans the lattice and
is the reference; ``shell_from_factorization`` builds the shell from the
prime elements dividing r and is far cheaper once r is large.
``norm_shell`` picks the cheaper of the two for r. Shells come
back with a canonical lexicographic point order so that orbit tables and
every CLI output are reproducible byte for byte. ``half_ball_rows`` walks
the lattice ball in whole rows; ``scan_rows`` is the scan's row count.

The scan tests a row y by whether 4r - |disc|*y^2 is a perfect square. On
long scans an exclusion wheel (the sieve of Fermat's factoring method,
Knuth, TAOCP Vol. 2, 4.5.4) first drops every row where that number is not
a square modulo one of the primes 3, 5, 7, ...; its second level adds the
next primes without walking the rows they drop. On the norm p^3 shells
with 1000 <= p < 2000 the exact isqrt test then runs on 1-10% of the rows,
3% at the median. The wheel reads nothing but 4r and |disc|, so the scan
stays independent of the factorization of r.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt

from .arith import factorize, splitting_type, sqrt_mod
from .ring import SplitType, conj, mul, powers, ring_data

#: ``norm_shell`` scans while isqrt(4r // |disc|) <= SCAN_MAX_ROWS (up to
#: 451 rows) and factors r past that: with the wheel, the two routes cost
#: the same between 400 and 500 rows for D = 1, 3, 7 and 163 (Python 3.11,
#: best of 7 over 60 representable norms per size; 300 before the wheel).
SCAN_MAX_ROWS = 450

#: Scan rows from which ``enumerate_shell`` walks the exclusion wheel
#: instead of every row: building it costs more than it saves on short
#: scans. Summed over D = 1, 3, 7 and 163 (same method as SCAN_MAX_ROWS),
#: the two walks cost the same near 200 rows on representable norms, the
#: ones that hold points (near 120 rows on arbitrary norms).
WHEEL_MIN_ROWS = 200

#: Largest modulus of the wheel's outer level, 3*5*...*17: it bounds the
#: residue list however long the scan (about 10^4 entries on most norms).
#: Past it the next primes join the inner level; an outer level mod
#: 3*5*...*19 would take about a sixth less time at 6*10^7 rows but hold
#: 10 MB more.
_OUTER_MAX_MODULUS = 3 * 5 * 7 * 11 * 13 * 17

#: The wheel's primes q, each with the set of squares mod q. The outer
#: level takes them from 3 on and the inner level the next ones, each
#: level while its modulus fits (see ``_wheel_rows``). The inner modulus
#: stays <= the number of residues <= _OUTER_MAX_MODULUS < 19*23*29*31,
#: so no level reaches a prime past 29.
_WHEEL_PRIMES = tuple(
    (q, frozenset(c * c % q for c in range(q)))
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29)
)


class Shell(namedtuple("Shell", "D r points")):
    """All (x, y) with norm_form(D, x, y) == r, sorted lexicographically."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.points)


def scan_rows(D: int, r: int) -> int:
    """Rows of the reference scan of the norm r shell: y = 0..isqrt(4r // |disc|)."""
    return isqrt(4 * r // -ring_data(D).disc) + 1


def half_ball_rows(D: int, bound: int) -> Iterator[tuple[int, range]]:
    """Yield (y, xs): one point of each +-z pair with 0 < norm <= bound, by rows.

    The row y = 0 gives xs = 1..isqrt(bound); each row y >= 1 is whole, with
    the completed square of enumerate_shell: |2x + t*y| <= isqrt(4*bound -
    |disc|*y^2). These points and their negatives make up the ball without 0.
    """
    R = ring_data(D)
    yield 0, range(1, isqrt(bound) + 1)
    for y in range(1, scan_rows(D, bound)):
        s, ty = isqrt(4 * bound + R.disc * y * y), R.t * y
        yield y, range(-((s + ty) // 2), (s - ty) // 2 + 1)


def enumerate_shell(D: int, r: int) -> Shell:
    """Complete exact enumeration of the norm r shell: the reference route.

    One scan over the completed square 4r = (2x + t*y)^2 + |disc|*y^2 of
    the norm form x^2 + t*x*y + n*y^2: for each 0 <= y <= isqrt(4r // |disc|),
    the points are the x with 2x + t*y = +-s where s^2 = 4r - |disc|*y^2,
    together with their negatives (-x, -y), since the norm is even in z.
    Perfect squares are detected with isqrt and a re-square, never floats.
    From WHEEL_MIN_ROWS rows on, only the rows ``_wheel_rows`` keeps are
    tested; it drops rows where s^2 would be a non-square mod a small prime.
    """
    R = ring_data(D)
    if r < 0:
        raise ValueError(f"shell norm must be nonnegative, got {r}")
    if r == 0:
        return Shell(D, 0, ((0, 0),))
    t, a = R.t, -R.disc
    r4 = 4 * r
    ymax = isqrt(r4 // a)
    if ymax + 1 < WHEEL_MIN_ROWS:
        rows = range(ymax + 1)
    else:
        rows = _wheel_rows(a, r4, ymax)
    points: set[tuple[int, int]] = set()
    for y in rows:
        rem = r4 - a * y * y
        s = isqrt(rem)
        if s * s == rem:
            # rem = (t*y)^2 mod 4, so s - t*y is always even
            ty = t * y
            for x in ((s - ty) // 2, (-s - ty) // 2):
                points.add((x, y))
                points.add((-x, -y))
    return Shell(D, r, tuple(sorted(points)))


def _wheel_rows(a: int, r4: int, ymax: int) -> Iterator[int]:
    """The y in 0..ymax with r4 - a*y^2 a square mod each wheel prime q.

    Mod each prime q a row can hold a point only in the classes c with
    r4 - a*c^2 a square mod q; the wheel joins these in two levels. The
    outer level takes primes while their product M stays <= ymax + 1 and
    <= _OUTER_MAX_MODULUS, and joins their classes by the Chinese remainder
    theorem into the residues w mod M. The inner level takes the next
    primes while their product Q stays <= the number of residues, joins
    their classes into the allowed classes mod Q, and buckets the residues
    by w mod Q. Each block base + w (base a multiple of M) then joins the
    buckets whose class makes base + w an allowed class, one list join per
    bucket. Rows come in no fixed order. A perfect square is a square mod
    every q, so no row with a point is dropped. Where q divides a, the
    classes are all of y mod q or none.
    """
    M, residues = 1, [0]
    Q, allowed = 1, [0]
    outer_max = min(ymax + 1, _OUTER_MAX_MODULUS)
    # the primes increase, so a level that one prime does not fit stays closed
    for q, squares in _WHEEL_PRIMES:
        if M * q <= outer_max:
            residues = _crt_join(residues, M, a, r4, q, squares)
            M *= q
        elif Q * q <= len(residues):
            allowed = _crt_join(allowed, Q, a, r4, q, squares)
            Q *= q
        else:
            break
    buckets: list[list[int]] = [[] for _ in range(Q)]
    for w in residues:
        buckets[w % Q].append(w)
    for base in range(0, ymax + 1, M):
        shift = base % Q
        ws: list[int] = []
        for c in allowed:
            ws += buckets[(c - shift) % Q]
        top = ymax - base
        for w in ws:
            if w <= top:
                yield base + w


def _crt_join(
    residues: list[int], M: int, a: int, r4: int, q: int, squares: frozenset[int]
) -> list[int]:
    """The y mod M*q with y mod M in residues and r4 - a*y^2 a square mod q.

    Joins each residue w mod M with each such class c mod q by the Chinese
    remainder theorem.
    """
    classes = [c for c in range(q) if (r4 - a * c * c) % q in squares]
    # w + M*k = c (mod q) at k = (c - w) / M (mod q)
    inv = pow(M, -1, q)
    return [w + M * ((c - w) * inv % q) for w in residues for c in classes]


def _prime_element(D: int, p: int) -> tuple[int, int]:
    """An element of norm p, for a prime p that is split or ramified in O_D.

    At an odd split p: Tonelli-Shanks for sqrt(disc) mod p, then Cornacchia
    on 4p = X^2 + |disc|*Y^2 (Cohen, Alg. 1.5.3), and x + y*w with
    X = 2x + t*y, Y = y. Tonelli-Shanks needs an odd p and never ends at
    disc = 0 (mod p), so at p = 2 and at ramified p the element is read
    from the tiny norm p shell instead.
    """
    R = ring_data(D)
    a = -R.disc
    if p == 2 or a % p == 0:
        return enumerate_shell(D, p).points[0]
    b = sqrt_mod(R.disc, p)
    if (b - R.disc) % 2:
        b = p - b
    # Euclid on (2p, b) down to the first remainder <= 2*sqrt(p)
    m, bound = 2 * p, isqrt(4 * p)
    while b > bound:
        m, b = b, m % b
    c, rem = divmod(4 * p - b * b, a)
    y = isqrt(c)
    assert rem == 0 and y * y == c, (D, p)
    return (b - R.t * y) // 2, y


def shell_from_factorization(D: int, r: int) -> Shell:
    """The norm r shell built from the prime factorization of r.

    Class number 1 makes every element of norm r a unit times a product
    of prime elements: pi^k * conj(pi)^(alpha-k), k = 0..alpha, at a split
    p^alpha, pi^alpha at a ramified p^alpha, p^(beta/2) at an inert p^beta
    with beta even; an inert prime to an odd power leaves the shell empty.
    Returns the same Shell as enumerate_shell, which stays the reference,
    at the cost of factoring r instead of an O(sqrt(r)) scan.
    """
    R = ring_data(D)
    if r < 0:
        raise ValueError(f"shell norm must be nonnegative, got {r}")
    if r == 0:
        return Shell(D, 0, ((0, 0),))
    elements = [(1, 0)]
    expected = R.unit_count
    for p, alpha in factorize(r):
        kind = splitting_type(D, p)
        if kind is SplitType.INERT:
            if alpha % 2:
                return Shell(D, r, ())
            choices = [(p ** (alpha // 2), 0)]
        else:
            pi_powers = powers(D, _prime_element(D, p), alpha)
            if kind is SplitType.RAMIFIED:
                choices = [pi_powers[alpha]]
            else:
                # pi^k * conj(pi^(alpha-k)), k = 0..alpha
                choices = [
                    mul(D, u, conj(D, v))
                    for u, v in zip(pi_powers, reversed(pi_powers))
                ]
                expected *= alpha + 1
        elements = [mul(D, e, c) for e in elements for c in choices]
    points = {mul(D, u, e) for u in R.units for e in elements}
    assert len(points) == expected, (D, r, len(points), expected)
    return Shell(D, r, tuple(sorted(points)))


def norm_shell(D: int, r: int) -> Shell:
    """The norm r shell by the cheaper route.

    The scan costs scan_rows(D, r) rows; past SCAN_MAX_ROWS + 1 rows,
    factoring r and multiplying prime elements is cheaper.
    """
    if r > 0 and scan_rows(D, r) > SCAN_MAX_ROWS + 1:
        return shell_from_factorization(D, r)
    return enumerate_shell(D, r)


def shell_orbits(shell: Shell) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Partition of the shell into unit orbits.

    Units act freely away from the origin, so each orbit has exactly u_D
    points. Orbits are listed by their lexicographically smallest member,
    each orbit itself sorted.
    """
    if shell.r == 0:
        raise ValueError("the zero shell is a unit fixed point, not a free orbit")
    D = shell.D
    units = ring_data(D).units
    seen: set[tuple[int, int]] = set()
    orbits: list[tuple[tuple[int, int], ...]] = []
    # points are sorted, so the first unseen point is its orbit's minimum
    for point in shell.points:
        if point in seen:
            continue
        orbit = tuple(sorted({mul(D, u, point) for u in units}))
        orbits.append(orbit)
        seen.update(orbit)
    return tuple(orbits)

