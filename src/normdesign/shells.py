"""Enumeration of the norm shells: lattice points of O_D with a fixed norm.

Each job has one producer of shells. ``shell_from_factorization`` builds
a shell from the prime elements dividing r; the ``shell`` and ``verify``
commands list and classify its shells at every r. ``enumerate_shell``
scans the lattice: it is the reference route, and the route of ``hecke``,
whose identities factoring would make true by construction.
``half_ball_rows`` walks the lattice ball in whole rows and is the one
ball walker: ``theta_series`` sums over it, and ``ball_shells`` sorts it
into the shells that ``sweep`` classifies. Shells come back with a
canonical lexicographic point order so that every CLI output is
reproducible byte for byte. ``scan_rows`` is the scan's row count.

The scan tests a row y by whether 4r - |disc|*y^2 is a perfect square. On
long scans a sieve (the exclusion sieve of Fermat's factoring method,
Knuth, TAOCP Vol. 2, 4.5.4) first drops every row where that number is not
a square modulo one of the primes 3, 5, ..., 47, with one bit mask per
block of rows. On the norm p^3 shells with 1000 <= p < 2000 the exact
isqrt test then runs on 0.01-0.08% of the rows, 0.035% at the median. The
sieve reads nothing but 4r and |disc|, so the scan stays independent of
the factorization of r.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt

from .arith import factorize, splitting_type, sqrt_mod
from .ring import InputError, SplitType, _shown, conj, mul, powers, ring_data

#: Scan rows from which ``enumerate_shell`` runs the sieve of
#: ``_wheel_rows`` instead of testing every row: building its masks costs
#: more than it saves on short scans. Summed over D = 1, 3, 7 and 163
#: (Python 3.11, best of 25 over 60 representable norms per size), the two
#: walks cost the same between 160 and 200 rows on representable norms, the
#: ones that hold points (near 150 rows on arbitrary norms).
WHEEL_MIN_ROWS = 200

#: Rows per block of the sieve in ``_wheel_rows``: each block is one int
#: of that many bits (8 KB) and one string of as many characters.
_SIEVE_BLOCK = 1 << 16

#: The sieve's primes q, each with the set of squares mod q. A scan of
#: ymax + 1 rows takes the q <= isqrt(ymax), so every prime's pattern
#: repeats at least q times in the scan.
_SIEVE_PRIMES = tuple(
    (q, frozenset(c * c % q for c in range(q)))
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
)


class Shell(namedtuple("Shell", "D r points")):
    """All (x, y) with norm_form(D, x, y) == r, sorted lexicographically."""

    __slots__ = ()


def scan_rows(D: int, r: int) -> int:
    """Rows of the reference scan of the norm r shell: y = 0..isqrt(4r // |disc|)."""
    return isqrt(4 * r // -ring_data(D).disc) + 1


def half_ball_rows(D: int, bound: int) -> Iterator[tuple[int, range]]:
    """Yield (y, xs): one point of each +-z pair with 0 < norm <= bound, by rows.

    The row y = 0 gives xs = 1..isqrt(bound); each row y >= 1 is whole, with
    the completed square of enumerate_shell: |2x + t*y| <= isqrt(4*bound -
    |disc|*y^2). These points and their negatives make up the ball without 0.
    It is the one walk of the ball: theta_series sums over it, and
    ball_shells, which sweep reads, buckets it by norm.
    """
    R = ring_data(D)
    yield 0, range(1, isqrt(bound) + 1)
    for y in range(1, scan_rows(D, bound)):
        s, ty = isqrt(4 * bound + R.disc * y * y), R.t * y
        yield y, range(-((s + ty) // 2), (s - ty) // 2 + 1)


def ball_shells(D: int, bound: int) -> Iterator[Shell]:
    """Yield every nonempty norm r shell with 1 <= r <= bound, in increasing r.

    One pass of half_ball_rows puts each point z and -z in the bucket of
    their norm, so every point of the ball lands in exactly one bucket and
    no sum relies on a symmetry of the shell. Each bucket comes out as the
    Shell that enumerate_shell(D, r) returns; norms with no point get none.
    """
    R = ring_data(D)
    t, n = R.t, R.n
    # x, y, -x, -y flat in one list per norm: the walk keeps no point tuple,
    # so each shell's points are made and freed as it is read (tuples held
    # for the whole ball raised sweep's peak RSS at the cap by 1.5 MB)
    buckets: dict[int, list[int]] = {}
    for y, xs in half_ball_rows(D, bound):
        ny2 = n * y * y
        for x in xs:
            r = x * (x + t * y) + ny2
            coords = buckets.get(r)
            if coords is None:
                buckets[r] = coords = []
            coords += (x, y, -x, -y)
    for r in sorted(buckets):
        coords = iter(buckets.pop(r))
        yield Shell(D, r, tuple(sorted(zip(coords, coords))))


def enumerate_shell(D: int, r: int) -> Shell:
    """Complete exact enumeration of the norm r shell: the reference route.

    One scan over the completed square 4r = (2x + t*y)^2 + |disc|*y^2 of the
    norm form x^2 + t*x*y + n*y^2: for each 0 <= y <= isqrt(4r // |disc|), the
    points are the x with 2x + t*y = +-s where s^2 = 4r - |disc|*y^2, together
    with their negatives (-x, -y), since the norm is even in z. Norm 0 is one
    row, y = 0, and one point, (0, 0). Perfect squares are detected with isqrt
    and a re-square, never floats. From WHEEL_MIN_ROWS rows on, only the rows
    ``_wheel_rows`` keeps are tested; its sieve drops rows where s^2 would be a
    non-square mod a small prime.
    """
    R = ring_data(D)
    if r < 0:
        raise InputError(f"shell norm must be nonnegative, got {_shown(r)}")
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
    """The y in 0..ymax with r4 - a*y^2 a square mod each prime q <= isqrt(ymax).

    Mod each prime q a row can hold a point only in the classes c with
    r4 - a*c^2 a square mod q; bit c of q's pattern is set for these, and
    the pattern is repeated by doubling shifts to a block's length plus q.
    Each block of _SIEVE_BLOCK rows from base ANDs every pattern shifted
    by base mod q into one mask, whose set bits are the rows it yields, in
    increasing order. A perfect square is a square mod every q, so no row
    with a point is dropped. Where q divides a, the classes are all of y
    mod q or none.
    """
    block = min(ymax + 1, _SIEVE_BLOCK)
    patterns: list[tuple[int, int]] = []
    for q, squares in _SIEVE_PRIMES:
        if q * q > ymax:
            break
        bits = sum(1 << c for c in range(q) if (r4 - a * c * c) % q in squares)
        n = q
        while n < block + q:
            bits |= bits << n
            n *= 2
        patterns.append((q, bits))
    for base in range(0, ymax + 1, _SIEVE_BLOCK):
        mask = (1 << min(_SIEVE_BLOCK, ymax + 1 - base)) - 1
        for q, bits in patterns:
            mask &= bits >> base % q
        # bit i of mask is character i of the reversed binary digits
        digits = bin(mask)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            yield base + i
            i = digits.find("1", i + 1)


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
        raise InputError(f"shell norm must be nonnegative, got {_shown(r)}")
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
