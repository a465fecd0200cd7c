"""Exact arithmetic in the nine imaginary quadratic rings of class number 1.

Each O_D is Z[w] with w^2 = t*w - n: w = sqrt(-D) (t = 0, n = D) for
D = 1, 2 and w = (1 + sqrt(-D))/2 (t = 1, n = (1+D)/4) for the seven
admissible D that are 3 mod 4. The norm form is x^2 + t*x*y + n*y^2, the
discriminant t^2 - 4n. ``ring_data`` holds these constants, one frozen
record per D, and every other module reads them from it. An element
a + b*w is the integer pair (a, b) in the integral basis {1, w}. ``mul`` is
the one product (``powers`` repeats it); ``parts`` gives an
element's real and imaginary parts as Fractions, and a shell's power sum,
(a, 0), is read as its int a. Every operation is exact on int and Fraction
pairs (elements of Q(w)). Every module raises ``InputError`` on an argument.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction

#: The square-free D > 0 whose ring of integers has class number 1.
ADMISSIBLE_D = (1, 2, 3, 7, 11, 19, 43, 67, 163)


RingData = namedtuple("RingData", "t n disc unit_count units sigma2 im_w")
RingData.__doc__ = """The constants of O_D = Z[w], w^2 = t*w - n.

``units`` are the unit pairs (a, b) in sorted order: {+-1, +-i} for
D = 1, the six sixth roots of unity for D = 3, {+-1} otherwise;
``unit_count`` is their number. w has real part t/2 and imaginary part
(sigma2/2)*sqrt(D), with ``sigma2`` = sqrt(|disc|/D) an int; ``im_w`` is
that imaginary part as a float.
"""


def _ring_data(D: int) -> RingData:
    if D % 4 in (1, 2):
        t, n = 0, D
    else:
        t, n = 1, (1 + D) // 4
    disc = t * t - 4 * n
    # units have norm 1, so |2x + t*y| <= 2 and |y| <= 1 since |disc| >= 3
    units = tuple(
        (x, y)
        for x in (-1, 0, 1)
        for y in (-1, 0, 1)
        if x * x + t * x * y + n * y * y == 1
    )
    # Im w = sqrt(|disc|)/2 = (sigma2/2)*sqrt(D), and |disc|/D is 4 or 1
    sigma2 = math.isqrt(-disc // D)
    return RingData(
        t=t,
        n=n,
        disc=disc,
        unit_count=len(units),
        units=units,
        sigma2=sigma2,
        im_w=sigma2 / 2 * math.sqrt(D),
    )


_RINGS = {D: _ring_data(D) for D in ADMISSIBLE_D}


class SplitType(Enum):
    """Behavior of a rational prime in O_D."""

    RAMIFIED = "ramified"
    SPLIT = "split"
    INERT = "inert"


class InputError(ValueError):
    """An argument the function does not accept: the CLI's usage error (exit 2)."""


def _shown(value) -> str:
    """repr(value), or a power of 2 it passes when an int runs past 64 bits.

    Error messages name their arguments through this: an int read from argv
    can run to 128 KiB of digits, and one line of stderr should not.
    """
    if not isinstance(value, int) or value.bit_length() <= 64:
        return repr(value)
    bound = f"2^{(abs(value) - 1).bit_length() - 1}"
    return f"more than {bound}" if value > 0 else f"less than -{bound}"


def ring_data(D: int) -> RingData:
    """The constants of O_D; InputError unless D is admissible."""
    try:
        return _RINGS[D]
    except KeyError:
        message = f"D must be one of {ADMISSIBLE_D}, got {_shown(D)}"
        raise InputError(message) from None


def norm_form(D: int, x: int, y: int) -> int:
    """The norm of x + y*w as a binary quadratic form in lattice coordinates.

    x^2 + t*x*y + n*y^2: x^2 + D*y^2 for D = 1, 2 and
    x^2 + x*y + ((1+D)/4)*y^2 otherwise. Nonnegative, zero only at the origin.
    """
    R = ring_data(D)
    return x * x + R.t * x * y + R.n * y * y


def discriminant(D: int) -> int:
    """Field discriminant t^2 - 4n: -4D for D = 1, 2 and -D for D = 3 mod 4."""
    return ring_data(D).disc


def mul(D: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of u = a + b*w and v = c + d*w in O_D, as a pair (a, b).

    The one place that applies w^2 = t*w - n. Exact on int or Fraction
    pairs; Fraction pairs multiply in Q(w). InputError, as from
    ``ring_data``, unless D is admissible.
    """
    R = ring_data(D)
    a, b = u
    c, d = v
    bd = b * d
    return (a * c - R.n * bd, a * d + b * c + R.t * bd)


def powers(D: int, u: tuple[int, int], e: int) -> list[tuple[int, int]]:
    """[u^0, u^1, ..., u^e], each power one ``mul`` by u from the last."""
    out = [(1, 0)]
    for _ in range(e):
        out.append(mul(D, out[-1], u))
    return out


def conj(D: int, u: tuple[int, int]) -> tuple[int, int]:
    """Complex conjugate of u = a + b*w: (a + t*b, -b), since w + conj(w) = t."""
    a, b = u
    return a + ring_data(D).t * b, -b


def parts(D: int, u: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """(Re u, Im u / sqrt(D)) of u = a + b*w, both rational.

    Each part is one Fraction over 2: (2a + t*b)/2 and sigma2*b/2.
    """
    a, b = u
    R = ring_data(D)
    return Fraction(2 * a + R.t * b, 2), Fraction(R.sigma2 * b, 2)
