"""Exact bivariate polynomials and the two-dimensional harmonic-like bases.

For each admissible D and degree j >= 1 the pair R_{D,j}, I_{D,j} is the
real and imaginary part of (x + w*y)^j, with w the second basis element of
O_D. R_{D,j} is rational; I_{D,j} is sqrt(D) times a rational polynomial,
and ``basis_poly`` returns that rational polynomial, so imaginary parts never
leave the rationals. Denominators only ever involve powers of 2.

Polynomials are built on int numerators over one denominator: ``BivarPoly``,
``parse_poly`` and ``basis_poly`` each sum ints and end in one canonicalizer
that divides the denominator and the numerators by their gcd, and
``format_poly`` reads them back with one gcd per term. ``basis_poly`` reads
the powers of w as integral-basis pairs, not through ``ring.parts``.

``decompose`` needs no linear algebra: in z = x + w*y and zbar = x + wbar*y
the norm form is z*zbar and R, I are the parts of z^j, so the layer
coordinates are a polynomial's coefficients in z and zbar. It is the
oracle for ``basis_poly``'s spans, independent of the binomial expansion.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction

from .ring import InputError, _shown, mul, parts, powers, ring_data

RationalLike = int | Fraction

_Monomial = tuple[int, int]


class BivarPoly:
    """Immutable polynomial in x, y with exact rational coefficients.

    The coefficients are held as integers over one denominator: den is the
    LCM of their denominators in lowest terms (1 for the zero polynomial),
    and numerators maps each monomial (i, k) with a nonzero coefficient c
    to the int c * den. Both are canonical, so equality and hashing read
    them, and a Fraction is built only when a coefficient is asked for.
    The constructor reads each coefficient's numerator and denominator (an
    int, bool included, or a Fraction; TypeError otherwise), sums the terms
    as ints over the LCM of those denominators and reduces them by one gcd.
    """

    __slots__ = ("den", "numerators")

    def __init__(
        self,
        terms: Mapping[_Monomial, RationalLike]
        | Iterable[tuple[_Monomial, RationalLike]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs: list[tuple[_Monomial, int, int]] = []
        for (i, k), c in items:
            if i < 0 or k < 0:
                raise InputError(f"negative exponent in monomial x^{i}*y^{k}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"coefficients must be int or Fraction, got {type(c).__name__}"
                )
            pairs.append(((i, k), c.numerator, c.denominator))
        self._reduce(*_common_den(pairs))

    @classmethod
    def _over(cls, numerators: dict[_Monomial, int], den: int) -> BivarPoly:
        """The polynomial with coefficients numerators[m] / den, for den > 0."""
        P = cls.__new__(cls)
        P._reduce(numerators, den)
        return P

    def _reduce(self, numerators: dict[_Monomial, int], den: int) -> None:
        # den / gcd(den, n_1, ..., n_k) is the LCM of the lowest-terms
        # denominators, and the gcd of den alone makes the zero polynomial's 1
        numerators = {m: t for m, t in numerators.items() if t}
        g = math.gcd(den, *numerators.values())
        if g > 1:
            numerators = {m: t // g for m, t in numerators.items()}
        self.den = den // g
        self.numerators = numerators

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[_Monomial, Fraction]:
        return {m: Fraction(t, self.den) for m, t in self.numerators.items()}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((i + k for i, k in self.numerators), default=-1)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def is_homogeneous(self) -> bool:
        degrees = {i + k for i, k in self.numerators}
        return len(degrees) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.den == other.den and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.numerators.items())))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Exact value at a point with int or Fraction coordinates.

        One power per term, t * x**i * y**k: on an integer point the sum
        stays in ints and only the final division by den builds a Fraction.
        Any other coordinate type raises TypeError before any product.
        """
        if not (isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))):
            raise TypeError(
                "point coordinates must be int or Fraction, got "
                f"{type(x).__name__} and {type(y).__name__}"
            )
        return Fraction(
            sum(t * x**i * y**k for (i, k), t in self.numerators.items()), self.den
        )

    def __repr__(self) -> str:
        return f"BivarPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _common_den(
    pairs: list[tuple[_Monomial, int, int]]
) -> tuple[dict[_Monomial, int], int]:
    """Sums of the fractions num / den per monomial, over the LCM of the dens."""
    den = math.lcm(*(d for _, _, d in pairs))
    acc: dict[_Monomial, int] = {}
    for m, num, d in pairs:
        acc[m] = acc.get(m, 0) + num * (den // d)
    return acc, den


# -- text format ---------------------------------------------------------------

class PolyParseError(InputError):
    """Parse failure with the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([xy*^+/-])|(\S))")
_KINDS = (None, "int", "op")  # by the index of the token's group


def parse_poly(text: str) -> BivarPoly:
    """Parse the CLI polynomial format, e.g. ``2*x^2+3462*x*y+1729*y^2``.

    Terms are coefficient and/or monomial factors joined by ``*``;
    coefficients may be fractions like ``-1/2``. Whitespace is ignored.
    Each term's coefficient is kept as an int pair (num, den).
    """
    tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        value = match.group(group)
        if group == 3:
            raise PolyParseError(f"unexpected character {value!r}", match.start(group))
        tokens.append((_KINDS[group], value, match.start(group)))
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    # an end token at len(text) gives every lookahead a token and a position
    tokens.append(("end", "", len(text)))

    terms: list[tuple[_Monomial, int, int]] = []  # (monomial, num, den)
    i = 0
    while True:  # one signed term per pass; the sign is optional on the first
        num, den, exps = -1 if tokens[i][1] == "-" else 1, 1, [0, 0]
        if tokens[i][1] in ("+", "-"):
            i += 1
        if tokens[i][0] == "end":
            raise PolyParseError("empty term", tokens[i][2])
        while True:  # one factor per pass, joined by '*'
            kind, value, pos = tokens[i]
            i += 1
            if kind == "int":
                num *= int(value)
                if tokens[i][1] == "/":
                    kind, value, pos = tokens[i + 1]
                    if kind != "int":
                        raise PolyParseError("expected a denominator", pos)
                    if int(value) == 0:
                        raise PolyParseError("zero denominator", pos)
                    den *= int(value)
                    i += 2
            elif value in ("x", "y"):
                exp = 1
                if tokens[i][1] == "^":
                    ekind, evalue, epos = tokens[i + 1]
                    if ekind != "int":
                        raise PolyParseError("expected an exponent", epos)
                    exp = int(evalue)
                    i += 2
                exps["xy".index(value)] += exp
            elif kind == "end":
                raise PolyParseError("dangling '*'", pos)
            else:
                raise PolyParseError(f"expected a factor, got {value!r}", pos)
            kind, value, pos = tokens[i]
            if value != "*":
                break
            i += 1
        terms.append(((exps[0], exps[1]), num, den))
        if kind == "end":
            return BivarPoly._over(*_common_den(terms))
        if value not in ("+", "-"):
            # value is one character or an int token, which may run to argv length
            got = repr(value) if len(value) <= 80 else f"a {len(value)}-digit number"
            raise PolyParseError(f"expected '*', '+' or '-', got {got}", pos)


def format_poly(P: BivarPoly) -> str:
    """Canonical text form; ``parse_poly`` round-trips it exactly.

    Each coefficient is read from its numerator over ``P.den``, reduced by
    one gcd.
    """
    if P.is_zero:
        return "0"
    pieces: list[str] = []
    den, numerators = P.den, P.numerators
    for i, k in sorted(numerators, key=lambda m: (m[0] + m[1], -m[0])):
        t = numerators[i, k]
        g = math.gcd(t, den)
        mag, d = abs(t) // g, den // g
        factors: list[str] = []
        if mag != 1 or d != 1 or (i == 0 and k == 0):
            factors.append(str(mag) if d == 1 else f"{mag}/{d}")
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if k:
            factors.append("y" if k == 1 else f"y^{k}")
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if t > 0 else "-" + term)
        else:
            pieces.append(("+" if t > 0 else "-") + term)
    return "".join(pieces)


# -- basis polynomials --------------------------------------------------------


class BasisKind(Enum):
    REAL_PART = "real"
    IMAG_PART = "imag"


HarmonicBasisElement = namedtuple("HarmonicBasisElement", "poly")
HarmonicBasisElement.__doc__ = """\
One of the two degree-j basis polynomials attached to O_D.

``poly`` is always rational. For ``BasisKind.IMAG_PART`` the true
polynomial is sqrt(D) * poly.
"""


def basis_poly(D: int, j: int, kind: BasisKind) -> HarmonicBasisElement:
    """Exact binomial expansion of the real or imaginary part of (x + w*y)^j.

    The coefficient of x^(j-m)*y^m is C(j, m)*w^m. With w^m = a + b*w in
    the integral basis, its real part is C(j, m)*(2a + t*b)/2 and its
    imaginary part over sqrt(D) is C(j, m)*sigma2*b/2, so the polynomial is
    built as int numerators over the one denominator 2, then reduced.
    """
    R = ring_data(D)
    if j < 1:
        raise InputError(f"basis degree must be >= 1, got {_shown(j)}")
    w_powers = powers(D, (0, 1), j)
    if kind is BasisKind.REAL_PART:
        numerators = {(j - m, m): math.comb(j, m) * (2 * a + R.t * b)
                      for m, (a, b) in enumerate(w_powers)}
    else:
        numerators = {(j - m, m): math.comb(j, m) * R.sigma2 * b
                      for m, (_, b) in enumerate(w_powers)}
    return HarmonicBasisElement(BivarPoly._over(numerators, 2))


# -- coordinates in z = x + w*y -------------------------------------------------


def decompose(
    D: int, P: BivarPoly
) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """Layered coordinates of a homogeneous P over the norm-form powers.

    Writes P as a sum over k of q^k * (a_k*R_{D,j-2k} + b_k*I_{D,j-2k}/sqrt(D)),
    with q the norm form, plus a_k * q^{j/2} for the constant layer when j
    is even; returned as (k, a_k, b_k) triples with b_k = 0 on the constant
    layer. With c_k P's coefficient of z^(j-k)*zbar^k, the layer k < j/2 is
    q^k * 2*Re(c_k * z^(j-2k)): a_k = 2*Re c_k and b_k = -2*D*(Im c_k/sqrt(D));
    the constant layer is a_k = c_k. The coordinates are unique, as the c_k are.
    """
    R = ring_data(D)
    if P.is_zero:
        return ()
    if not P.is_homogeneous:
        raise InputError("decompose requires a homogeneous polynomial")
    j = P.degree
    half = j // 2
    # with wbar = t - w and delta = w - wbar = (-t, 2): delta*x = -wbar*z + w*zbar
    # and delta*y = z - zbar, so P.den*delta^j*P, read off P's numerators, is a
    # polynomial in z, zbar over Z[w]; only layers k <= j/2 are read.
    # (delta*x)^i has C(i, s) * (-wbar)^(i-s) * w^s on z^(i-s) * zbar^s, and
    # (z - zbar)^m has the integer coefficients (-1)^l * C(m, l).
    nwbar_powers, w_powers = powers(D, (-R.t, 1), j), powers(D, (0, 1), half)
    coeffs = [(0, 0)] * (half + 1)
    for (i, m), c in P.numerators.items():
        for s in range(min(i, half) + 1):
            u, v = mul(D, nwbar_powers[i - s], w_powers[s])
            binom = math.comb(i, s)
            for l in range(min(m, half - s) + 1):
                cl = (-1) ** l * math.comb(m, l) * binom * c
                cu, cv = coeffs[s + l]
                coeffs[s + l] = (cu + cl * u, cv + cl * v)
    # delta^2 = disc, so 1/delta^j = delta^(j mod 2)/disc^ceil(j/2)
    delta = (-R.t, 2) if j % 2 else (1, 0)
    scale = P.den * R.disc ** ((j + 1) // 2)
    out: list[tuple[int, Fraction, Fraction]] = []
    for k, c in enumerate(coeffs):
        re, im = parts(D, mul(D, c, delta))
        re, im = re / scale, im / scale
        if 2 * k == j:
            out.append((k, re, Fraction(0)))
        else:
            out.append((k, 2 * re, -2 * D * im))
    return tuple(out)
