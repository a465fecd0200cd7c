"""Exact bivariate polynomials and the two-dimensional harmonic-like bases.

For each admissible D and degree j >= 1 the pair R_{D,j}, I_{D,j} is the
real and imaginary part of (x + w*y)^j, with w the second basis element of
O_D. R_{D,j} is rational; I_{D,j} is sqrt(D) times a rational polynomial,
so imaginary parts are carried as (rational polynomial, radical flag) and
never leave the rationals. Denominators only ever involve powers of 2.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

from .ring import mul, require_admissible, ring_data

RationalLike = int | Fraction

_Monomial = tuple[int, int]


class BivarPoly:
    """Immutable polynomial in x, y with exact rational coefficients."""

    # _int_form caches the denominator-cleared terms for evaluate; it is
    # derived from _terms and takes no part in equality or hashing.
    __slots__ = ("_terms", "_int_form")

    def __init__(
        self,
        terms: Mapping[_Monomial, RationalLike]
        | Iterable[tuple[_Monomial, RationalLike]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[_Monomial, Fraction] = {}
        for (i, k), c in items:
            if i < 0 or k < 0:
                raise ValueError(f"negative exponent in monomial x^{i}*y^{k}")
            c = Fraction(c)
            if c:
                acc[(i, k)] = acc.get((i, k), Fraction(0)) + c
        object.__setattr__(self, "_terms", {m: c for m, c in acc.items() if c})
        object.__setattr__(self, "_int_form", None)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> BivarPoly:
        return cls()

    @classmethod
    def constant(cls, c: RationalLike) -> BivarPoly:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, k: int, c: RationalLike = 1) -> BivarPoly:
        return cls({(i, k): c})

    # -- structure ---------------------------------------------------------

    @property
    def terms(self) -> dict[_Monomial, Fraction]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + k for i, k in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_homogeneous(self) -> bool:
        degrees = {i + k for i, k in self._terms}
        return len(degrees) <= 1

    def coefficient(self, i: int, k: int) -> Fraction:
        return self._terms.get((i, k), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: BivarPoly) -> BivarPoly:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return BivarPoly(out)

    def __sub__(self, other: BivarPoly) -> BivarPoly:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> BivarPoly:
        return BivarPoly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: BivarPoly | RationalLike) -> BivarPoly:
        if isinstance(other, (int, Fraction)):
            return BivarPoly({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out: dict[_Monomial, Fraction] = {}
        for (i1, k1), c1 in self._terms.items():
            for (i2, k2), c2 in other._terms.items():
                m = (i1 + i2, k1 + k2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return BivarPoly(out)

    def __rmul__(self, other: RationalLike) -> BivarPoly:
        return self * other

    def __pow__(self, n: int) -> BivarPoly:
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = BivarPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation ----------------------------------------------------------

    def _integer_form(self) -> tuple[int, int, int, tuple[tuple[int, int, int], ...]]:
        """(den, dx, dy, ((t, i, k), ...)) with t = c * den integral.

        den is the LCM of the coefficient denominators, dx and dy the top
        exponents of x and y. Built on first use and kept.
        """
        form = self._int_form
        if form is None:
            den = 1
            for c in self._terms.values():
                den = math.lcm(den, c.denominator)
            dx = max((i for i, _ in self._terms), default=0)
            dy = max((k for _, k in self._terms), default=0)
            terms = tuple(
                (c.numerator * (den // c.denominator), i, k)
                for (i, k), c in self._terms.items()
            )
            form = (den, dx, dy, terms)
            object.__setattr__(self, "_int_form", form)
        return form

    def evaluate(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Exact value at a rational point, summed in integers.

        int and Fraction inputs are read through .numerator/.denominator;
        anything else (float, str, Decimal, ...) goes through Fraction()
        once. With x = a/b, y = c/d and the coefficients cleared to
        integers t = c*den, the value is
        sum t * a^i * b^(dx-i) * c^k * d^(dy-k) over den * b^dx * d^dy,
        so only the final division builds a Fraction.
        """
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        if not isinstance(y, (int, Fraction)):
            y = Fraction(y)
        den, dx, dy, terms = self._integer_form()
        a, b = x.numerator, x.denominator
        c, d = y.numerator, y.denominator
        a_pows = _powers(a, dx)
        b_pows = _powers(b, dx)
        c_pows = _powers(c, dy)
        d_pows = _powers(d, dy)
        total = 0
        for t, i, k in terms:
            total += t * a_pows[i] * b_pows[dx - i] * c_pows[k] * d_pows[dy - k]
        return Fraction(total, den * b_pows[dx] * d_pows[dy])

    def evaluate_float(self, x: float, y: float) -> float:
        return sum(float(c) * x**i * y**k for (i, k), c in self._terms.items())

    def __repr__(self) -> str:
        return f"BivarPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _powers(v: int, n: int) -> list[int]:
    """[v^0, v^1, ..., v^n]."""
    if v == 1:
        return [1] * (n + 1)
    out = [1]
    for _ in range(n):
        out.append(out[-1] * v)
    return out


def norm_form_poly(D: int) -> BivarPoly:
    """The norm form x^2 + t*x*y + n*y^2 of O_D as a BivarPoly."""
    R = ring_data(D)
    return BivarPoly({(2, 0): 1, (1, 1): R.t, (0, 2): R.n})


# -- text format ---------------------------------------------------------------

class PolyParseError(ValueError):
    """Parse failure with the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([xy*^+/-])|(\S))")


def parse_poly(text: str) -> BivarPoly:
    """Parse the CLI polynomial format, e.g. ``2*x^2+3462*x*y+1729*y^2``.

    Terms are coefficient and/or monomial factors joined by ``*``;
    coefficients may be fractions like ``-1/2``. Whitespace is ignored.
    """
    tokens: list[tuple[str, str, int]] = []  # (kind, value, position)
    for match in _TOKEN.finditer(text):
        pos = match.start(match.lastindex)
        if match.group(3):
            raise PolyParseError(f"unexpected character {match.group(3)!r}", pos)
        if match.group(1):
            tokens.append(("int", match.group(1), pos))
        else:
            tokens.append(("op", match.group(2), pos))
    if not tokens:
        raise PolyParseError("empty polynomial", 0)

    terms: list[tuple[_Monomial, Fraction]] = []
    idx = 0

    def peek() -> Optional[tuple[str, str, int]]:
        return tokens[idx] if idx < len(tokens) else None

    def take() -> tuple[str, str, int]:
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_number(end_pos: int) -> Fraction:
        tok = peek()
        if tok is None or tok[0] != "int":
            raise PolyParseError("expected a number", tok[2] if tok else end_pos)
        take()
        num = int(tok[1])
        nxt = peek()
        if nxt is not None and nxt[1] == "/":
            take()
            dtok = peek()
            if dtok is None or dtok[0] != "int":
                raise PolyParseError(
                    "expected a denominator", dtok[2] if dtok else end_pos
                )
            take()
            if int(dtok[1]) == 0:
                raise PolyParseError("zero denominator", dtok[2])
            return Fraction(num, int(dtok[1]))
        return Fraction(num)

    def parse_term(sign: int, end_pos: int) -> tuple[_Monomial, Fraction]:
        coeff = Fraction(sign)
        xexp = 0
        yexp = 0
        expect_factor = True
        saw_factor = False
        while True:
            tok = peek()
            if tok is None or (tok[1] in "+-" and not expect_factor):
                break
            kind, value, pos = tok
            if not expect_factor:
                if value == "*":
                    take()
                    expect_factor = True
                    continue
                raise PolyParseError(f"expected '*', '+' or '-', got {value!r}", pos)
            if kind == "int":
                coeff *= parse_number(end_pos)
            elif value in "xy":
                take()
                exp = 1
                nxt = peek()
                if nxt is not None and nxt[1] == "^":
                    take()
                    etok = peek()
                    if etok is None or etok[0] != "int":
                        raise PolyParseError(
                            "expected an exponent", etok[2] if etok else end_pos
                        )
                    take()
                    exp = int(etok[1])
                if value == "x":
                    xexp += exp
                else:
                    yexp += exp
            else:
                raise PolyParseError(f"expected a factor, got {value!r}", pos)
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            tok = peek()
            raise PolyParseError("empty term", tok[2] if tok else end_pos)
        if expect_factor:
            raise PolyParseError("dangling '*'", end_pos)
        return (xexp, yexp), coeff

    end = len(text)
    sign = 1
    tok = peek()
    if tok is not None and tok[1] in "+-":
        take()
        sign = -1 if tok[1] == "-" else 1
    terms.append(parse_term(sign, end))
    while peek() is not None:
        tok = take()
        if tok[1] not in "+-":
            raise PolyParseError(f"expected '+' or '-', got {tok[1]!r}", tok[2])
        terms.append(parse_term(-1 if tok[1] == "-" else 1, end))
    return BivarPoly(terms)


def format_poly(P: BivarPoly) -> str:
    """Canonical text form; ``parse_poly`` round-trips it exactly."""
    if P.is_zero:
        return "0"
    pieces: list[str] = []
    ordering = sorted(P.terms, key=lambda m: (m[0] + m[1], -m[0]))
    for i, k in ordering:
        c = P.coefficient(i, k)
        mag = -c if c < 0 else c
        factors: list[str] = []
        if mag != 1 or (i == 0 and k == 0):
            factors.append(str(mag.numerator) if mag.denominator == 1 else
                           f"{mag.numerator}/{mag.denominator}")
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if k:
            factors.append("y" if k == 1 else f"y^{k}")
        term = "*".join(factors)
        if not pieces:
            pieces.append(term if c > 0 else "-" + term)
        else:
            pieces.append(("+" if c > 0 else "-") + term)
    return "".join(pieces)


# -- basis polynomials --------------------------------------------------------


class BasisKind(Enum):
    REAL_PART = "real"
    IMAG_PART = "imag"


@dataclass(frozen=True)
class HarmonicBasisElement:
    """One of the two degree-j basis polynomials attached to O_D.

    ``poly`` is always rational. For the imaginary part the true
    polynomial is sqrt(D) * poly, recorded by ``radical=True``.
    """

    poly: BivarPoly
    radical: bool
    D: int
    j: int
    kind: BasisKind


def basis_poly(D: int, j: int, kind: BasisKind) -> HarmonicBasisElement:
    """Exact binomial expansion of the real or imaginary part of (x + w*y)^j.

    Powers of w are computed in the integral basis, so coefficients stay
    rational with denominators dividing 2^j.
    """
    R = ring_data(D)
    if j < 1:
        raise ValueError(f"basis degree must be >= 1, got {j}")
    terms: dict[_Monomial, Fraction] = {}
    w_power = (1, 0)
    for m in range(j + 1):
        binom = math.comb(j, m)
        # w^m = u + v*w; real part u + v*rho, imag part v*sigma*sqrt(D)
        u, v = w_power
        if kind is BasisKind.REAL_PART:
            c = binom * (u + v * R.rho)
        else:
            c = binom * v * R.sigma
        if c:
            terms[(j - m, m)] = Fraction(c)
        w_power = mul(D, w_power, (0, 1))
    return HarmonicBasisElement(
        poly=BivarPoly(terms),
        radical=kind is BasisKind.IMAG_PART,
        D=D,
        j=j,
        kind=kind,
    )


def basis_pair(D: int, j: int) -> tuple[BivarPoly, BivarPoly]:
    """(R_{D,j}, I_{D,j}/sqrt(D)) as rational polynomials."""
    return (
        basis_poly(D, j, BasisKind.REAL_PART).poly,
        basis_poly(D, j, BasisKind.IMAG_PART).poly,
    )


# -- exact linear algebra ------------------------------------------------------


def _solve_exact(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve sum_i x_i * columns[i] == target exactly, or return None.

    Plain Gaussian elimination over Fraction on the augmented matrix;
    any candidate solution is verified against every input row, so an
    inconsistent or underdetermined-but-wrong system is always rejected.
    """
    ncols = len(columns)
    nrows = len(target)
    rows = [[col[r] for col in columns] + [target[r]] for r in range(nrows)]
    pivot_of_col: dict[int, int] = {}
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, nrows) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [v / lead for v in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[pivot_row])]
        pivot_of_col[col] = pivot_row
        pivot_row += 1
    solution = [Fraction(0)] * ncols
    for col, r in pivot_of_col.items():
        solution[col] = rows[r][ncols]
    # exact residual check
    for r in range(nrows):
        lhs = sum(
            (columns[c][r] * solution[c] for c in range(ncols)), Fraction(0)
        )
        if lhs != target[r]:
            return None
    return solution


def _homogeneous_coordinates(
    P: BivarPoly, j: int
) -> list[Fraction]:
    """Coefficients of P on the degree-j monomials x^j, x^{j-1}y, ..., y^j."""
    return [P.coefficient(j - m, m) for m in range(j + 1)]


def in_span(
    D: int, j: int, P: BivarPoly
) -> Optional[tuple[Fraction, Fraction]]:
    """Rational coordinates of P in the basis {R_{D,j}, I_{D,j}/sqrt(D)}.

    Returns (a, b) with P == a*R + b*(I/sqrt(D)) when P lies in the span,
    None otherwise. Membership here implies membership in the real span
    of {R, I}, since sqrt(D) only rescales the second basis vector.
    """
    require_admissible(D)
    if j < 1:
        raise ValueError(f"span degree must be >= 1, got {j}")
    if P.is_zero or not P.is_homogeneous or P.degree != j:
        raise ValueError(f"in_span requires a homogeneous polynomial of degree {j}")
    R, Iq = basis_pair(D, j)
    solution = _solve_exact(
        [_homogeneous_coordinates(R, j), _homogeneous_coordinates(Iq, j)],
        _homogeneous_coordinates(P, j),
    )
    if solution is None:
        return None
    return solution[0], solution[1]


def decompose(
    D: int, P: BivarPoly
) -> tuple[tuple[int, Fraction, Fraction], ...]:
    """Layered coordinates of a homogeneous P over the norm-form powers.

    Writes P as a sum over k of q^k * (a_k*R_{D,j-2k} + b_k*I_{D,j-2k}/sqrt(D)),
    with q the norm form, plus a_k * q^{j/2} for the constant layer when j
    is even. The system is square and nonsingular, so the coefficients are
    unique; returned as (k, a_k, b_k) triples with b_k = 0 on the constant
    layer.
    """
    require_admissible(D)
    if P.is_zero:
        return ()
    if not P.is_homogeneous:
        raise ValueError("decompose requires a homogeneous polynomial")
    j = P.degree
    if j == 0:
        return ((0, P.coefficient(0, 0), Fraction(0)),)
    q = norm_form_poly(D)
    columns: list[list[Fraction]] = []
    layout: list[tuple[int, bool]] = []  # (k, has_imag_column)
    q_power = BivarPoly.constant(1)
    for k in range(j // 2 + 1):
        sub_degree = j - 2 * k
        if sub_degree >= 1:
            R, Iq = basis_pair(D, sub_degree)
            columns.append(_homogeneous_coordinates(q_power * R, j))
            columns.append(_homogeneous_coordinates(q_power * Iq, j))
            layout.append((k, True))
        else:
            columns.append(_homogeneous_coordinates(q_power, j))
            layout.append((k, False))
        q_power = q_power * q
    solution = _solve_exact(columns, _homogeneous_coordinates(P, j))
    if solution is None:  # direct sum: cannot happen for homogeneous input
        raise ArithmeticError("decomposition system was inconsistent")
    out: list[tuple[int, Fraction, Fraction]] = []
    pos = 0
    for k, has_imag in layout:
        if has_imag:
            out.append((k, solution[pos], solution[pos + 1]))
            pos += 2
        else:
            out.append((k, solution[pos], Fraction(0)))
            pos += 1
    return tuple(out)
