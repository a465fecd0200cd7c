"""Design classification of shells and its floating quadrature cross-check.

A nonempty shell is a t-design exactly when both degree-j basis sums
vanish for every j <= t. The imaginary one vanishes on every shell, so
the check reads one exact int per degree: the real sum. Unless the caller
passes the shell, it is built from the factorization of r, at every r.
The quadrature routine independently evaluates the weighted line-integral
averages that the discrete averages are measured against, validating the
analytic normalization constants in floating point.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .harmonic import BivarPoly
from .ring import InputError, _shown, norm_form, ring_data
from .shells import Shell, shell_from_factorization
from .theta import basis_shell_sums_upto

MAX_PROFILE_DEGREE = 40  # shell sums grow like r^(j/2); j bounds their size
MAX_NODES = 2**20  # one float evaluation of P per node; README gives the timing
# nodes times terms of P: a term costs about 0.12 us per node on top of about
# 0.95 us per node, so 8 terms at 2^20 nodes take about 2 s and 3 600 terms at
# 2^11 nodes about 0.9 s (Python 3.11); 2^24 would let 16 terms run about 3 s
MAX_QUADRATURE_WORK = 2**23


FailingDegree = namedtuple("FailingDegree", "j witness")

DesignReport = namedtuple(
    "DesignReport", "D r j_max vanishing failing theorem_main_ok"
)
DesignReport.__doc__ = "Exact classification of every degree j <= j_max for one shell."


def strength_profile(
    D: int, r: int, j_max: int, shell: Shell | None = None
) -> DesignReport:
    """Classify every degree j <= j_max as vanishing or failing, with witnesses.

    A degree fails when its R_{D,j} shell sum is nonzero; the witness is
    that int, u_D times the theta coefficient a(r). The shell is
    shell_from_factorization(D, r), at every r, unless the caller passes
    it, as sweep does with each shell of shells.ball_shells; a shell of
    another D or r raises InputError, and one of (D, r) is taken as
    complete.
    """
    if j_max < 1 or j_max > MAX_PROFILE_DEGREE:
        raise InputError(
            f"j_max must be in [1, {MAX_PROFILE_DEGREE}], got {_shown(j_max)}"
        )
    R = ring_data(D)
    if r < 1:
        raise InputError(f"design checks require r >= 1, got {_shown(r)}")
    if shell is None:
        shell = shell_from_factorization(D, r)
    elif (shell.D, shell.r) != (D, r):
        raise InputError(
            f"the shell passed is the norm {_shown(shell.r)} shell for "
            f"D={shell.D}, not the norm {_shown(r)} shell for D={D}"
        )
    if not shell.points:
        raise InputError(
            f"the norm {r} shell is empty for D={D}: some inert prime divides "
            f"{r} to an odd power"
        )
    sums = basis_shell_sums_upto(shell, j_max)
    vanishing = tuple([j for j, r_sum in enumerate(sums, start=1) if not r_sum])
    failing = tuple([FailingDegree(j, r_sum)
                     for j, r_sum in enumerate(sums, start=1) if r_sum])
    u = R.unit_count  # failing is in increasing j: compare it with u, 2u, ... as lists
    ok = [f.j for f in failing] == list(range(u, j_max + 1, u))
    return DesignReport(D, r, j_max, vanishing, failing, ok)


# -- quadrature cross-check ------------------------------------------------------


def _ellipse_parametrization(D: int, r: int):
    """curve(theta), the weight and the prefactor for the norm r ellipse.

    curve(theta) is the point gamma(theta) = (x, y) with x + w*y =
    sqrt(r)*e^(i*theta), then its tangent gamma'(theta), from one cos/sin:
    y = sqrt(r)*sin(theta)/Im w, x = sqrt(r)*(cos(theta) - t*sin(theta)/sqrt(D)).
    """
    R = ring_data(D)
    t, im_w = R.t, R.im_w
    sqrt_r = math.sqrt(r)
    sqrt_d = math.sqrt(D)

    def curve(theta: float) -> tuple[float, float, float, float]:
        c, s = math.cos(theta), math.sin(theta)
        x, y = sqrt_r * (c - t * s / sqrt_d), sqrt_r * s / im_w
        return x, y, sqrt_r * (-s - t * c / sqrt_d), sqrt_r * c / im_w

    # the paper's two weight formulas, 1/sqrt(a*x^2 + b*y^2 + cxy*x*y), one
    # row (a, b, cxy) and prefactor per family of w
    if t == 0:
        a, b, cxy = 1.0 / (D * D), 1.0, 0.0
        prefactor = 1.0 / (2.0 * math.pi * sqrt_d)
    else:
        a, b, cxy = 20.0, D * D + 2.0 * D + 5.0, 20.0 + 4.0 * D
        prefactor = sqrt_d / math.pi

    def weight(x: float, y: float) -> float:
        return 1.0 / math.sqrt(a * x * x + b * y * y + cxy * x * y)

    return curve, weight, prefactor


def quadrature_average(D: int, r: int, P: BivarPoly, M: int) -> float:
    """Weighted line-integral average of P over the norm r ellipse.

    Periodic trapezoid rule with M nodes on the parametrized curve,
    including the weight, the prefactor and the arc-length factor
    explicitly. The weighted arc-length density is constant along the
    curve, so the integrand is a trigonometric polynomial of degree deg P,
    and the rule is exact (up to rounding) only when M > deg P; fewer
    nodes alias high frequencies and are rejected, as are more than
    MAX_NODES, or more than MAX_QUADRATURE_WORK nodes times terms of P.
    Each coefficient of P is turned into a float once, before any node.
    InputError when a coefficient, r or the integrand leaves the float range.
    """
    ring_data(D)
    if r < 1:
        raise InputError(f"quadrature requires r >= 1, got {_shown(r)}")
    if M < 16 or M & (M - 1) != 0:
        raise InputError(f"node count must be a power of two >= 16, got {_shown(M)}")
    if M > MAX_NODES:
        raise InputError(f"node count must be at most 2^20, got {_shown(M)}")
    if M <= P.degree:
        raise InputError(
            f"node count must exceed the polynomial degree {_shown(P.degree)}, got {M}"
        )
    terms = len(P.numerators)
    if M * terms > MAX_QUADRATURE_WORK:
        raise InputError(
            f"{M} nodes times {terms} terms is past the quadrature work budget "
            f"of {MAX_QUADRATURE_WORK}"
        )
    try:  # one float per coefficient: int true division rounds t / den correctly
        floats = [(t / P.den, i, k) for (i, k), t in P.numerators.items()]
    except OverflowError:
        raise InputError("a coefficient of P is outside the float range") from None
    try:
        curve, weight, prefactor = _ellipse_parametrization(D, r)
        step = 2.0 * math.pi / M
        total = 0.0
        for node in range(M):
            x, y, dx, dy = curve(step * node)
            w = weight(x, y) or math.nan  # 0 only if its quadratic form overflowed
            p_xy = sum(f * x**i * y**k for f, i, k in floats)
            total += p_xy * w * math.hypot(dx, dy)
        value = prefactor * total * step
    except OverflowError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise InputError(f"quadrature leaves the float range at r of {r.bit_length()} bits")


_CIRCLE_TOL = 1e-9


def spherical_map(
    D: int, points: list[tuple[float, float]] | tuple[tuple[float, float], ...]
) -> list[tuple[float, float]]:
    """Carry points on the unit circle to the unit norm ellipse.

    (x, y) -> (X, Y) with X + w*Y = x + i*y: (x, y/sqrt(D)) for D = 1, 2 and
    (x - y/sqrt(D), 2y/sqrt(D)) otherwise; this is the correspondence taking
    circle designs to ellipse designs. Images are checked to land on the
    ellipse.
    """
    R = ring_data(D)
    sqrt_d = math.sqrt(D)
    out: list[tuple[float, float]] = []
    for x, y in points:
        if abs(x * x + y * y - 1.0) > _CIRCLE_TOL:
            raise InputError(f"({x}, {y}) is not on the unit circle")
        image = (x - R.t * y / sqrt_d, y / R.im_w)
        if abs(norm_form(D, *image) - 1.0) > _CIRCLE_TOL:
            raise ValueError(f"image of ({x}, {y}) left the unit norm ellipse")
        out.append(image)
    return out
