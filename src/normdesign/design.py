"""Design classification of shells and its floating quadrature cross-check.

A nonempty shell is a t-design exactly when both degree-j basis sums
vanish for every j <= t; classification is therefore exact integer
arithmetic. The quadrature routine independently evaluates the weighted
line-integral averages that the discrete averages are measured against,
validating the analytic normalization constants in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_representable
from .harmonic import BivarPoly
from .ring import require_admissible, unit_count
from .shells import enumerate_shell
from .theta import basis_shell_sums_upto, format_rational

MAX_PROFILE_DEGREE = 40  # shell sums grow like r^(j/2); keep scans at desk scale


@dataclass(frozen=True)
class FailingDegree:
    j: int
    witness: Fraction


@dataclass(frozen=True)
class DesignReport:
    """Exact classification of every degree j <= j_max for one shell."""

    D: int
    r: int
    j_max: int
    vanishing: tuple[int, ...]
    failing: tuple[FailingDegree, ...]
    claimed_T: str
    theorem_main_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "D": self.D,
            "r": self.r,
            "jmax": self.j_max,
            "vanishing": list(self.vanishing),
            "failing": [
                {"j": f.j, "witness": format_rational(f.witness)}
                for f in self.failing
            ],
            "theorem_main_ok": self.theorem_main_ok,
        }


def _require_nonempty(D: int, r: int):
    require_admissible(D)
    if r < 1:
        raise ValueError(f"design checks require r >= 1, got {r}")
    if not is_representable(D, r):
        raise ValueError(
            f"the norm {r} shell is empty for D={D}: some inert prime divides "
            f"{r} to an odd power"
        )
    return enumerate_shell(D, r)


def strength_profile(D: int, r: int, j_max: int) -> DesignReport:
    """Classify every degree j <= j_max as vanishing or failing, with witnesses.

    A degree fails when either basis shell sum is nonzero; the witness is
    the real-part sum when nonzero, else the imaginary-part sum.
    """
    if j_max < 1 or j_max > MAX_PROFILE_DEGREE:
        raise ValueError(f"j_max must be in [1, {MAX_PROFILE_DEGREE}], got {j_max}")
    shell = _require_nonempty(D, r)
    u = unit_count(D)
    vanishing: list[int] = []
    failing: list[FailingDegree] = []
    for j, (r_sum, i_sum) in enumerate(basis_shell_sums_upto(shell, j_max), start=1):
        if r_sum == 0 and i_sum == 0:
            vanishing.append(j)
        else:
            failing.append(FailingDegree(j, r_sum if r_sum != 0 else i_sum))
    expected = {j for j in range(1, j_max + 1) if j % u == 0}
    ok = {f.j for f in failing} == expected
    return DesignReport(
        D=D,
        r=r,
        j_max=j_max,
        vanishing=tuple(vanishing),
        failing=tuple(failing),
        claimed_T=f"Z+ minus {u}Z+",
        theorem_main_ok=ok,
    )


def is_t_design(D: int, r: int, t: int) -> bool:
    """Whether the nonempty norm r shell averages all degrees <= t exactly."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    shell = _require_nonempty(D, r)
    return all(
        r_sum == 0 and i_sum == 0
        for r_sum, i_sum in basis_shell_sums_upto(shell, t)
    )


def verify_theorem_main(D: int, r: int, j_max: int) -> tuple[bool, DesignReport]:
    """Check that the failing degrees are exactly the multiples of u_D."""
    report = strength_profile(D, r, j_max)
    return report.theorem_main_ok, report


# -- quadrature cross-check ------------------------------------------------------


def _ellipse_parametrization(D: int, r: int):
    """gamma(theta), gamma'(theta) and the weight for the norm r ellipse."""
    sqrt_r = math.sqrt(r)
    sqrt_d = math.sqrt(D)
    if D % 4 in (1, 2):

        def gamma(theta: float) -> tuple[float, float]:
            return sqrt_r * math.cos(theta), sqrt_r * math.sin(theta) / sqrt_d

        def gamma_prime(theta: float) -> tuple[float, float]:
            return -sqrt_r * math.sin(theta), sqrt_r * math.cos(theta) / sqrt_d

        def weight(x: float, y: float) -> float:
            return 1.0 / math.sqrt(x * x / (D * D) + y * y)

        prefactor = 1.0 / (2.0 * math.pi * sqrt_d)
    else:

        def gamma(theta: float) -> tuple[float, float]:
            return (
                sqrt_r * (math.cos(theta) - math.sin(theta) / sqrt_d),
                2.0 * sqrt_r * math.sin(theta) / sqrt_d,
            )

        def gamma_prime(theta: float) -> tuple[float, float]:
            return (
                sqrt_r * (-math.sin(theta) - math.cos(theta) / sqrt_d),
                2.0 * sqrt_r * math.cos(theta) / sqrt_d,
            )

        def weight(x: float, y: float) -> float:
            return 1.0 / math.sqrt(
                20.0 * x * x
                + (D * D + 2.0 * D + 5.0) * y * y
                + (20.0 + 4.0 * D) * x * y
            )

        prefactor = sqrt_d / math.pi
    return gamma, gamma_prime, weight, prefactor


def quadrature_average(D: int, r: int, P: BivarPoly, M: int) -> float:
    """Weighted line-integral average of P over the norm r ellipse.

    Periodic trapezoid rule with M nodes on the parametrized curve,
    including the weight, the prefactor and the arc-length factor
    explicitly. The weighted arc-length density is constant along the
    curve, so the integrand is a trigonometric polynomial of degree deg P,
    and the rule is exact (up to rounding) only when M > deg P; fewer
    nodes alias high frequencies and are rejected.
    """
    require_admissible(D)
    if r < 1:
        raise ValueError(f"quadrature requires r >= 1, got {r}")
    if M < 16 or M & (M - 1) != 0:
        raise ValueError(f"node count must be a power of two >= 16, got {M}")
    if M <= P.degree:
        raise ValueError(
            f"node count must exceed the polynomial degree {P.degree}, got {M}"
        )
    gamma, gamma_prime, weight, prefactor = _ellipse_parametrization(D, r)
    step = 2.0 * math.pi / M
    total = 0.0
    for i in range(M):
        theta = step * i
        x, y = gamma(theta)
        dx, dy = gamma_prime(theta)
        total += P.evaluate_float(x, y) * weight(x, y) * math.hypot(dx, dy)
    return prefactor * total * step


def measure_density(D: int, r: int, theta: float) -> float:
    """weight(gamma(theta)) * |gamma'(theta)|, constant in theta by design."""
    require_admissible(D)
    gamma, gamma_prime, weight, _ = _ellipse_parametrization(D, r)
    x, y = gamma(theta)
    dx, dy = gamma_prime(theta)
    return weight(x, y) * math.hypot(dx, dy)


def norm_form_float(D: int, x: float, y: float) -> float:
    require_admissible(D)
    if D % 4 in (1, 2):
        return x * x + D * y * y
    return x * x + x * y + ((1 + D) / 4.0) * y * y


_CIRCLE_TOL = 1e-9


def spherical_map(
    D: int, points: list[tuple[float, float]] | tuple[tuple[float, float], ...]
) -> list[tuple[float, float]]:
    """Carry points on the unit circle to the unit norm ellipse.

    (x, y) -> (x, y/sqrt(D)) for D = 1, 2 and (x - y/sqrt(D), 2y/sqrt(D))
    otherwise; this is the correspondence taking circle designs to
    ellipse designs. Images are checked to land on the ellipse.
    """
    require_admissible(D)
    sqrt_d = math.sqrt(D)
    out: list[tuple[float, float]] = []
    for x, y in points:
        if abs(x * x + y * y - 1.0) > _CIRCLE_TOL:
            raise ValueError(f"({x}, {y}) is not on the unit circle")
        if D % 4 in (1, 2):
            image = (x, y / sqrt_d)
        else:
            image = (x - y / sqrt_d, 2.0 * y / sqrt_d)
        if abs(norm_form_float(D, *image) - 1.0) > _CIRCLE_TOL:
            raise ValueError(f"image of ({x}, {y}) left the unit norm ellipse")
        out.append(image)
    return out
