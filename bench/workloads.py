"""Seeded workloads of normdesign CLI invocations and the oracles for their outputs.

A workload is a pass: a fixed list of argvs that one client runs one after
another (a closed loop), repeated until the run's time is up. The seed makes
the pass; the same seed makes the same pass. Outputs are checked after each
pass, outside the timed region, each against a route other than the one that
produced it. Fields are compared by meaning, not bytes, so additive changes
to the JSON payloads do not break the checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, pi, sqrt

from normdesign.arith import kronecker
from normdesign.harmonic import BasisKind, BivarPoly, basis_poly, parse_poly
from normdesign.ring import discriminant
from normdesign.theta import a_norm, a_prime_closed_form, shell_sum

D_ALL = (1, 2, 3, 7, 11, 19, 43, 67, 163)

# sweep: one `sweep --rmax SWEEP_RMAX --jmax 13` per pass, about 0.4 s on a
# 2-core x86 VM, so a run holds dozens of them. SWEEP_SAMPLE reports per pass
# are recomputed from scratch.
SWEEP_RMAX = 500
JMAX = 13  # --jmax of sweep and verify
SWEEP_SAMPLE = 8

# theta: each D gets the --rmax whose lattice ball holds about THETA_BALL
# points, so the nine D cost about the same. THETA_J is a multiple of every
# u_D. The seeded --poly has the same shape as R_{D,THETA_J} (a full form of
# that degree), so the seed changes its values but not its cost.
THETA_BALL = 120
THETA_J = 12
POLY_DEGREE = THETA_J
POLY_FRACTIONS = 4
THETA_SAMPLE = 8

# large_norm: per D and pass, LARGE_PER_D verify and hecke calls, the k-th
# drawing N (or p) from the k-th equal slice of its band, so the pass costs
# the same whatever the seed.
LARGE_PER_D = 6
VERIFY_BAND = (10**9, 2 * 10**9)
HECKE_BAND = (1000, 2000)
HECKE_ALPHA = 3


def unit_count(D: int) -> int:
    return {1: 4, 3: 6}.get(D, 2)


def norm(D: int, x: int, y: int) -> int:
    if D % 4 in (1, 2):
        return x * x + D * y * y
    return x * x + x * y + (1 + D) // 4 * y * y


@lru_cache(maxsize=None)
def nonzero_norms(D: int, bound: int) -> tuple[int, ...]:
    """Norms 1..bound taken by O_D, from a brute-force box around the ball."""
    y_max = isqrt(4 * bound // D) + 1
    x_max = isqrt(bound) + y_max + 1
    norms = {
        norm(D, x, y)
        for y in range(-y_max, y_max + 1)
        for x in range(-x_max, x_max + 1)
    }
    return tuple(sorted(n for n in norms if 0 < n <= bound))


@lru_cache(maxsize=None)
def _basis(D: int, j: int, kind: BasisKind) -> BivarPoly:
    return basis_poly(D, j, kind).poly


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    work: int  # work items the call completes, for work_per_s
    kind: str
    params: dict  # what the oracle needs to know about the inputs


class Workload:
    name: str
    work_unit: str

    def plan(self, seed: int) -> list[Invocation]:
        raise NotImplementedError

    def check(self, inv: Invocation, text: str, rng: random.Random) -> list[str]:
        """Problems found in one call's output; empty when it is correct."""
        raise NotImplementedError


class Sweep(Workload):
    """Many tiny shells: power sums, Fraction splitting, reports and JSON."""

    name = "sweep"
    work_unit = "representable (D, r) shells classified"

    def plan(self, seed: int) -> list[Invocation]:
        shells = [(D, r) for D in D_ALL for r in nonzero_norms(D, SWEEP_RMAX)]
        argv = ("sweep", "--rmax", str(SWEEP_RMAX), "--jmax", str(JMAX))
        return [Invocation(argv, len(shells), "sweep", {"shells": shells})]

    def check(self, inv, text, rng):
        payload = json.loads(text)
        problems = []
        if payload["all_ok"] is not True:
            problems.append("all_ok is not true")
        if (payload["rmax"], payload["jmax"]) != (SWEEP_RMAX, JMAX):
            problems.append("rmax/jmax differ from the arguments")
        reports = payload["reports"]
        if sorted((rep["D"], rep["r"]) for rep in reports) != inv.params["shells"]:
            problems.append("reported (D, r) are not exactly the representable ones")
            return problems
        for rep in rng.sample(reports, SWEEP_SAMPLE):
            problems += _check_design_report(rep, JMAX)
        return problems


def _check_design_report(rep: dict, j_max: int) -> list[str]:
    """Recompute every degree of a design report by evaluating both basis
    polynomials over the enumerated shell."""
    D, r = rep["D"], rep["r"]
    vanishing, failing = [], []
    for j in range(1, j_max + 1):
        re = shell_sum(D, _basis(D, j, BasisKind.REAL_PART), r)
        im = shell_sum(D, _basis(D, j, BasisKind.IMAG_PART), r)
        if re == 0 and im == 0:
            vanishing.append(j)
        else:
            failing.append((j, re if re != 0 else im))
    got = [(f["j"], Fraction(f["witness"])) for f in rep["failing"]]
    where = f"D={D} r={r}"
    problems = []
    if rep["vanishing"] != vanishing or got != failing:
        problems.append(f"{where}: degree classification differs from shell sums")
    if [j for j, _ in failing] != [j for j in range(1, j_max + 1) if j % unit_count(D) == 0]:
        problems.append(f"{where}: failing degrees are not the multiples of u_D")
    if rep["theorem_main_ok"] is not True:
        problems.append(f"{where}: theorem_main_ok is not true")
    return problems


def theta_rmax(D: int) -> int:
    # The ball {norm <= R} has area pi*R/sqrt(D) for D = 1, 2 and
    # 2*pi*R/sqrt(D) otherwise, which is also about its number of points.
    area_per_norm = (pi if D % 4 in (1, 2) else 2 * pi) / sqrt(D)
    return round(THETA_BALL / area_per_norm)


def random_poly(rng: random.Random) -> dict[tuple[int, int], Fraction]:
    """Every monomial of degree POLY_DEGREE, POLY_FRACTIONS of them with a
    non-integer coefficient."""
    fractional = set(rng.sample(range(POLY_DEGREE + 1), POLY_FRACTIONS))
    terms = {}
    for i in range(POLY_DEGREE + 1):
        num = rng.choice((-1, 1)) * rng.randint(1, 99)
        den = rng.choice((2, 3, 5, 7)) if i in fractional else 1
        if den > 1 and num % den == 0:
            num += 1 if num > 0 else -1
        terms[(i, POLY_DEGREE - i)] = Fraction(num, den)
    return terms


def poly_text(terms: dict[tuple[int, int], Fraction]) -> str:
    out = []
    for (i, k), c in terms.items():
        factors = [str(abs(c))]
        if i:
            factors.append(f"x^{i}")
        if k:
            factors.append(f"y^{k}")
        out.append(("-" if c < 0 else "+") + "*".join(factors))
    return "".join(out)


class Theta(Workload):
    """Theta tables: polynomial evaluation over the lattice-ball walk."""

    name = "theta"
    work_unit = "theta coefficients emitted"

    def plan(self, seed: int) -> list[Invocation]:
        rng = random.Random(f"theta-{seed}")
        plan = []
        for D in D_ALL:
            rmax = theta_rmax(D)
            tail = ("--rmax", str(rmax), "--format", "json")
            argv = ("theta", str(D), "--j", str(THETA_J)) + tail
            plan.append(Invocation(argv, rmax + 1, "theta_j", {"D": D}))
            terms = random_poly(rng)
            plan.append(
                Invocation(
                    ("theta", str(D), f"--poly={poly_text(terms)}") + tail,
                    rmax + 1,
                    "theta_poly",
                    {"D": D, "poly": BivarPoly(terms)},
                )
            )
        return plan

    def check(self, inv, text, rng):
        D = inv.params["D"]
        rmax = theta_rmax(D)
        payload = json.loads(text)
        coeffs = payload["coeffs"]
        problems = []
        if (payload["D"], payload["rmax"], len(coeffs)) != (D, rmax, rmax + 1):
            return [f"D={D}: header or table length is wrong"]
        if inv.kind == "theta_j":
            poly = _basis(D, THETA_J, BasisKind.REAL_PART)
            if payload["j"] != THETA_J:
                problems.append(f"D={D}: j is not {THETA_J}")
        else:
            poly = inv.params["poly"]
            if parse_poly(payload["poly"]) != poly:
                problems.append(f"D={D}: poly does not parse back to the input")
        norms = nonzero_norms(D, rmax)
        rs = rng.sample(norms, min(THETA_SAMPLE - 2, len(norms)))
        rs += [rng.randint(0, rmax) for _ in range(2)]
        for r in rs:
            got = Fraction(coeffs[r])
            if got != shell_sum(D, poly, r):
                problems.append(f"D={D} r={r}: coefficient differs from the shell sum")
            if inv.kind == "theta_j" and got / unit_count(D) != a_norm(D, THETA_J, r):
                problems.append(f"D={D} r={r}: coefficient / u_D differs from a_norm")
        return problems


def _in_slice(band: tuple[int, int], k: int) -> tuple[int, int]:
    lo, hi = band
    width = (hi - lo) // LARGE_PER_D
    return lo + k * width, lo + (k + 1) * width


def random_norm(D: int, lo: int, hi: int, rng: random.Random) -> int:
    """A norm of O_D in [lo, hi): the norm of a lattice point near a random target."""
    while True:
        target = rng.randrange(lo, hi)
        y = rng.randrange(isqrt((target if D % 4 in (1, 2) else 4 * target) // D))
        if D % 4 in (1, 2):
            x = isqrt(target - D * y * y)
        else:
            x = (isqrt(4 * target - D * y * y) - y) // 2
        n = norm(D, x, y)
        if lo <= n < hi:
            return n


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def random_split_prime(D: int, lo: int, hi: int, rng: random.Random) -> int:
    """An odd prime p in [lo, hi) that splits in O_D: -D is a square mod p."""
    while True:
        p = rng.randrange(lo, hi)
        if p % 2 and D % p and _is_prime(p) and pow(-D % p, (p - 1) // 2, p) == 1:
            return p


class LargeNorm(Workload):
    """Single shells at large norms: the O(sqrt N) scan and trial division."""

    name = "large_norm"
    work_unit = "invocations"

    def plan(self, seed: int) -> list[Invocation]:
        rng = random.Random(f"large_norm-{seed}")
        plan = []
        for k in range(LARGE_PER_D):
            for D in D_ALL:
                N = random_norm(D, *_in_slice(VERIFY_BAND, k), rng)
                argv = ("verify", str(D), str(N), "--jmax", str(JMAX), "--format", "json")
                plan.append(Invocation(argv, 1, "verify", {"D": D, "N": N}))
                p = random_split_prime(D, *_in_slice(HECKE_BAND, k), rng)
                j = 2 * unit_count(D)
                argv = ("hecke", str(D), "--j", str(j), "--p", str(p))
                argv += ("--alpha", str(HECKE_ALPHA), "--format", "json")
                plan.append(Invocation(argv, 1, "hecke", {"D": D, "p": p, "j": j}))
        return plan

    def check(self, inv, text, rng):
        payload = json.loads(text)
        if inv.kind == "verify":
            D, N = inv.params["D"], inv.params["N"]
            failing = [j for j in range(1, JMAX + 1) if j % unit_count(D) == 0]
            got = (
                payload["D"],
                payload["r"],
                payload["jmax"],
                [f["j"] for f in payload["failing"]],
                payload["vanishing"],
                payload["theorem_main_ok"],
            )
            vanishing = [j for j in range(1, JMAX + 1) if j not in failing]
            want = (D, N, JMAX, failing, vanishing, True)
            return [] if got == want else [f"verify D={D} N={N}: report differs: {got}"]
        return _check_hecke(payload, **inv.params)


def _check_hecke(payload: dict, D: int, p: int, j: int) -> list[str]:
    """All checks passed, and a(p), a(p^2), a(p^3) agree with the closed form.

    The payload does not print a(p); it is pinned by a(p) mod p, by
    a(p^2) = a(p)^2 - chi p^j and by a(p^3) = a(p)(a(p^2) - chi p^j).
    """
    where = f"hecke D={D} p={p}"
    if payload["all_passed"] is not True or not all(c["pass"] for c in payload["checks"]):
        return [f"{where}: not all checks passed"]
    by_key = {(c["identity"], tuple(c["inputs"])): c for c in payload["checks"]}
    try:
        congruence = by_key[("prime-power-congruence", (p, 1))]
        rec2 = by_key[("prime-power-recursion", (p, 2))]
        rec3 = by_key[("prime-power-recursion", (p, 3))]
    except KeyError as exc:
        return [f"{where}: missing check {exc}"]
    a_p = a_prime_closed_form(D, j, p)
    chi_pj = kronecker(discriminant(D), p) * Fraction(p) ** j
    a_p2 = a_p * a_p - chi_pj
    if (
        Fraction(congruence["left"]) != a_p % p
        or Fraction(rec2["left"]) != a_p2
        or Fraction(rec3["right"]) != a_p * (a_p2 - chi_pj)
    ):
        return [f"{where}: a(p) differs from a_prime_closed_form = {a_p}"]
    return []


WORKLOADS = {w.name: w for w in (Sweep(), Theta(), LargeNorm())}
