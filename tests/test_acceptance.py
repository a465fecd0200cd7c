"""Acceptance suite: one test per criterion, printed as one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criterion 7 splits the odd representable primes p <= 100 by how they
behave in O_D. At a split prime a_norm(D, j, p) is nonzero mod p. At an
odd ramified prime (p = D) the norm-p shell is the unit orbit of sqrt(-D),
so a_norm(D, j, p) = (-D)^(j/2): nonzero over the integers, yet divisible
by p, and asserted at that exact value. Inert primes are never
representable, so no representable prime escapes both branches.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from normdesign.arith import is_prime, is_representable, splitting_type
from normdesign.cli import COPRIME_PAIRS, run
from normdesign.design import quadrature_average
from normdesign.harmonic import BasisKind, BivarPoly, basis_poly, parse_poly
from normdesign.ring import ADMISSIBLE_D, SplitType, ring_data
from normdesign.shells import enumerate_shell
from normdesign.theta import (
    a_norm,
    basis_shell_sums_upto,
    hecke_verify,
    power_sums,
    shell_sum,
)

EXAMPLE_POINTS = (
    (-30, 11), (-30, 19), (-19, -11), (-19, 30), (-11, -19), (-11, 30),
    (11, -30), (11, 19), (19, -30), (19, 11), (30, -19), (30, -11),
)
P_TEXT = "2*x^2+3462*x*y+1729*y^2"
Q_TEXT = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"


def primes_up_to(n):
    # is_prime is checked against a sieve in test_arith
    return [p for p in range(n + 1) if is_prime(p)]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def vanishing_sweep():
    """One shared pass over all nine D, representable r <= 300, j <= 13.

    Per shell and degree: the R_{D,j} sum from basis_shell_sums_upto, and
    the w-coordinate of power_sums, which carries the I_{D,j} sum.
    """
    start = time.perf_counter()
    sums = {}
    for D in ADMISSIBLE_D:
        for r in range(1, 301):
            shell = enumerate_shell(D, r)
            if shell.points:
                imag = [sb for _, sb in power_sums(shell, 13)]
                sums[(D, r)] = list(zip(basis_shell_sums_upto(shell, 13), imag))
    elapsed = time.perf_counter() - start
    return sums, elapsed


def test_criterion_1_shell_reproduction():
    with criterion("1 (shell reproduction)"):
        enumerate_shell(3, 691)  # warm-up outside the timed window
        best = min(
            _timed(lambda: enumerate_shell(3, 691))[0] for _ in range(3)
        )
        shell = enumerate_shell(3, 691)
        assert shell.points == EXAMPLE_POINTS
        assert best < 0.010, f"enumeration took {best * 1000:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_criterion_2_example_sums():
    with criterion("2 (worked example sums)"):
        assert shell_sum(3, parse_poly(P_TEXT), 691) == 0
        assert shell_sum(3, parse_poly(Q_TEXT), 691) == -4818834696


def test_criterion_3_known_coefficients():
    with criterion("3 (known coefficients)"):
        assert a_norm(7, 2, 2) == -3
        assert a_norm(1, 4, 2) == -4


def test_criterion_4_vanishing_sweep(vanishing_sweep):
    sums, elapsed = vanishing_sweep
    with criterion("4 (vanishing sweep r <= 300, j <= 13)"):
        for (D, r), per_degree in sums.items():
            u = ring_data(D).unit_count
            for j, (r_sum, i_sum) in enumerate(per_degree, start=1):
                assert i_sum == 0, (D, r, j)
                if j % u != 0:
                    assert r_sum == 0, (D, r, j)
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_5_strength_sweep(vanishing_sweep):
    sums, _ = vanishing_sweep
    with criterion("5 (strength sweep: nonvanishing at u_D, 2u_D)"):
        for (D, r), per_degree in sums.items():
            u = ring_data(D).unit_count
            for j in (u, 2 * u):
                r_sum, _ = per_degree[j - 1]
                assert r_sum != 0, (D, r, j)


def test_criterion_6_hecke_identities():
    with criterion("6 (Hecke identities)"):
        pairs = COPRIME_PAIRS
        assert len(pairs) == 20
        assert all(r1 * r2 <= 300 for r1, r2 in pairs)
        for D in ADMISSIBLE_D:
            j = ring_data(D).unit_count
            for index, p in enumerate(primes_up_to(47)):
                report = hecke_verify(
                    D, j, p, 3, pairs if index == 0 else []
                )
                assert report.all_passed, (D, p)


def test_criterion_7_nonzero_mod_p_and_oddness_at_two():
    with criterion(
        "7 (odd p <= 100: nonzero mod p if split, (-D)^(j/2) if ramified;"
        " D=7 oddness at 2)"
    ):
        for j in (2, 4, 6, 8, 10, 12):
            value = a_norm(7, j, 2)
            assert value.denominator == 1 and value.numerator % 2 == 1, j
        odd_primes = primes_up_to(100)[1:]
        for D in ADMISSIBLE_D:
            u = ring_data(D).unit_count
            split, ramified = set(), set()
            for p in odd_primes:
                if not is_representable(D, p):
                    continue
                kind = splitting_type(D, p)
                assert kind is not SplitType.INERT, (D, p)
                for j in (u, 2 * u):
                    value = a_norm(D, j, p)
                    if kind is SplitType.SPLIT:
                        split.add(p)
                        assert value.denominator == 1, (D, j, p)
                        assert value.numerator % p != 0, (D, j, p)
                    else:
                        # the norm-p shell is the unit orbit of sqrt(-D)
                        ramified.add(p)
                        assert value == Fraction(-D) ** (j // 2), (D, j, p)
                        assert value != 0, (D, j, p)
            assert split, D
            assert ramified == ({D} if D in odd_primes else set()), D


def test_criterion_8_inert_prime_squares():
    with criterion("8 (inert prime squares)"):
        for D in ADMISSIBLE_D:
            j = ring_data(D).unit_count
            for p in primes_up_to(20):
                if splitting_type(D, p) is SplitType.INERT:
                    assert a_norm(D, j, p * p) == Fraction(p) ** j, (D, p)


def test_criterion_9_quadrature_normalization():
    with criterion("9 (quadrature normalization)"):
        start = time.perf_counter()
        one = BivarPoly({(0, 0): 1})
        for D in ADMISSIBLE_D:
            for r in (1, 4):
                assert abs(quadrature_average(D, r, one, 256) - 1.0) < 1e-10, (D, r)
        for D in (1, 2, 3, 7):
            for r in (1, 4):
                for j in range(1, 9):
                    for kind in BasisKind:
                        p = basis_poly(D, j, kind).poly
                        assert abs(quadrature_average(D, r, p, 256)) < 1e-10, (
                            D, r, j, kind,
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"quadrature checks took {elapsed:.1f} s"


def test_criterion_10_representability_oracle():
    with criterion("10 (representability oracle r <= 2000)"):
        start = time.perf_counter()
        for D in ADMISSIBLE_D:
            for r in range(1, 2001):
                assert is_representable(D, r) == bool(
                    enumerate_shell(D, r).points
                ), (D, r)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_11_sweep_determinism(tmp_path):
    with criterion("11 (sweep determinism, parallelism 1 vs 8)"):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert run(
            ["sweep", "--rmax", "100", "--jmax", "13", "--output", str(serial)]
        ) == 0
        assert run(
            [
                "sweep", "--rmax", "100", "--jmax", "13",
                "--parallel", "8", "--output", str(parallel),
            ]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()
