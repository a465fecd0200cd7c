"""Command line front end: shells, design reports, theta tables and sweeps.

Exit codes: 0 when the command and every check it ran succeeded, 1 when a
verification failed, 2 on usage errors (bad flags, unparseable input,
inadmissible D, empty shell where a nonempty one is required).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .arith import MR_BOUND, is_representable
from .design import (
    MAX_PROFILE_DEGREE,
    DesignReport,
    quadrature_average,
    strength_profile,
)
from .harmonic import BivarPoly, PolyParseError, format_poly, parse_poly
from .ring import ADMISSIBLE_D, ring_data, unit_count
from .shells import Shell, enumerate_shell, norm_shell
from .theta import HeckeReport, format_rational, hecke_verify, shell_sum, theta_series

EXAMPLE_D = 3
EXAMPLE_R = 691
EXAMPLE_P = "2*x^2+3462*x*y+1729*y^2"
EXAMPLE_Q = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"
EXAMPLE_Q_SUM = -4818834696

#: Largest ``theta --rmax``: theta_series holds one coefficient per norm
#: and walks one point of each +-z pair up to it; D = 1 at --j 4 takes
#: 13-14 s at the cap and peaks at 111 MB RSS with --format json, 200 MB
#: with the table (Python 3.11).
MAX_THETA_RMAX = 10**6

#: Largest basis degree ``theta --j`` and ``hecke --j`` accept: the degree-j
#: basis polynomial has up to j + 1 terms whose coefficients grow
#: exponentially in j, and hecke keeps j power sums per shell point. At the cap ``theta 1 --j 1000 --rmax
#: 20`` takes 0.4 s and ``hecke 1 --j 1000 --p 5 --alpha 2`` 0.5 s; at
#: --j 4000 both take about 2.5 s (Python 3.11).
MAX_DEGREE = 1000

#: Largest reference scan ``hecke`` may start, in rows: the norm p^alpha
#: shell takes isqrt(4*p^alpha // |disc|) + 1. The wheel scans 10^8 rows in
#: 0.6-1.7 s for D = 1, 2, 3 and in up to 4.4 s for D = 67 and 163 (54
#: random p^3 shells, p up to 4*10^5, Python 3.11).
MAX_HECKE_ROWS = 10**8

#: Largest ``sweep --rmax``: cost and memory grow about linearly in rmax
#: (one report per representable norm, all held until the JSON is written);
#: at the cap --jmax 13 takes about 5 s and peaks at 72 MB, --jmax 40
#: takes 13 s and 198 MB (Python 3.11).
MAX_SWEEP_RMAX = 10**4


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _parse_poly_arg(text: str) -> BivarPoly:
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        marker = " " * exc.position + "^"
        raise UsageError(f"cannot parse polynomial:\n  {text}\n  {marker}\n{exc}")


class UsageError(Exception):
    pass


def _check_degree(j: int) -> None:
    """UsageError when --j passes MAX_DEGREE; a huge value is named by size."""
    if j > MAX_DEGREE:
        shown = j if j.bit_length() <= 64 else f"more than 2^{j.bit_length() - 1}"
        raise UsageError(f"--j must be at most {MAX_DEGREE}, got {shown}")


# -- subcommands -----------------------------------------------------------


def _cmd_shell(args) -> int:
    shell = norm_shell(args.D, args.r)
    if args.format == "json":
        points = [list(p) for p in shell.points]
        _emit(_dumps({"D": shell.D, "r": shell.r, "points": points}), args.output)
    elif args.format == "csv":
        lines = ["x,y"] + [f"{x},{y}" for x, y in shell.points]
        _emit("\n".join(lines), args.output)
    else:
        _emit(_shell_table(shell), args.output)
    return 0


def _shell_table(shell: Shell) -> str:
    lines = [f"norm {shell.r} shell for D={shell.D}: {len(shell.points)} points"]
    if shell.r >= 1 and not shell.points:
        lines.append("  (empty: not representable)")
    for x, y in shell.points:
        lines.append(f"  ({x}, {y})")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.t is None and args.jmax is None:
        args.jmax = min(2 * unit_count(args.D) + 1, 13)
    # an empty shell raises ValueError in strength_profile: exit 2
    if args.t is not None:
        report = strength_profile(args.D, args.r, args.t)
        # the report stops at degree t, so a t-design has no failing degree
        passed = not report.failing
    else:
        report = strength_profile(args.D, args.r, args.jmax)
        passed = report.theorem_main_ok
    if args.format == "json":
        _emit(_dumps(_report_json(report)), args.output)
    elif args.format == "csv":
        lines = ["j,status,witness"]
        failing = {f.j: f.witness for f in report.failing}
        for j in range(1, report.j_max + 1):
            if j in failing:
                lines.append(f"{j},failing,{format_rational(failing[j])}")
            else:
                lines.append(f"{j},vanishing,")
        _emit("\n".join(lines), args.output)
    else:
        _emit(_verify_table(report, args.t, passed), args.output)
    return 0 if passed else 1


def _report_json(report: DesignReport) -> dict:
    return {
        "D": report.D,
        "r": report.r,
        "jmax": report.j_max,
        "vanishing": list(report.vanishing),
        "failing": [
            {"j": f.j, "witness": format_rational(f.witness)} for f in report.failing
        ],
        "theorem_main_ok": report.theorem_main_ok,
    }


def _verify_table(report, t: int | None, passed: bool) -> str:
    lines = [
        f"design report for D={report.D}, r={report.r}, degrees 1..{report.j_max}"
    ]
    lines.append(f"  vanishing: {list(report.vanishing)}")
    for f in report.failing:
        lines.append(f"  failing j={f.j}: witness sum {format_rational(f.witness)}")
    if t is not None:
        verdict = "is" if passed else "is NOT"
        lines.append(f"  shell {verdict} a {t}-design")
    else:
        verdict = "matches" if passed else "does NOT match"
        lines.append(
            f"  failing set {verdict} the multiples of u_D={unit_count(report.D)}"
        )
    return "\n".join(lines)


def _cmd_theta(args) -> int:
    if args.rmax > MAX_THETA_RMAX:
        raise UsageError(f"--rmax must be at most 10^6, got {args.rmax}")
    if args.j is not None:
        _check_degree(args.j)
        from .harmonic import BasisKind, basis_poly

        poly = basis_poly(args.D, args.j, BasisKind.REAL_PART).poly
    else:
        poly = _parse_poly_arg(args.poly)
    coeffs = [format_rational(c) for c in theta_series(args.D, poly, args.rmax)]
    if args.format == "json":
        payload = {"D": args.D, "rmax": args.rmax, "coeffs": coeffs}
        if args.j is not None:
            payload["j"] = args.j
        else:
            payload["poly"] = format_poly(poly)
        _emit(_dumps(payload), args.output)
    elif args.format == "csv":
        lines = ["r,coefficient"] + [f"{r},{c}" for r, c in enumerate(coeffs)]
        _emit("\n".join(lines), args.output)
    else:
        lines = [
            f"theta coefficients for D={args.D}, P = {format_poly(poly)}, "
            f"weight {max(poly.degree, 0) + 1}"
        ]
        lines += [f"  r={r}: {c}" for r, c in enumerate(coeffs)]
        _emit("\n".join(lines), args.output)
    return 0


def _default_coprime_pairs():
    """The first 20 coprime pairs (r1, r2), 1 < r1 < r2, by increasing r1*r2 <= 300."""
    pairs = []
    for product in range(6, 301):
        for r1 in range(2, product):
            if r1 * r1 >= product:
                break
            if product % r1 == 0:
                r2 = product // r1
                if math.gcd(r1, r2) == 1:
                    pairs.append((r1, r2))
        if len(pairs) >= 20:
            break
    return pairs[:20]


def _check_hecke_budget(D: int, p: int, alpha: int) -> None:
    """UsageError when the largest scan, the norm p^alpha shell, passes MAX_HECKE_ROWS.

    p^alpha is bounded by bit lengths before it is formed: argv integers
    run to 128 KiB. Inputs hecke_verify rejects before any scan (alpha < 2,
    p past the primality bound) are left to it.
    """
    if alpha < 2 or not 2 <= p < MR_BOUND:
        return
    a = -ring_data(D).disc
    # p^alpha >= 2^bits and a < 2^8, so the scan has more than 2^((bits-6)//2) rows
    bits = alpha * (p.bit_length() - 1)
    if bits > 2 * MAX_HECKE_ROWS.bit_length() + 6:
        rows = f"more than 2^{(bits - 6) // 2}"
    else:
        count = math.isqrt(4 * p**alpha // a) + 1
        if count <= MAX_HECKE_ROWS:
            return
        rows = str(count)
    raise UsageError(
        f"hecke would scan {rows} rows for the norm p^alpha shell at "
        f"--p {p}; the limit is 10^8 rows"
    )


def _cmd_hecke(args) -> int:
    _check_degree(args.j)
    _check_hecke_budget(args.D, args.p, args.alpha)
    report = hecke_verify(
        args.D, args.j, args.p, args.alpha, _default_coprime_pairs()
    )
    if args.format == "json":
        _emit(_dumps(_hecke_json(report)), args.output)
    else:
        lines = [f"Hecke identity checks for D={report.D}, j={report.j}"]
        for c in report.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.identity} {c.inputs}: "
                f"{format_rational(c.left)} vs {format_rational(c.right)}"
            )
        lines.append("all passed" if report.all_passed else "FAILURES present")
        _emit("\n".join(lines), args.output)
    return 0 if report.all_passed else 1


def _hecke_json(report: HeckeReport) -> dict:
    return {
        "D": report.D,
        "j": report.j,
        "checks": [
            {
                "identity": c.identity,
                "inputs": list(c.inputs),
                "left": format_rational(c.left),
                "right": format_rational(c.right),
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "all_passed": report.all_passed,
    }


def _cmd_quadrature(args) -> int:
    poly = _parse_poly_arg(args.poly)
    value = quadrature_average(args.D, args.r, poly, args.nodes)
    if args.format == "json":
        _emit(
            _dumps(
                {
                    "D": args.D,
                    "r": args.r,
                    "poly": format_poly(poly),
                    "nodes": args.nodes,
                    "average": value,
                }
            ),
            args.output,
        )
    else:
        _emit(
            f"weighted average of {format_poly(poly)} over the norm {args.r} "
            f"ellipse (D={args.D}, {args.nodes} nodes): {value!r}",
            args.output,
        )
    return 0


def _sweep_task(task: tuple[int, int, int]) -> dict:
    D, r, j_max = task
    return _report_json(strength_profile(D, r, j_max))


def _cmd_sweep(args) -> int:
    if args.rmax > MAX_SWEEP_RMAX:
        raise UsageError(f"--rmax must be at most 10^4, got {args.rmax}")
    if not 1 <= args.jmax <= MAX_PROFILE_DEGREE:
        raise UsageError(
            f"--jmax must be in [1, {MAX_PROFILE_DEGREE}], got {args.jmax}"
        )
    tasks = [
        (D, r, args.jmax)
        for D in ADMISSIBLE_D
        for r in range(1, args.rmax + 1)
        if is_representable(D, r)
    ]
    # the payload does not depend on the worker count, so clamping is safe
    workers = min(args.parallel, os.cpu_count() or 1)
    if workers <= 1:
        reports = [_sweep_task(t) for t in tasks]
    else:
        # imported here: multiprocessing adds about 9 ms to every start-up
        from multiprocessing import Pool

        with Pool(workers) as pool:
            reports = pool.map(_sweep_task, tasks, chunksize=32)
    all_ok = all(rep["theorem_main_ok"] for rep in reports)
    payload = {
        "rmax": args.rmax,
        "jmax": args.jmax,
        "all_ok": all_ok,
        "reports": reports,
    }
    _emit(_dumps(payload), args.output)
    return 0 if all_ok else 1


def _cmd_reproduce_example(args) -> int:
    shell = enumerate_shell(EXAMPLE_D, EXAMPLE_R)
    p_poly = parse_poly(EXAMPLE_P)
    q_poly = parse_poly(EXAMPLE_Q)
    p_sum = shell_sum(EXAMPLE_D, p_poly, EXAMPLE_R)
    q_sum = shell_sum(EXAMPLE_D, q_poly, EXAMPLE_R)
    report = strength_profile(EXAMPLE_D, EXAMPLE_R, 6)
    lines = [_shell_table(shell), ""]
    lines.append(f"P = {EXAMPLE_P}")
    lines.append(f"  sum of P over the shell: {p_sum}")
    lines.append(f"Q = {EXAMPLE_Q}")
    lines.append(f"  sum of Q over the shell: {q_sum}")
    lines.append("")
    lines.append(
        f"degrees 1..6: vanishing {list(report.vanishing)}, "
        f"failing {[f.j for f in report.failing]}"
    )
    ok = (
        len(shell.points) == 12
        and p_sum == 0
        and q_sum == EXAMPLE_Q_SUM
        and [f.j for f in report.failing] == [6]
    )
    lines.append(
        "the shell is a 5-design but not a 6-design"
        if ok
        else "UNEXPECTED: the worked example did not reproduce"
    )
    _emit("\n".join(lines), args.output)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------


def _add_common(sub, formats=("json", "csv", "table")) -> None:
    sub.add_argument("--format", choices=formats, default="table", help="output format")
    sub.add_argument("--output", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normdesign",
        description=(
            "Exact norm-form shells, design verification and theta "
            "coefficients for the nine class-number-1 imaginary quadratic rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_shell = sub.add_parser("shell", help="enumerate a norm shell")
    p_shell.add_argument("D", type=int)
    p_shell.add_argument("r", type=int)
    _add_common(p_shell)
    p_shell.set_defaults(func=_cmd_shell)

    p_verify = sub.add_parser("verify", help="design report for a shell")
    p_verify.add_argument("D", type=int)
    p_verify.add_argument("r", type=int)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument("--t", type=int, help="check the t-design property")
    group.add_argument("--jmax", type=int, help="classify degrees up to jmax")
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_theta = sub.add_parser("theta", help="theta coefficient table")
    p_theta.add_argument("D", type=int)
    tgroup = p_theta.add_mutually_exclusive_group(required=True)
    tgroup.add_argument("--j", type=int, help="use the degree-j real basis polynomial")
    tgroup.add_argument("--poly", help="polynomial, e.g. 2*x^2+3462*x*y+1729*y^2")
    p_theta.add_argument("--rmax", type=int, required=True)
    _add_common(p_theta)
    p_theta.set_defaults(func=_cmd_theta)

    p_hecke = sub.add_parser("hecke", help="verify eigenform identities")
    p_hecke.add_argument("D", type=int)
    p_hecke.add_argument("--j", type=int, required=True)
    p_hecke.add_argument("--p", type=int, required=True)
    p_hecke.add_argument("--alpha", type=int, default=3)
    _add_common(p_hecke, formats=("json", "table"))
    p_hecke.set_defaults(func=_cmd_hecke)

    p_quad = sub.add_parser("quadrature", help="weighted ellipse average")
    p_quad.add_argument("D", type=int)
    p_quad.add_argument("r", type=int)
    p_quad.add_argument("--poly", required=True)
    p_quad.add_argument("--nodes", type=int, default=256)
    _add_common(p_quad, formats=("json", "table"))
    p_quad.set_defaults(func=_cmd_quadrature)

    p_sweep = sub.add_parser("sweep", help="verify all nine rings up to rmax")
    p_sweep.add_argument("--rmax", type=int, default=100)
    p_sweep.add_argument("--jmax", type=int, default=13)
    p_sweep.add_argument("--parallel", type=int, default=1)
    p_sweep.add_argument("--output", help="write JSON to this path")
    p_sweep.set_defaults(func=_cmd_sweep, format="json")

    p_example = sub.add_parser(
        "reproduce-example", help="run the D=3, r=691 worked example"
    )
    p_example.add_argument("--output", help="write output to this path")
    p_example.set_defaults(func=_cmd_reproduce_example)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.10.7
        # exact integers of any length in and out; one argv string is
        # bounded by the OS (128 KiB on Linux) anyway
        sys.set_int_max_str_digits(0)
    # built on the first call, not at import; every parse returns a fresh
    # Namespace, so one parser serves all later calls in the process
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
