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
from multiprocessing import Pool

from .arith import is_representable
from .design import quadrature_average, strength_profile, verify_theorem_main
from .harmonic import BivarPoly, PolyParseError, format_poly, parse_poly
from .ring import ADMISSIBLE_D, unit_count
from .shells import Shell, cached_shell, shell_to_json
from .theta import (
    HeckeReport,
    format_rational,
    hecke_verify,
    shell_sum,
    theta_series,
    theta_series_to_json_dict,
)

CACHE_ENV_VAR = "NORMDESIGN_CACHE"

EXAMPLE_D = 3
EXAMPLE_R = 691
EXAMPLE_P = "2*x^2+3462*x*y+1729*y^2"
EXAMPLE_Q = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"
EXAMPLE_Q_SUM = -4818834696


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


# -- subcommands -----------------------------------------------------------


def _cmd_shell(args) -> int:
    cache_path = args.cache or os.environ.get(CACHE_ENV_VAR)
    shell = cached_shell(args.D, args.r, cache_path)
    if args.format == "json":
        _emit(shell_to_json(shell), args.output)
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
    if not is_representable(args.D, args.r):
        raise UsageError(
            f"the norm {args.r} shell is empty for D={args.D}: an inert prime "
            f"divides {args.r} to an odd power, so there is nothing to verify"
        )
    if args.t is not None:
        ok, report = verify_theorem_main(args.D, args.r, args.t)
        passed = not any(f.j <= args.t for f in report.failing)
    else:
        passed, report = verify_theorem_main(args.D, args.r, args.jmax)
    if args.format == "json":
        _emit(_dumps(report.to_json_dict()), args.output)
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
    if args.j is not None:
        from .harmonic import BasisKind, basis_poly

        poly = basis_poly(args.D, args.j, BasisKind.REAL_PART).poly
    else:
        poly = _parse_poly_arg(args.poly)
    series = theta_series(args.D, poly, args.rmax)
    if args.format == "json":
        _emit(_dumps(theta_series_to_json_dict(series, j=args.j)), args.output)
    elif args.format == "csv":
        lines = ["r,coefficient"]
        lines += [
            f"{r},{format_rational(c)}" for r, c in enumerate(series.coeffs)
        ]
        _emit("\n".join(lines), args.output)
    else:
        lines = [
            f"theta coefficients for D={series.D}, P = {series.descriptor}, "
            f"weight {series.weight}"
        ]
        lines += [
            f"  r={r}: {format_rational(c)}" for r, c in enumerate(series.coeffs)
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _default_coprime_pairs(count: int = 20, product_max: int = 300):
    pairs = []
    for product in range(6, product_max + 1):
        for r1 in range(2, product):
            if r1 * r1 >= product:
                break
            if product % r1 == 0:
                r2 = product // r1
                if math.gcd(r1, r2) == 1:
                    pairs.append((r1, r2))
        if len(pairs) >= count:
            break
    return pairs[:count]


def _cmd_hecke(args) -> int:
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
    _, report = verify_theorem_main(D, r, j_max)
    return report.to_json_dict()


def _cmd_sweep(args) -> int:
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
    shell = cached_shell(EXAMPLE_D, EXAMPLE_R, None)
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


def _add_common(sub, fmt_default: str = "table") -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "table"),
        default=fmt_default,
        help="output format",
    )
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
    p_shell.add_argument("--cache", help=f"cache path (default: ${CACHE_ENV_VAR})")
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
    _add_common(p_hecke)
    p_hecke.set_defaults(func=_cmd_hecke)

    p_quad = sub.add_parser("quadrature", help="weighted ellipse average")
    p_quad.add_argument("D", type=int)
    p_quad.add_argument("r", type=int)
    p_quad.add_argument("--poly", required=True)
    p_quad.add_argument("--nodes", type=int, default=256)
    _add_common(p_quad)
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


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
