"""Command line front end: shells, design reports, theta tables and sweeps.

Each command returns its exit code and its text; ``run`` alone writes the
text, to stdout or to --output. ``_report_text`` alone writes a design
report's JSON object, a byte contract (``verify --format json`` and each
``sweep`` report). Exit codes: 0 when the command and every check it ran
succeeded, 1 when a verification failed, 2 on usage errors: a parser error,
an ``InputError`` (an integer flag outside its ``FLAG_RANGES`` row,
unparseable input, inadmissible D, an empty shell where a nonempty one is
required, a budget exceeded) or an OSError, a closed stdout included. 3 on
an internal error: a ValueError that is not an ``InputError``, an
ArithmeticError or an AssertionError that escapes a command, reported as
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from math import isqrt

from .arith import MR_BOUND, is_representable
from .design import (
    MAX_PROFILE_DEGREE,
    DesignReport,
    quadrature_average,
    strength_profile,
)
from .harmonic import (
    BasisKind, BivarPoly, PolyParseError, basis_poly, format_poly, parse_poly
)
from .ring import ADMISSIBLE_D, InputError, _shown, ring_data
from .shells import (
    Shell, ball_shells, enumerate_shell, scan_rows, shell_from_factorization
)
from .theta import HeckeReport, format_rational, hecke_verify, shell_sum, theta_series

EXAMPLE_D = 3
EXAMPLE_R = 691
EXAMPLE_P = "2*x^2+3462*x*y+1729*y^2"
EXAMPLE_Q = "2*x^6+6*x^5*y-15*x^4*y^2-40*x^3*y^3-15*x^2*y^4+6*x*y^5+2*y^6"
EXAMPLE_Q_SUM = -4818834696

# Each budget below is checked before any walk, scan or task starts; the
# README's CLI section gives the measured cost at each cap.

#: Largest ``theta --rmax``: theta_series holds one coefficient per norm
#: and walks one point of each +-z pair up to it.
MAX_THETA_RMAX = 10**6

#: Largest basis degree ``theta --j`` and ``hecke --j`` accept. The degree-j
#: basis polynomial that theta expands has up to j + 1 terms whose
#: coefficients grow exponentially in j; hecke's Lucas ladder takes
#: O(log j) products per trace of each shell.
MAX_DEGREE = 1000

#: Largest ``theta`` work as _check_theta_budget models it, for --j and
#: --poly alike. A unit is about 0.06-0.07 ns on Python 3.11: at the edges
#: the README tables, theta takes about 1.2-5 s. --j 18 --rmax 10^6 on
#: D = 1 sits just inside, and at 10^6 a coefficient of x^2 may have about
#: 540 bits, as under the old coefficient budget: about 200 MB at most.
MAX_THETA_WORK = 62 * 10**9

#: Largest total of reference scan rows ``hecke`` may start: the norm p^k
#: shell takes shells.scan_rows(D, p^k) rows, and hecke scans k = 1..alpha.
MAX_HECKE_ROWS = 10**8

#: The coprime pairs (r1, r2) whose multiplicativity ``hecke`` checks: the
#: first 20 with 1 < r1 < r2, by increasing r1*r2 <= 300 (then r1).
COPRIME_PAIRS = (
    (2, 3), (2, 5), (3, 4), (2, 7), (3, 5), (2, 9), (4, 5), (3, 7), (2, 11),
    (3, 8), (2, 13), (4, 7), (2, 15), (3, 10), (5, 6), (3, 11), (2, 17),
    (5, 7), (4, 9), (2, 19),
)

#: Largest ``sweep --rmax``: cost and memory grow about linearly in rmax
#: (one report's JSON text per representable norm, all held until the
#: payload is joined, and the ball walk's shells of one D at a time).
MAX_SWEEP_RMAX = 10**4

#: (flag, low, high) per command: each integer flag's range, checked in this
#: order after parsing and before the command runs. high None is no upper
#: end, and an unset flag (None) is skipped.
FLAG_RANGES = {
    "verify": (("t", 1, MAX_PROFILE_DEGREE), ("jmax", 1, MAX_PROFILE_DEGREE)),
    "theta": (("rmax", 1, MAX_THETA_RMAX), ("j", 1, MAX_DEGREE)),
    "hecke": (("j", 1, MAX_DEGREE), ("alpha", 2, None)),
    "sweep": (("rmax", 1, MAX_SWEEP_RMAX), ("jmax", 1, MAX_PROFILE_DEGREE),
              ("parallel", 1, None)),
}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        # flushed here, so a closed stdout raises its OSError inside run
        print(text, flush=True)
        return
    try:
        handle = open(output, "w", encoding="utf-8")
    except ValueError as exc:  # a NUL in the path: only a Python caller can pass one
        raise InputError(f"cannot open --output: {exc}") from None
    with handle:
        handle.write(text + "\n")


def _parse_poly_arg(text: str) -> BivarPoly:
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        # at most 80 characters of the text, around the caret; "..." marks a cut
        start = max(0, min(exc.position - 40, len(text) - 80))
        head = "..." if start else ""
        tail = "..." if start + 80 < len(text) else ""
        shown = f"{head}{text[start:start + 80]}{tail}"
        marker = " " * (len(head) + exc.position - start) + "^"
        raise InputError(f"cannot parse polynomial:\n  {shown}\n  {marker}\n{exc}")


def _check_flag_ranges(args) -> None:
    """InputError naming the first flag of FLAG_RANGES outside its range."""
    for flag, low, high in FLAG_RANGES.get(args.command, ()):
        value = getattr(args, flag)
        if value is None or low <= value and (high is None or value <= high):
            continue
        bound = f"at least {low}" if value < low else f"at most {high}"
        raise InputError(f"--{flag} must be {bound}, got {_shown(value)}")


def _check_theta_budget(D: int, rmax: int, P: BivarPoly) -> None:
    """InputError when theta's modelled work on P passes MAX_THETA_WORK.

    bits is the bit length of P's largest numerator or denominator. Like
    theta_series, the model keeps the terms of even total degree; with none
    nothing is walked. Otherwise the walk visits about pi*rmax/sqrt(|disc|)
    points, one of each +-z pair, and at least the isqrt(rmax) of the row
    y = 0. Each takes dx + 1 Horner steps on ints that grow from bits to
    size = bits + degree*log2(rmax)/2, the largest sum's length, with dx and
    degree the kept terms' largest power of x and total degree. Each unit
    orbit walked may add a nonzero sum, printed in decimal at a cost
    quadratic in size. Every norm costs a fixed amount, and its sum,
    Fraction and string hold memory linear in size.
    The offsets 600 and 28000, the divisor 48, the factor 36 and
    MAX_THETA_WORK are fitted to timings and peak memory.
    """
    bits = max([P.den, *map(abs, P.numerators.values())]).bit_length()
    R = ring_data(D)
    even = [(i, i + k) for i, k in P.numerators if (i + k) % 2 == 0]
    points = size = dx = degree = 0
    if even:
        dx, degree = max(i for i, _ in even), max(d for _, d in even)
        size = bits + degree * rmax.bit_length() // 2
        points = max(isqrt(rmax), 3217 * rmax // isqrt(-R.disc << 20))  # ~pi
    orbits = 2 * points // R.unit_count
    work = (points * (dx + 1) * (bits + size + 600)
            + orbits * size * size // 48 + rmax * (28000 + 36 * size))
    if work > MAX_THETA_WORK:
        raise InputError(
            f"theta on D={D} at degree {_shown(degree)}, --rmax {rmax} and "
            f"coefficient bit length {bits} or more is past the work budget"
        )


# -- subcommands -----------------------------------------------------------


def _cmd_shell(args) -> tuple[int, str]:
    shell = shell_from_factorization(args.D, args.r)
    if args.format == "json":
        points = [list(p) for p in shell.points]
        return 0, _dumps({"D": shell.D, "r": shell.r, "points": points})
    if args.format == "csv":
        return 0, "\n".join(["x,y"] + [f"{x},{y}" for x, y in shell.points])
    return 0, _shell_table(shell)


def _shell_table(shell: Shell) -> str:
    lines = [f"norm {shell.r} shell for D={shell.D}: {len(shell.points)} points"]
    if shell.r >= 1 and not shell.points:
        lines.append("  (empty: not representable)")
    for x, y in shell.points:
        lines.append(f"  ({x}, {y})")
    return "\n".join(lines)


def _cmd_verify(args) -> tuple[int, str]:
    if args.t is None and args.jmax is None:
        args.jmax = min(2 * ring_data(args.D).unit_count + 1, 13)
    # an empty shell raises InputError in strength_profile: exit 2
    report = strength_profile(args.D, args.r, args.jmax if args.t is None else args.t)
    # under --t the report stops at degree t: a t-design has no failing degree
    passed = report.theorem_main_ok if args.t is None else not report.failing
    code = 0 if passed else 1
    if args.format == "json":
        return code, _report_text(report)
    if args.format == "csv":
        failing = {f.j: format_rational(f.witness) for f in report.failing}
        rows = [f"{j},failing,{failing[j]}" if j in failing else f"{j},vanishing,"
                for j in range(1, report.j_max + 1)]
        return code, "\n".join(["j,status,witness"] + rows)
    return code, _verify_table(report, args.t, passed)


def _report_text(report: DesignReport) -> str:
    """_dumps of the report's dict, keys sorted; witnesses need no JSON escape.

    A witness is an int (strength_profile's), so "w/1" is the bytes
    format_rational writes for it.
    """
    failing = ",".join([f'{{"j":{j},"witness":"{w}/1"}}' for j, w in report.failing])
    vanishing = ",".join(map(str, report.vanishing))
    ok = "true" if report.theorem_main_ok else "false"
    return (f'{{"D":{report.D},"failing":[{failing}],"jmax":{report.j_max},'
            f'"r":{report.r},"theorem_main_ok":{ok},"vanishing":[{vanishing}]}}')


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
            f"  failing set {verdict} the multiples of "
            f"u_D={ring_data(report.D).unit_count}"
        )
    return "\n".join(lines)


def _cmd_theta(args) -> tuple[int, str]:
    if args.j is not None:
        poly = basis_poly(args.D, args.j, BasisKind.REAL_PART).poly
    else:
        poly = _parse_poly_arg(args.poly)
    _check_theta_budget(args.D, args.rmax, poly)
    coeffs = [format_rational(c) for c in theta_series(args.D, poly, args.rmax)]
    if args.format == "json":
        payload = {"D": args.D, "rmax": args.rmax, "coeffs": coeffs}
        if args.j is not None:
            payload["j"] = args.j
        else:
            payload["poly"] = format_poly(poly)
        return 0, _dumps(payload)
    if args.format == "csv":
        lines = ["r,coefficient"] + [f"{r},{c}" for r, c in enumerate(coeffs)]
    else:
        lines = [
            f"theta coefficients for D={args.D}, P = {format_poly(poly)}, "
            f"weight {max(poly.degree, 0) + 1}"
        ]
        lines += [f"  r={r}: {c}" for r, c in enumerate(coeffs)]
    return 0, "\n".join(lines)


def _check_hecke_budget(D: int, p: int, alpha: int) -> None:
    """InputError once the scans of the norm p^1..p^alpha shells pass MAX_HECKE_ROWS.

    Each norm at least doubles (p >= 2), so the loop ends within 55 norms
    at any --alpha. hecke_verify rejects a p outside [2, MR_BOUND).
    """
    if not 2 <= p < MR_BOUND:
        return
    norm, count = 1, 0
    for _ in range(alpha):
        norm *= p
        count += scan_rows(D, norm)
        if count > MAX_HECKE_ROWS:
            raise InputError(
                f"hecke would scan at least {_shown(count)} rows for the norm "
                f"p^1..p^alpha shells at --p {p}; the limit is 10^8 rows"
            )


def _cmd_hecke(args) -> tuple[int, str]:
    _check_hecke_budget(args.D, args.p, args.alpha)
    report = hecke_verify(args.D, args.j, args.p, args.alpha, COPRIME_PAIRS)
    code = 0 if report.all_passed else 1
    if args.format == "json":
        return code, _dumps(_hecke_json(report))
    lines = [f"Hecke identity checks for D={report.D}, j={report.j}"]
    for c in report.checks:
        status = "ok" if c.passed else "FAIL"
        lines.append(
            f"  [{status}] {c.identity} {c.inputs}: "
            f"{format_rational(c.left)} vs {format_rational(c.right)}"
        )
    lines.append("all passed" if report.all_passed else "FAILURES present")
    return code, "\n".join(lines)


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


def _cmd_quadrature(args) -> tuple[int, str]:
    poly = _parse_poly_arg(args.poly)
    value = quadrature_average(args.D, args.r, poly, args.nodes)
    if args.format == "json":
        payload = {"D": args.D, "r": args.r, "poly": format_poly(poly),
                   "nodes": args.nodes, "average": value}
        return 0, _dumps(payload)
    return 0, (
        f"weighted average of {format_poly(poly)} over the norm {args.r} "
        f"ellipse (D={args.D}, {args.nodes} nodes): {value!r}"
    )


def _sweep_task(task: tuple[int, int, int, list[int]]) -> list[tuple[bool, str]]:
    """(ok, report text) per nonempty shell of D up to rmax, in increasing r.

    The shells come from one ball walk; their norms must be the ones that
    is_representable found, so each route checks the other.
    """
    D, rmax, j_max, norms = task
    walked, results = [], []
    for shell in ball_shells(D, rmax):
        walked.append(shell.r)
        report = strength_profile(D, shell.r, j_max, shell)
        results.append((report.theorem_main_ok, _report_text(report)))
    assert walked == norms, (
        f"sweep on D={D}: the ball walk and is_representable disagree on the "
        f"norms {sorted(set(walked) ^ set(norms))[:5]}"
    )
    return results


def _sweep_json(rmax: int, jmax: int, all_ok: bool, reports: list[str]) -> str:
    """The sweep payload's _dumps, built around the reports' own texts.

    _dumps sorts the keys (all_ok, jmax, reports, rmax) and dumps a list as
    its items' dumps joined by ",", so the bytes are the same while one str
    per report is held instead of one dict.
    """
    head = f'{{"all_ok":{_dumps(all_ok)},"jmax":{jmax},"reports":['
    return head + ",".join(reports) + f'],"rmax":{rmax}}}'


def _cmd_sweep(args) -> tuple[int, str]:
    # r on the outer loop: the nine is_representable(D, r) calls for one r
    # come back to back and share one factorize(r) from its bounded cache.
    # Each task walks the ball of one D, and holds its buckets only while it
    # runs; the tasks stay in D-major order, so the payload does not change.
    norms: dict[int, list[int]] = {D: [] for D in ADMISSIBLE_D}
    for r in range(1, args.rmax + 1):
        for D in ADMISSIBLE_D:
            if is_representable(D, r):
                norms[D].append(r)
    tasks = [(D, args.rmax, args.jmax, norms[D]) for D in ADMISSIBLE_D]
    # the payload does not depend on the worker count, so clamping is safe
    workers = min(args.parallel, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        per_d = [_sweep_task(t) for t in tasks]
    else:
        # imported here: multiprocessing adds about 9 ms to every start-up
        from multiprocessing import Pool

        with Pool(workers) as pool:
            per_d = pool.map(_sweep_task, tasks, chunksize=1)
    results = [result for task_results in per_d for result in task_results]
    all_ok = all(ok for ok, _ in results)
    text = _sweep_json(args.rmax, args.jmax, all_ok, [t for _, t in results])
    return (0 if all_ok else 1), text


def _cmd_reproduce_example(args) -> tuple[int, str]:
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
    ok = (len(shell.points) == 12 and p_sum == 0 and q_sum == EXAMPLE_Q_SUM
          and [f.j for f in report.failing] == [6])
    lines.append("the shell is a 5-design but not a 6-design" if ok
                 else "UNEXPECTED: the worked example did not reproduce")
    return (0 if ok else 1), "\n".join(lines)


# -- parser ------------------------------------------------------------------


def _add_common(sub, formats=("json", "csv", "table")) -> None:
    sub.add_argument("--format", choices=formats, default="table", help="output format")
    sub.add_argument("--output", help="write output to this path instead of stdout")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that clips its error messages to one short line.

    argparse quotes a rejected argument in full, and one argv string runs to
    128 KiB. Subparsers are built from this class too (add_subparsers'
    default parser_class).
    """

    def error(self, message: str):
        if len(message) > 200:
            message = f"{message[:160]}... ({len(message)} characters)"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normdesign",
        description=(
            "Exact norm-form shells, design verification and theta "
            "coefficients for the nine class-number-1 imaginary quadratic rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse reads "--poly -x^2" as a flag with no value; "--poly=-x^2" works
    poly_help = "polynomial, e.g. 2*x^2+3462*x*y+1729*y^2; write --poly=-x^2 for -x^2"

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
    tgroup.add_argument("--poly", help=poly_help)
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
    p_quad.add_argument("--poly", required=True, help=poly_help)
    p_quad.add_argument("--nodes", type=int, default=256)
    _add_common(p_quad, formats=("json", "table"))
    p_quad.set_defaults(func=_cmd_quadrature)

    p_sweep = sub.add_parser("sweep", help="verify all nine rings up to rmax")
    p_sweep.add_argument("--rmax", type=int, default=100)
    p_sweep.add_argument("--jmax", type=int, default=13)
    p_sweep.add_argument("--parallel", type=int, default=1)
    p_sweep.add_argument("--output", help="write JSON to this path")
    p_sweep.set_defaults(func=_cmd_sweep)

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
        # argparse wrote its help or usage itself: flush it here, so that a
        # closed stdout exits 2 like any command's output
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError as error:
            with suppress(OSError):
                print(f"error: {error}", file=sys.stderr)
            return 2
        return int(exc.code or 0)
    try:
        _check_flag_ranges(args)
        code, text = args.func(args)
        _emit(text, args.output)
        return code
    except (InputError, OSError) as exc:
        with suppress(OSError):  # stderr may be closed too: still exit 2
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, AssertionError) as exc:
        # a library invariant broke: neither a usage error nor a failed check
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = run(sys.argv[1:])
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed
        try:
            stream.flush()
        except OSError:
            # its reader is gone: what is left goes to devnull, so the
            # interpreter's flush at exit cannot turn the code into 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
