"""Rewrite cli_digests.jsonl from the current code.

Run by hand from the repository root, only when a change alters CLI output
on purpose, and name every changed line in CHANGES.md:

    python tests/make_cli_digests.py

The commands: ``verify --jmax 40`` and ``shell`` for all nine D on scanned,
factored and empty norms, ``theta``, ``hecke``, ``sweep --rmax 500`` at one
and two workers, the README examples, the CI steps that finish in under a
second and the bench's seed-1 passes. Argv-length values are 1 000 digits
here, not the CI's 100 000: they take the same paths (past 64 bits, past
the parser's 200 characters) without a 100 kB line per command.
``quadrature`` prints floats from libm's trigonometry, so it is kept only
for its exit-2 case and for the canonical polynomial texts below, at D = 1
and r = 1 (regenerate those lines if a libm rounds cos or sin differently).
``--output`` is never given: each command writes stdout.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "bench")]

from test_cli_digests import DIGESTS, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from normdesign.ring import ADMISSIBLE_D, ring_data  # noqa: E402

FORMATS = ("json", "csv", "table")
# 1 and 2 are units or empty, 5 and 691 small shells, 10^6 + 3 near the
# scan's limit, 10^12 + 39 and 2*10^9 + 11 factored or empty per D
NORMS = (1, 2, 5, 691, 10**6 + 3, 10**12 + 39, 2 * 10**9 + 11)
LONG = "9" * 1000
# texts whose canonical form merges, cancels, reduces or drops terms
CANONICAL_POLYS = ("x+x", "x-x", "6/4*x^2-2/4*y^2", "0*x+1/3", "-0")


def commands() -> list[list[str]]:
    cmds = []
    for D in map(str, ADMISSIBLE_D):
        for r in map(str, NORMS):
            for fmt in FORMATS:
                cmds.append(["verify", D, r, "--jmax", "40", "--format", fmt])
                cmds.append(["shell", D, r, "--format", fmt])
        for fmt in FORMATS:
            cmds.append(["theta", D, "--j", "13", "--rmax", "300", "--format", fmt])
            cmds.append(
                ["theta", D, "--poly=-1/2*y^3+x^2", "--rmax", "300", "--format", fmt]
            )
        u = ring_data(int(D)).unit_count
        for j in (2, 4, 6, 12):
            if j % u == 0:
                cmds += [["hecke", D, "--j", str(j), "--p", "5", "--format", fmt]
                         for fmt in ("json", "table")]
    cmds += [["sweep", "--rmax", "500", "--parallel", p] for p in ("1", "2")]
    cmds.append(["sweep", "--rmax", "500", "--jmax", "40"])
    # README examples; the sweep example without --output and --parallel 8
    cmds += [
        ["reproduce-example"],
        ["shell", "1", "3"],
        ["verify", "3", "691", "--jmax", "6"],
        ["verify", "3", "691", "--t", "6"],
        ["theta", "1", "--j", "4", "--rmax", "10", "--format", "csv"],
        ["hecke", "1", "--j", "4", "--p", "5", "--alpha", "3"],
        ["sweep", "--rmax", "300", "--jmax", "13"],
    ]
    # CI steps under one second
    cmds += [
        ["verify", "1", "1000000000000000000000049", "--jmax", "8", "--format", "json"],
        ["shell", "1", "1000000000000000000000049", "--format", "json"],
        ["verify", "1", "3000000000000000000000000"],
        ["hecke", "1", "--j", "4", "--p", "1009", "--alpha", "5", "--format", "json"],
        ["hecke", "67", "--j", "4", "--p", "400009", "--alpha", "3",
         "--format", "json"],
        ["hecke", "1", "--j", "4", "--p", "1000003", "--alpha", "3"],
        ["hecke", "1", "--j", "4", "--p", "1009", "--alpha", LONG],
        ["sweep", "--rmax", "100000000"],
        ["sweep", "--rmax", "10", "--parallel", "0"],
        ["theta", "1", "--j", "100000", "--rmax", "1"],
        ["hecke", "1", "--j", "40000", "--p", "5", "--alpha", "2"],
        ["theta", "1", "--j", "1000", "--rmax", "1000000"],
        ["theta", "1", "--poly", "x^1000000", "--rmax", "4"],
        ["quadrature", "1", str(10**400), "--poly", "x^2"],
        ["verify", "1", "-" + LONG],
        ["theta", "1", "--j", "4", "--rmax", LONG + "x"],
        ["theta", "1", "--rmax", "5", "--poly", "x+" + LONG + "x"],
        ["theta", "1", "--poly", "x^20000", "--rmax", "5", "--format", "json"],
        ["theta", "1", f"--poly={LONG}*x^2", "--rmax", "1000000", "--format", "json"],
        ["theta", "1", "--poly", "y^2000000000", "--rmax", "1", "--format", "json"],
        ["theta", "1", "--poly", f"x^{10**100 + 1}", "--rmax", "1", "--format", "json"],
        # one past the --j 1000 work edge on D = 163; the edge itself takes
        # about 2 s
        ["theta", "163", "--j", "1000", "--rmax", "14841"],
    ]
    for text in CANONICAL_POLYS:
        poly = f"--poly={text}"
        cmds.append(["theta", "1", poly, "--rmax", "20", "--format", "json"])
        cmds.append(["quadrature", "1", "1", poly, "--format", "table"])
    for workload in WORKLOADS.values():
        cmds += [list(inv.argv) for inv in workload.plan(1)]
    return [list(argv) for argv in dict.fromkeys(map(tuple, cmds))]


def main() -> None:
    lines = [json.dumps(digest(argv)) for argv in commands()]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
