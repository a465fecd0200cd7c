"""Enumeration of the norm shells: lattice points of O_D with a fixed norm.

Shells come back with a canonical lexicographic point order so that orbit
tables, JSON snapshots and sweep output are reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt

from .ring import mul, ring_data


@dataclass(frozen=True)
class Shell:
    """All (x, y) with norm_form(D, x, y) == r, sorted lexicographically."""

    D: int
    r: int
    points: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.points)

    def is_empty(self) -> bool:
        return not self.points


def enumerate_shell(D: int, r: int) -> Shell:
    """Complete exact enumeration of the norm r shell.

    One scan over the completed square 4r = (2x + t*y)^2 + |disc|*y^2 of
    the norm form x^2 + t*x*y + n*y^2: for each |y| <= isqrt(4r // |disc|),
    the points are the x with 2x + t*y = +-s where s^2 = 4r - |disc|*y^2.
    Perfect squares are detected with isqrt and a re-square, never floats.
    """
    R = ring_data(D)
    if r < 0:
        raise ValueError(f"shell norm must be nonnegative, got {r}")
    if r == 0:
        return Shell(D, 0, ((0, 0),))
    t, a = R.t, -R.disc
    r4 = 4 * r
    ymax = isqrt(r4 // a)
    points: set[tuple[int, int]] = set()
    for y in range(-ymax, ymax + 1):
        rem = r4 - a * y * y
        s = isqrt(rem)
        if s * s == rem:
            # rem = (t*y)^2 mod 4, so s - t*y is always even
            ty = t * y
            points.add(((s - ty) // 2, y))
            points.add(((-s - ty) // 2, y))
    return Shell(D, r, tuple(sorted(points)))


def shell_orbits(shell: Shell) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Partition of the shell into unit orbits.

    Units act freely away from the origin, so each orbit has exactly u_D
    points. Orbits are listed by their lexicographically smallest member,
    each orbit itself sorted.
    """
    if shell.r == 0:
        raise ValueError("the zero shell is a unit fixed point, not a free orbit")
    D = shell.D
    units = ring_data(D).units
    seen: set[tuple[int, int]] = set()
    orbits: list[tuple[tuple[int, int], ...]] = []
    # points are sorted, so the first unseen point is its orbit's minimum
    for point in shell.points:
        if point in seen:
            continue
        orbit = tuple(sorted({mul(D, u, point) for u in units}))
        orbits.append(orbit)
        seen.update(orbit)
    return tuple(orbits)


def shell_to_json(shell: Shell) -> str:
    """Canonical JSON: {"D": ..., "r": ..., "points": [[x, y], ...]}."""
    return json.dumps(
        {"D": shell.D, "r": shell.r, "points": [list(p) for p in shell.points]},
        sort_keys=True,
        separators=(",", ":"),
    )
