"""Built-in arrangements.

Each preset emits canonical arrangement file text.  Names take optional
colon-separated parameters: ``pencil:5``, ``nearpencil:6``,
``generic:5:7`` (size and seed).
"""

from __future__ import annotations

import random
from itertools import combinations

from . import geometry
from .geometry import InputError

PRESET_NAMES = ("triangle", "pencil", "nearpencil", "generic", "braid-a3", "parallel-family")
PRESET_LINE_BUDGET = 100  # largest n a sized preset builds


def _check_budget(n):
    if n > PRESET_LINE_BUDGET:
        raise InputError(f"preset size {n} exceeds the budget of {PRESET_LINE_BUDGET} lines")


def triangle_text():
    """Three lines in general position (the coordinate triangle)."""
    return "projective\n1 0 0\n0 1 0\n0 0 1\n"


def pencil_text(n):
    """n lines through the single point (0:0:1)."""
    if n < 3:
        raise InputError("pencil needs at least 3 lines")
    _check_budget(n)
    rows = ["projective", "0 1 0"]
    rows += [f"1 {k} 0" for k in range(n - 1)]
    return "\n".join(rows) + "\n"


def nearpencil_text(n):
    """n-1 lines through (0:0:1) plus the line z = 0 (listed last, so the
    default decone leaves the concurrent lines affine)."""
    if n < 4:
        raise InputError("near-pencil needs at least 4 lines")
    _check_budget(n)
    rows = ["projective", "0 1 0"]
    rows += [f"1 {k} 0" for k in range(n - 2)]
    rows.append("0 0 1")
    return "\n".join(rows) + "\n"


def random_lines(rng, n, c):
    """n distinct lines drawn from ``rng``, each coefficient uniform in
    [-c, c]: a draw of (0, 0, 0) or of a line already drawn is skipped."""
    lines = []
    while len(lines) < n:
        cand = (rng.randint(-c, c), rng.randint(-c, c), rng.randint(-c, c))
        if cand == (0, 0, 0):
            continue
        line = geometry.ProjLine(cand)
        if line not in lines:
            lines.append(line)
    return lines


def generic_text(n, seed):
    """n lines in general position (every intersection point is double),
    found by seeded random search and verified before emitting."""
    if n < 3:
        raise InputError("generic arrangement needs at least 3 lines")
    _check_budget(n)
    rng = random.Random(seed)
    # The search in [-9, 9] fails for some seeds from n = 24 on and for
    # every seed tried from n = 26 on; [-99, 99] finds n = 100 at once.
    # The narrow range stays for n <= 25, so those texts do not change.
    c = 9 if n <= 25 else 99
    for _ in range(500):
        lines = random_lines(rng, n, c)
        if _all_points_double(lines):
            return geometry.arrangement_text(geometry.Arrangement(tuple(lines)))
    raise InputError(f"no generic arrangement of {n} lines found for seed {seed}")


def _all_points_double(lines):
    """No two pairs of lines meet in the same point, i.e. no point has
    multiplicity 3 or more; stops at the first pair point seen before."""
    seen = set()
    for a, b in combinations(lines, 2):
        point = geometry.canonical_triple(geometry._cross(a.coeffs, b.coeffs))
        if point in seen:
            return False
        seen.add(point)
    return True


def braid_a3_text():
    """The six planes u=0, v=0, w=0, u+v=0, v+w=0, u+v+w=0 as lines:
    four triple points and three double points."""
    return "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n"


def parallel_family_text():
    """Eight lines: a pencil of four through the origin, two horizontal
    parallels, one generic line, and the line at infinity.  The first line
    carries exactly one point of multiplicity above two sharing a factor
    with the line count, so the single-heavy-point criterion fires on a
    non-pencil arrangement."""
    return (
        "projective\n"
        "0 1 0\n"  # y = 0: the distinguished line through the heavy point
        "1 0 0\n"  # x = 0
        "1 -1 0\n"  # y = x
        "1 1 0\n"  # y = -x
        "0 1 -1\n"  # y = 1
        "1 -1 3\n"  # y = x + 3
        "1 1 -7\n"  # y = -x + 7
        "0 0 1\n"  # line at infinity
    )


def preset_text(name):
    """Arrangement text for a preset name with optional ':' parameters.

    >>> preset_text("triangle")
    'projective\\n1 0 0\\n0 1 0\\n0 0 1\\n'
    """
    parts = name.split(":")
    base, params = parts[0], parts[1:]

    def want(k):
        if len(params) != k:
            raise InputError(f"preset {base!r} takes {k} parameter(s), got {len(params)}")

    def int_param(i, what):
        try:
            return int(params[i])
        except ValueError:
            raise InputError(f"preset {base!r}: {what} must be an integer") from None

    if base == "triangle":
        want(0)
        return triangle_text()
    if base == "pencil":
        want(1)
        return pencil_text(int_param(0, "size"))
    if base == "nearpencil":
        want(1)
        return nearpencil_text(int_param(0, "size"))
    if base == "generic":
        want(2)
        return generic_text(int_param(0, "size"), int_param(1, "seed"))
    if base == "braid-a3":
        want(0)
        return braid_a3_text()
    if base == "parallel-family":
        want(0)
        return parallel_family_text()
    raise InputError(f"unknown preset {base!r} (choose from {', '.join(PRESET_NAMES)})")
