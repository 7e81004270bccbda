"""Seeded benchmark inputs, their exact incidence census and closed-form H1.

Every arrangement is generated here from the workload seed.  Nothing is
read from the package's presets or validation corpus, so editing those
modules cannot shift the inputs.  The generators for ``generic:N:s`` and
for the random selftest corpus replay the package's random draws, so they
give the same texts as ``milnorfiber preset generic:N:s`` and the corpus
of ``milnorfiber selftest``.

The census is computed with exact 3x3 determinants over line triples and
never with the package's own incidence code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

SELFTEST_CORPUS_SEED = 20260826  # milnorfiber.validation.DEFAULT_SEED at the seed commit
DEFAULT_SEED = 1
WIDE = 999  # coefficient range of the front-half's random lines


def canonical(triple):
    """Primitive integer triple whose first nonzero entry is positive."""
    g = 0
    for v in triple:
        g = gcd(g, v)
    out = tuple(v // g for v in triple)
    first = next(v for v in out if v)
    return tuple(-v for v in out) if first < 0 else out


def det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def incidence(lines):
    """Intersection points as sorted tuples of line indices.

    Lines i, j and k are concurrent exactly when det(L_i, L_j, L_k) = 0,
    so the point of a pair (i, j) carries i, j and every such k.
    """
    n = len(lines)
    covered = set()
    points = []
    for i, j in combinations(range(n), 2):
        if (i, j) in covered:
            continue
        members = tuple(
            k for k in range(n) if k in (i, j) or det3(lines[i], lines[j], lines[k]) == 0
        )
        covered.update(combinations(members, 2))
        points.append(members)
    return points


def census(points):
    out = {}
    for pt in points:
        out[len(pt)] = out.get(len(pt), 0) + 1
    return out


def eigen_upper_bound(points, n):
    """Upper bound on b1 of the Milnor fiber from the census alone.

    An eigenvalue of order d > 1 contributes at most, on every line H, the
    sum of m - 2 over the points of H whose multiplicity m is divisible by
    d (Libgober; Cohen, Dimca & Orlik 2003).  The eigenvalue 1 contributes
    n - 1.  Independent of the package's bounds module.
    """
    total = n - 1
    for k in range(1, n):
        d = n // gcd(n, k)
        total += min(
            sum(len(pt) - 2 for pt in points if h in pt and len(pt) > 2 and len(pt) % d == 0)
            for h in range(n)
        )
    return total


@dataclass
class Case:
    """One arrangement: its text, exact census and, where a closed form is
    known, the expected H1 as (rank, torsion)."""

    name: str
    lines: tuple
    h1: tuple = None
    points: list = field(init=False)
    path: str = field(init=False, default=None)  # the input file, written at set-up

    def __post_init__(self):
        self.points = incidence(self.lines)

    @property
    def n(self):
        return len(self.lines)

    @property
    def text(self):
        return "projective\n" + "".join(f"{a} {b} {c}\n" for a, b, c in self.lines)

    @property
    def affine_relators(self):
        """Sum of m - 1 over the points off the last line (the line the
        package sends to infinity by default)."""
        last = self.n - 1
        return sum(len(pt) - 1 for pt in self.points if last not in pt)

    @property
    def size(self):
        """Cells of the cyclic cover: cover degree times affine relators."""
        return self.n * self.affine_relators


def _distinct_lines(rng, count, bound):
    lines = []
    while len(lines) < count:
        cand = (rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
        if cand == (0, 0, 0):
            continue
        line = canonical(cand)
        if line not in lines:
            lines.append(line)
    return lines


def generic(n, seed):
    """``generic:n:seed``: the first all-double-point draw of n lines with
    coefficients in [-9, 9]; H1 = Z^(n-1)."""
    rng = random.Random(seed)
    for _ in range(500):
        lines = _distinct_lines(rng, n, 9)
        if all(len(pt) == 2 for pt in incidence(lines)):
            return Case(f"generic:{n}:{seed}", tuple(lines), (n - 1, ()))
    raise ValueError(f"no generic arrangement of {n} lines for seed {seed}")


def pencil(n):
    """n lines through (0:0:1); H1 = Z^((n-1)^2)."""
    lines = [(0, 1, 0)] + [(1, k, 0) for k in range(n - 1)]
    return Case(f"pencil:{n}", tuple(lines), ((n - 1) ** 2, ()))


def nearpencil(n):
    """n-1 lines through (0:0:1) plus z = 0, listed last; H1 = Z^(n-1)."""
    lines = [(0, 1, 0)] + [(1, k, 0) for k in range(n - 2)] + [(0, 0, 1)]
    return Case(f"nearpencil:{n}", tuple(lines), (n - 1, ()))


def triangle():
    return Case("triangle", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (2, ()))


def braid_a3():
    """The A3 reflection arrangement: four triple and three double points.
    The order-3 monodromy eigenvalues add 2 to b1, so H1 = Z^7."""
    lines = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1))
    return Case("braid-a3", lines, (7, ()))


def b3():
    """The B3 reflection arrangement x, y, z, x +- y, x +- z, y +- z: four
    triple, three quadruple and six double points; trivial monodromy on
    H1, so H1 = Z^8."""
    lines = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
             (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1))
    return Case("B3", lines, (8, ()))


def parallel_family():
    """Eight lines: a quadruple point, three triple points on the line at
    infinity, and one line (y = -x + 7) that meets the rest only in points
    of multiplicity 2 and 3.  No divisor d > 1 of 8 divides those, so the
    eigenvalue bound collapses to 7 and H1 = Z^7."""
    lines = ((0, 1, 0), (1, 0, 0), (1, -1, 0), (1, 1, 0), (0, 1, -1),
             (1, -1, 3), (1, 1, -7), (0, 0, 1))
    return Case("parallel-family", lines, (7, ()))


def random_corpus(seed, count=100, max_lines=7):
    """The selftest's random corpus: 3..max_lines lines, coefficients in
    [-5, 5]; no closed form, so H1 is left open."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.randint(3, max_lines)
        cases.append(Case(f"random:{len(cases)}", tuple(_distinct_lines(rng, k, 5))))
    return cases


def random_wide(n, rng):
    return Case(f"wide:{n}", tuple(_distinct_lines(rng, n, WIDE)))


def planted(n, rng, heavy=3, mult=8):
    """n lines with ``heavy`` points of multiplicity ``mult`` planted at
    small integer points; the remaining lines are random.  Redrawn until
    the census is exactly the planted points plus double points."""
    want = {mult: heavy, 2: n * (n - 1) // 2 - heavy * mult * (mult - 1) // 2}
    while True:
        lines = []
        for _ in range(heavy):
            x, y = rng.randint(-15, 15), rng.randint(-15, 15)
            group = []
            while len(group) < mult:
                a, b = rng.randint(-30, 30), rng.randint(-30, 30)
                line = (a, b, -(a * x + b * y))
                if (a, b) != (0, 0) and canonical(line) not in lines + group:
                    group.append(canonical(line))
            lines += group
        while len(lines) < n:
            line = tuple(rng.randint(-WIDE, WIDE) for _ in range(3))
            if line != (0, 0, 0) and canonical(line) not in lines:
                lines.append(canonical(line))
        case = Case(f"planted:{n}:{heavy}x{mult}", tuple(lines))
        if census(case.points) == want:
            return case


# --- workload inputs ---------------------------------------------------------


def generic_ladder(seed):
    return [generic(n, seed) for n in (8, 12, 14, 16)]


def monodromy_mix(seed):
    """Named arrangements in their preset line order.  The seed does not
    change them: reordering the lines changes the Smith pivots and, on
    nearpencil:20, the cost by about 1.6x, which would hide a change of
    the code behind a change of the inputs."""
    del seed
    return [nearpencil(10), nearpencil(16), nearpencil(20), pencil(10), pencil(30),
            braid_a3(), b3(), parallel_family()]


def corpus(seed):
    """The selftest corpus: the small presets plus 100 random arrangements.
    The seed does not change it: between random corpora the cost moves by
    up to 25% with the number of cover cells (4471 to 5398 over seeds
    1..10), which would hide a change of the code behind a change of the
    inputs."""
    del seed
    presets = ([triangle(), braid_a3(), parallel_family()]
               + [pencil(n) for n in range(3, 11)]
               + [nearpencil(n) for n in range(4, 11)]
               + [generic(n, 1) for n in range(4, 9)])
    return presets + random_corpus(SELFTEST_CORPUS_SEED)


def front_half(seed):
    rng = random.Random(seed)
    return [random_wide(30, rng), random_wide(40, rng), planted(40, rng)]


def verify(cases):
    """Check every generated arrangement against what its generator
    promises: distinct lines, and the census of each named family."""
    for case in cases:
        if len(set(case.lines)) != case.n or any(v == (0, 0, 0) for v in case.lines):
            raise ValueError(f"{case.name}: repeated or zero line")
        got = census(case.points)
        family = case.name.split(":")[0]
        n = case.n
        want = {
            "generic": {2: n * (n - 1) // 2},
            "pencil": {n: 1},
            "nearpencil": {n - 1: 1, 2: n - 1},
            "triangle": {2: 3},
            "braid-a3": {3: 4, 2: 3},
            "B3": {4: 3, 3: 4, 2: 6},
            "parallel-family": {4: 1, 3: 3, 2: 13},
        }.get(family)
        if want is not None and got != want:
            raise ValueError(f"{case.name}: census {got}, expected {want}")
