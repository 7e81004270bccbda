"""Self-validation corpus and acceptance checks.

Ten numbered checks cover the exactly-known homology values, the
independent Euler-characteristic oracles, bound sandwiches over a seeded
random corpus, cross-pipeline agreement, and the algebraic identities
(chain condition, Fox product rule, Smith-form divisibility).  The
command line's ``selftest`` and the test suite both run these.
"""

import random
import time
from collections import namedtuple
from functools import cached_property
from itertools import combinations
from math import gcd

from . import cover as cover_mod
from . import geometry
from . import pipeline
from . import presets
from . import snf
from .bounds import bound_report, parse_incidence
from .presentation import exponent_sum
from .snf import AbelianGroup

DEFAULT_SEED = 20260826
RANDOM_CORPUS_SIZE = 100


class CriterionResult(namedtuple("CriterionResult", "number name passed detail seconds")):
    __slots__ = ()

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{self.name}]: {status} ({self.seconds:.2f}s) {self.detail}"


def random_arrangement_texts(seed=DEFAULT_SEED):
    """RANDOM_CORPUS_SIZE seeded random rational projective arrangements of 3..7 lines."""
    rng = random.Random(seed)
    texts = []
    while len(texts) < RANDOM_CORPUS_SIZE:
        lines = presets.random_lines(rng, rng.randint(3, 7), 5)
        texts.append(geometry.arrangement_text(geometry.Arrangement(tuple(lines))))
    return texts


def preset_corpus():
    names = ["triangle", "braid-a3", "parallel-family"]
    names += [f"pencil:{n}" for n in range(3, 11)]
    names += [f"nearpencil:{n}" for n in range(4, 11)]
    names += [f"generic:{n}:1" for n in range(4, 9)]
    return [(name, presets.preset_text(name)) for name in names]


class Corpus:
    """Shared cache of analyzed arrangements (presets plus seeded randoms)."""

    def __init__(self, seed=DEFAULT_SEED):
        self.seed = seed
        self.entries = preset_corpus() + [
            (f"random:{i}", t)
            for i, t in enumerate(random_arrangement_texts(seed=seed))
        ]

    @cached_property
    def analyses(self):
        return [(name, pipeline.analyze_text(text)) for name, text in self.entries]

    @cached_property
    def by_name(self):
        """``{name: analysis}`` of the entries."""
        return dict(self.analyses)


def _timed(number, name, fn):
    t0 = time.monotonic()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CriterionResult(number, name, False, f"exception: {exc!r}", time.monotonic() - t0)
    return CriterionResult(number, name, passed, detail, time.monotonic() - t0)


# --- individual criteria ---------------------------------------------------


def criterion_triangle(corpus):
    a = corpus.by_name["triangle"]
    ok = (
        a.h1 == AbelianGroup(2)
        and a.complex.euler_characteristic() == 0
        and a.homology.b2 == 1
        and a.all_verdicts_pass
        and any(n["id"] == "triangle-published-value" for n in a.notes)
    )
    return ok, f"H1 = {a.h1}, euler = {a.complex.euler_characteristic()}, b2 = {a.homology.b2}"


def criterion_nearpencil(corpus):
    bad = []
    for n in range(4, 11):
        a = corpus.by_name[f"nearpencil:{n}"]
        if a.h1 != AbelianGroup(n - 1) or a.bound_report.corollary_witness is None:
            bad.append(n)
    return not bad, "n = 4..10 all Z^{n-1} with the coprime-or-double criterion firing" if not bad else f"failures at {bad}"


def criterion_generic(corpus):
    bad = []
    for n in range(4, 9):
        a = corpus.by_name[f"generic:{n}:1"]
        if a.h1 != AbelianGroup(n - 1) or a.bound_report.oka_sakamoto is None:
            bad.append(n)
    return not bad, "n = 4..8 all Z^{n-1} with a transverse split" if not bad else f"failures at {bad}"


def criterion_pencil(corpus):
    bad = []
    for n in range(3, 11):
        a = corpus.by_name[f"pencil:{n}"]
        expect = (n - 1) ** 2
        euler_oracle = a.homology.b0 + a.homology.b2 - a.complex.euler_characteristic()
        if not (
            a.h1 == AbelianGroup(expect)
            and euler_oracle == expect
            and a.bound_report.onehyp_best == expect
        ):
            bad.append(n)
    return (
        not bad,
        "n = 3..10 all Z^{(n-1)^2}, matching the Euler oracle, per-line bound attained"
        if not bad
        else f"failures at {bad}",
    )


def criterion_sandwich(corpus):
    bad = []
    for name, a in corpus.analyses:
        upper = a.bound_report.upper_bound
        if a.homology.b1 < a.proj.n_lines - 1 or a.homology.b1 > upper:
            bad.append((name, "rational"))
        for p in a.primes:
            if a.homology.betti_mod[p] > upper:
                bad.append((name, f"mod {p}"))
    return not bad, f"{len(corpus.analyses)} arrangements, 0 violations" if not bad else f"violations: {bad[:5]}"


def criterion_pipeline_equivalence(corpus):
    bad = []
    for name, a in corpus.analyses:
        if pipeline.projective_h1(a.proj) != a.h1:
            bad.append((name, "projective"))
    small = [(n_, a) for n_, a in corpus.analyses if a.proj.n_lines <= 6]
    for name, a in small:
        groups = {
            pipeline.analyze(a.proj, infinity_index=i).h1 for i in range(a.proj.n_lines)
        }
        if len(groups) != 1:
            bad.append((name, "decone"))
    return (
        not bad,
        f"projective agreement on {len(corpus.analyses)}, decone independence on {len(small)}"
        if not bad
        else f"failures: {bad[:5]}",
    )


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcd(rows, ncols, k):
    g = 0
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, _det(sub))
            if g == 1:
                return 1
    return g


def criterion_identities(corpus):
    for name, a in corpus.analyses:
        if not a.verdicts["chain_condition"]:
            return False, f"chain condition failed on {name}"
    rng = random.Random(1729)
    for trial in range(1000):
        n = rng.randint(1, 8)
        gens = rng.randint(1, 5)
        w = [rng.choice([-1, 1]) * rng.randint(1, gens) for _ in range(rng.randint(0, 30))]
        # sum_g (dw/dg)(x - 1) = x^phi(w) - 1: with S_k the seed's sum at
        # x^k, the coefficient of x^k on the left is S_{k-1} - S_k
        sums = [0] * n
        for c, v in cover_mod._fox_seed(w, n, gens).items():
            sums[c % n] += v
        phi = exponent_sum(w) % n
        if any(sums[k - 1] - sums[k] != (k == phi) - (k == 0) for k in range(n)):
            return False, f"Fox product identity failed on trial {trial}"
    for trial in range(200):
        m = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(m)]
        form = snf.smith_normal_form(rows, ncols=ncols)
        prod = 1
        for k, d in enumerate(form.diagonal, start=1):
            prod *= d
            if prod != _minor_gcd(rows, ncols, k):
                return False, f"minor-gcd oracle failed on trial {trial}"
        if form.rank < min(m, ncols) and _minor_gcd(rows, ncols, form.rank + 1) != 0:
            return False, f"rank overshoot on trial {trial}"
    return True, "chain condition on corpus; 1000 Fox identities; 200 Smith minor-gcd checks"


def synthetic_incidence_text():
    """A 12-line incidence with one triple-point-only line and one
    quadruple-point-only line, every other pair meeting in a double point;
    the per-degree bound then collapses to its minimum possible value 11."""
    multiples = [(0, 1, 3), (0, 2, 5), (1, 2, 6), (4, 5, 6, 7), (8, 9, 10, 11)]
    covered = {pair for pt in multiples for pair in combinations(pt, 2)}
    points = list(multiples)
    for pair in combinations(range(12), 2):
        if pair not in covered:
            points.append(pair)
    rows = ["incidence N=12"]
    rows += [f"m={len(pt)} lines={','.join(str(i) for i in pt)}" for pt in points]
    return "\n".join(rows) + "\n"


def criterion_synthetic_cdo():
    inc = parse_incidence(synthetic_incidence_text())
    line3 = sorted({len(pt) for pt in inc.points if 3 in pt})
    line4 = sorted({len(pt) for pt in inc.points if 4 in pt})
    report = bound_report(inc)
    contributions = sorted(set(report.cdo_per_k.values()))
    ok = line3 == [2, 3] and line4 == [2, 4] and contributions == [0] and report.cdo_total == 11
    return ok, f"per-degree contributions {contributions}, total {report.cdo_total}"


def criterion_torsion_consistency(corpus):
    bad = [name for name, a in corpus.analyses if not a.verdicts["torsion_consistency"]]
    return not bad, f"{len(corpus.analyses)} arrangements consistent" if not bad else f"failures: {bad[:5]}"


def criterion_one_point_guard(corpus):
    fired = 0
    for name, a in corpus.analyses:
        opc = a.bound_report.one_point
        if opc.fires:
            fired += 1
            if a.h1 != AbelianGroup(a.proj.n_lines - 1):
                return False, f"guarded criterion fired on {name} but H1 = {a.h1}"
    for n in range(3, 11):
        a = corpus.by_name[f"pencil:{n}"]
        opc = a.bound_report.one_point
        if not (opc.literal_fires and not opc.fires and opc.guard_blocked):
            return False, f"pencil:{n} guard behaved unexpectedly"
        if not any(note["id"] == "single-heavy-point-guard" for note in a.notes):
            return False, f"pencil:{n} missing the guard note"
    return True, f"criterion fired on {fired} corpus arrangements, all free of rank n-1; pencils blocked by guard"


def run_all(seed=DEFAULT_SEED):
    corpus = Corpus(seed=seed)
    checks = [
        (1, "triangle-exact-homology", lambda: criterion_triangle(corpus)),
        (2, "near-pencil-family", lambda: criterion_nearpencil(corpus)),
        (3, "generic-family", lambda: criterion_generic(corpus)),
        (4, "pencil-family", lambda: criterion_pencil(corpus)),
        (5, "bound-sandwich", lambda: criterion_sandwich(corpus)),
        (6, "pipeline-equivalence", lambda: criterion_pipeline_equivalence(corpus)),
        (7, "algebraic-identities", lambda: criterion_identities(corpus)),
        (8, "synthetic-incidence-bound", criterion_synthetic_cdo),
        (9, "torsion-consistency", lambda: criterion_torsion_consistency(corpus)),
        (10, "single-heavy-point-guard", lambda: criterion_one_point_guard(corpus)),
    ]
    return [_timed(num, name, fn) for num, name, fn in checks]
