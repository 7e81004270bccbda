"""Combinatorial bounds and exactness criteria, checked on arrangements
with known answers and on synthetic incidence data."""

import random
from math import gcd

import pytest

from milnorfiber import geometry, presets
from milnorfiber.bounds import (
    OnePointCheck,
    SyntheticIncidence,
    cdo_bound,
    corollary_check,
    oka_sakamoto_check,
    one_point_check,
    onehyp_bounds,
    parse_incidence,
    bound_report,
    predict,
)
from milnorfiber.geometry import LINE_BUDGET, InputError
from milnorfiber.snf import AbelianGroup


def proj_incidence(text):
    arr = geometry.parse_arrangement(text)
    return geometry.intersection_points(arr), arr.n_lines


TRIANGLE = "projective\n1 0 0\n0 1 0\n0 0 1\n"
BRAID = "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n"


def pencil(n):
    return presets.pencil_text(n)


def labelled_points(inc):
    """Reference view: (multiplicity, line indices, label) of every point,
    labelled by coordinates, or as ``pt<k>`` for synthetic incidence."""
    if isinstance(inc, SyntheticIncidence):
        return [(len(p), p, f"pt{k}") for k, p in enumerate(inc.points)]
    return [(p.multiplicity, p.incident, p.label()) for p in inc.points]


# --- per-line bound ---------------------------------------------------------


def test_onehyp_triangle():
    inc, _ = proj_incidence(TRIANGLE)
    per_line = onehyp_bounds(inc)
    # all points are double: every line gives the bare n-1
    assert per_line == {0: 2, 1: 2, 2: 2}
    assert bound_report(inc).onehyp_best == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_onehyp_pencil_attained(n):
    inc, _ = proj_incidence(pencil(n))
    per_line = onehyp_bounds(inc)
    # the single point has m = n on every line: (n-1) + (n-2)(n-1)
    assert bound_report(inc).onehyp_best == (n - 1) ** 2
    assert set(per_line.values()) == {(n - 1) ** 2}


def test_onehyp_braid():
    inc, _ = proj_incidence(BRAID)
    per_line = onehyp_bounds(inc)
    # each line carries two triple points; gcd(3, 6) = 3 adds 2 per triple
    assert bound_report(inc).onehyp_best == 9
    assert set(per_line.values()) == {9}


def test_onehyp_monotone_in_multiplicity():
    # adding a line through a point of the reference line cannot lower
    # that line's bound, as long as the gcd with the line count does not
    # drop; synthetic incidence keeps the line count fixed
    from math import gcd

    for n in range(3, 13):
        for m in range(2, n):
            before = onehyp_bounds(SyntheticIncidence(n, (tuple(range(m)),)))[0]
            after = onehyp_bounds(SyntheticIncidence(n, (tuple(range(m + 1)),)))[0]
            if gcd(m + 1, n) >= gcd(m, n):
                assert after >= before
    # when the gcd does drop the bound can fall: a 6-fold point among 12
    # lines contributes 4 * 5 = 20, a 7-fold point nothing
    six = onehyp_bounds(SyntheticIncidence(12, (tuple(range(6)),)))[0]
    seven = onehyp_bounds(SyntheticIncidence(12, (tuple(range(7)),)))[0]
    assert (six, seven) == (31, 11)


def reference_onehyp_bound(inc, n, line):
    """Reference: one line's bound from its own scan of every point."""
    total = n - 1
    for pt in inc.points:
        incident = getattr(pt, "incident", pt)
        if line in incident:
            m = len(incident)
            total += (m - 2) * (gcd(m, n) - 1)
    return total


def reference_cdo_bound(inc, n):
    """Reference: per degree k, the minimum over lines of the excess of the
    line's points with n | k*m, each line scanning every point."""
    per_k = {}
    for k in range(1, n):
        per_k[k] = min(
            sum(
                len(inc_) - 2
                for inc_ in (getattr(pt, "incident", pt) for pt in inc.points)
                if h in inc_ and len(inc_) > 2 and (k * len(inc_)) % n == 0
            )
            for h in range(n)
        )
    return per_k, (n - 1) + sum(per_k.values())


def reference_corollary_check(inc, n):
    """Reference: the lowest line whose own scan of every point finds only
    double points or multiplicities coprime to n."""
    pts = labelled_points(inc)
    for h in range(n):
        if all(m == 2 or gcd(m, n) == 1 for m, incident, _ in pts if h in incident):
            return h
    return None


def reference_one_point_check(inc, n):
    """Reference: each line scans every point for its heavy points."""
    pts = labelled_points(inc)
    blocked = None
    for h in range(n):
        heavy = [
            (m, label) for m, incident, label in pts
            if h in incident and m > 2 and gcd(m, n) != 1
        ]
        if len(heavy) != 1:
            continue
        m, label = heavy[0]
        if m < n:
            return OnePointCheck(witness=(h, label, m))
        if blocked is None:
            blocked = (h, label, m)
    if blocked is not None:
        return OnePointCheck(guard_blocked=blocked)
    return OnePointCheck()


def random_synthetic_incidence(rng, n):
    """Points of random multiplicity, no pair of lines met twice."""
    used, points = set(), []
    for _ in range(4 * n):
        pt = tuple(sorted(rng.sample(range(n), min(n, rng.choice([2, 2, 3, 4, 6])))))
        pairs = {(a, b) for a in pt for b in pt if a < b}
        if not pairs & used:
            used |= pairs
            points.append(pt)
    return SyntheticIncidence(n, tuple(points))


def test_one_pass_bounds_match_per_line_reference():
    rng = random.Random(20111004)
    cases = [proj_incidence(t) for t in (TRIANGLE, BRAID, pencil(6), presets.nearpencil_text(8))]
    cases += [proj_incidence(presets.parallel_family_text())]
    cases += [(random_synthetic_incidence(rng, n), n) for n in range(2, 14) for _ in range(30)]
    outcomes = {"fires": 0, "guard": 0, "silent": 0, "corollary": 0, "no-corollary": 0}
    for inc, n in cases:
        expected = {h: reference_onehyp_bound(inc, n, h) for h in range(n)}
        per_k, total = reference_cdo_bound(inc, n)
        report = bound_report(inc)
        assert onehyp_bounds(inc) == report.onehyp_per_line == expected
        assert report.onehyp_best == min(expected.values())
        assert cdo_bound(inc) == report.cdo_per_k == per_k
        assert report.cdo_total == total
        opc = one_point_check(inc)
        assert opc == reference_one_point_check(inc, n)
        outcomes["fires" if opc.fires else "guard" if opc.guard_blocked else "silent"] += 1
        witness = corollary_check(inc)
        assert witness == reference_corollary_check(inc, n)
        outcomes["corollary" if witness is not None else "no-corollary"] += 1
    # every branch of both criteria is reached
    assert min(outcomes.values()) >= 20, outcomes


# --- coprime-or-double line ---------------------------------------------------


def test_corollary_triangle_and_nearpencil():
    inc, _ = proj_incidence(TRIANGLE)
    assert corollary_check(inc) == 0
    # near-pencil(5): the 4-fold point has gcd(4, 5) = 1, doubles are fine
    inc, _ = proj_incidence(presets.nearpencil_text(5))
    assert corollary_check(inc) == 0


def test_corollary_refuses_pencil_and_braid():
    inc, _ = proj_incidence(pencil(4))
    assert corollary_check(inc) is None  # gcd(4, 4) = 4 on every line
    inc, _ = proj_incidence(BRAID)
    assert corollary_check(inc) is None  # every line has gcd-3 triples


# --- single heavy point --------------------------------------------------------


def test_one_point_fires_on_parallel_family():
    inc, _ = proj_incidence(presets.parallel_family_text())
    r = one_point_check(inc)
    assert r.fires and r.literal_fires
    assert r.witness == (0, "(0:0:1)", 4)
    assert r.guard_blocked is None


def test_one_point_guard_blocks_pencil():
    for n in (3, 5, 8):
        inc, _ = proj_incidence(pencil(n))
        r = one_point_check(inc)
        assert r.literal_fires  # one heavy point on each line, literally
        assert not r.fires  # but it has multiplicity n: guard refuses
        assert r.witness is None and r.guard_blocked is not None
        assert r.guard_blocked[2] == n


def test_one_point_silent_on_braid():
    # two heavy points per line: the criterion does not even match
    inc, _ = proj_incidence(BRAID)
    r = one_point_check(inc)
    assert not r.fires and not r.literal_fires
    assert r.witness is None and r.guard_blocked is None


# --- transverse split -----------------------------------------------------------


def cone_split(aff):
    """The split of an affine picture, read from its cone's incidence: the
    cone appends the infinity line last, so the affine indices stay."""
    return oka_sakamoto_check(geometry.cone(aff).incidence, aff.n_lines)


def test_split_generic_triangle():
    aff = geometry.parse_arrangement("affine\n0 1 0\n1 -1 -1\n1 1 -3\n")
    split = cone_split(aff)
    assert split is not None
    a, b = split
    assert sorted(a + b) == [0, 1, 2]


def test_split_refuses_concurrent():
    aff = geometry.parse_arrangement("affine\n1 0 0\n1 1 0\n1 2 0\n")
    assert cone_split(aff) is None


def test_split_two_parallel_pairs():
    aff = geometry.parse_arrangement("affine\n0 1 0\n0 1 -1\n1 0 0\n1 0 -1\n")
    split = cone_split(aff)
    assert split == ((0, 1), (2, 3))
    # the same picture given combinatorially: each parallel pair meets the
    # infinity line (index 4) in one point
    synthetic = SyntheticIncidence(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1, 4), (2, 3, 4)])
    assert oka_sakamoto_check(synthetic, 4) == split


def reference_split(aff):
    """Reference: components of the conflict graph built pair by pair
    (parallel, or sharing a point of multiplicity >= 3), and the witness
    checked pair by pair."""
    k = aff.n_lines
    mult = {}
    for pt in aff.incidence.points:
        for i in pt.incident:
            for j in pt.incident:
                mult[(i, j)] = pt.multiplicity
    conflict = {
        (i, j) for i in range(k) for j in range(k) if i != j and mult.get((i, j), 3) >= 3
    }
    side = {0}
    while True:
        grown = side | {j for i in side for j in range(k) if (i, j) in conflict}
        if grown == side:
            break
        side = grown
    if len(side) == k:
        return None
    a, b = tuple(sorted(side)), tuple(i for i in range(k) if i not in side)
    assert all(mult.get((i, j)) == 2 for i in a for j in b)
    return a, b


def random_affine(rng, k, bound):
    lines = []
    while len(lines) < k:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if (a, b) != (0, 0) and geometry.AffineLine((a, b, c)) not in lines:
            lines.append(geometry.AffineLine((a, b, c)))
    return geometry.AffineArrangement(tuple(lines))


def test_split_matches_pairwise_reference():
    # the reference reads the affine picture's own incidence, the check
    # the projective incidence of its cone: two separate passes
    rng = random.Random(20111005)
    outcomes = {"split": 0, "none": 0}
    for _ in range(300):
        aff = random_affine(rng, rng.randint(1, 8), rng.choice([1, 2, 3]))
        split = cone_split(aff)
        assert split == reference_split(aff)
        outcomes["split" if split else "none"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_split_projective_matches_reference_on_decone():
    # the infinity line first renumbers every affine line
    rng = random.Random(20111006)
    outcomes = {"split": 0, "none": 0}
    for _ in range(200):
        k, lines = rng.randint(2, 8), set()
        while len(lines) < k:
            triple = tuple(rng.randint(-2, 2) for _ in range(3))
            if any(triple):
                lines.add(geometry.ProjLine(triple))
        arr = geometry.Arrangement(tuple(sorted(lines)))
        split = oka_sakamoto_check(arr.incidence, 0)
        assert split == reference_split(geometry.decone(arr, 0))
        outcomes["split" if split else "none"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def test_split_witness_is_reverified():
    # drop one double point off the infinity line: the components still
    # split the lines, but one cross pair no longer meets, and the check
    # says so
    aff = geometry.parse_arrangement("affine\n0 1 0\n1 -1 -1\n1 1 -3\n")
    inc = geometry.cone(aff).incidence
    (dropped, *_) = [pt for pt in inc.points if pt.incident[-1] != aff.n_lines]
    doctored = geometry.IncidenceData(tuple(p for p in inc.points if p != dropped), inc.n_lines)
    with pytest.raises(AssertionError, match="re-verification"):
        oka_sakamoto_check(doctored, aff.n_lines)


def test_split_refuses_infinity_out_of_range():
    inc, n = proj_incidence(TRIANGLE)
    for infinity in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            oka_sakamoto_check(inc, infinity)


# --- per-degree bound ------------------------------------------------------------


def test_cdo_triangle():
    inc, _ = proj_incidence(TRIANGLE)
    assert cdo_bound(inc) == {1: 0, 2: 0}
    assert bound_report(inc).cdo_total == 2


def test_cdo_braid():
    inc, _ = proj_incidence(BRAID)
    # triples only matter when 6 divides 3k, i.e. k even
    assert cdo_bound(inc) == {1: 0, 2: 2, 3: 0, 4: 2, 5: 0}
    assert bound_report(inc).cdo_total == 9


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cdo_pencil(n):
    inc, _ = proj_incidence(pencil(n))
    # the n-fold point counts for every k, on every line
    assert all(v == n - 2 for v in cdo_bound(inc).values())
    assert bound_report(inc).cdo_total == (n - 1) + (n - 1) * (n - 2)


def test_cdo_symmetry():
    for text in (BRAID, presets.parallel_family_text()):
        inc, n = proj_incidence(text)
        per_k = cdo_bound(inc)
        for k in range(1, n):
            assert per_k[k] == per_k[n - k]


def test_cdo_symmetry_on_corpus():
    # the divisibility condition n | k*m is symmetric in k <-> n-k, so the
    # per-degree contributions must mirror on every corpus arrangement
    from milnorfiber.validation import Corpus

    for name, text in Corpus().entries:
        inc, n = proj_incidence(text)
        per_k = cdo_bound(inc)
        assert all(per_k[k] == per_k[n - k] for k in range(1, n)), name


# --- synthetic incidence -----------------------------------------------------------


def test_parse_incidence_round_trip():
    inc = parse_incidence("incidence N=6\n# braid-like\nm=3 lines=0,1,3\nm=2 lines=0,2\n")
    assert inc.n_lines == 6
    assert inc.points == ((0, 1, 3), (0, 2))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("m=2 lines=0,1\n", "header"),
        ("incidence N=4\nm=3 lines=0,1\n", "does not match"),
        ("incidence N=4\nm=2 lines=0,9\n", "out of range"),
        ("incidence N=4\nm=2 lines=0,1\nm=3 lines=0,1,2\n", "two points"),
        ("incidence N=x\n", "integer"),
        ("incidence N=4\nm=2 lines=0,z\n", "integer"),
        ("", "header"),
    ],
)
def test_parse_incidence_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_incidence(text)


def test_parse_incidence_line_budget():
    at_budget = f"incidence N={LINE_BUDGET}\nm=2 lines=0,1\n"
    assert parse_incidence(at_budget).n_lines == LINE_BUDGET
    over = f"incidence N={LINE_BUDGET + 1}\nm=2 lines=0,1\n"
    with pytest.raises(InputError, match=f"line 1: N={LINE_BUDGET + 1} exceeds"):
        parse_incidence(over)


def test_parse_incidence_point_budget():
    # three lines meet in at most three points
    triangle = "incidence N=3\nm=2 lines=0,1\nm=2 lines=0,2\nm=2 lines=1,2\n"
    assert len(parse_incidence(triangle).points) == 3
    with pytest.raises(InputError, match=r"^line 5: more than N\(N-1\)/2 = 3 points, over the budget$"):
        parse_incidence(triangle + "m=2 lines=0,1\n")
    # m is read before the indices: the malformed list is never reached
    with pytest.raises(InputError, match=r"^line 2: m=4 is more than the N=3 lines$"):
        parse_incidence("incidence N=3\nm=4 lines=0,1,2,x\n")


def test_synthetic_matches_geometric():
    # feeding the triangle's incidence synthetically gives identical bounds
    inc, _ = proj_incidence(TRIANGLE)
    synth = SyntheticIncidence(3, ((0, 1), (0, 2), (1, 2)))
    assert onehyp_bounds(inc) == onehyp_bounds(synth)
    assert cdo_bound(inc) == cdo_bound(synth)
    assert corollary_check(inc) == corollary_check(synth)


def test_synthetic_cdo_target():
    # twelve lines, heavy points chosen so that for every k some line
    # dodges all points active at that degree: the total collapses to n-1
    from milnorfiber.validation import synthetic_incidence_text

    inc = parse_incidence(synthetic_incidence_text())
    report = bound_report(inc)
    assert report.cdo_total == 11
    assert set(cdo_bound(inc).values()) == {0}
    # while the per-line bound stays strictly larger
    assert report.onehyp_best > 11


# --- assembled report ----------------------------------------------------------------


def test_report_triangle():
    inc, _ = proj_incidence(TRIANGLE)
    r = bound_report(inc)
    assert r.lower_bound == 2
    assert r.upper_bound == 2
    assert r.corollary_witness == 0
    names = [name for name, _ in r.applicable]
    assert names == ["coprime_or_double_line"]


def test_predict_exact_when_criterion_fires():
    report = predict(geometry.parse_arrangement(presets.nearpencil_text(6)))
    assert report.exact == AbelianGroup(5)
    assert report.lower_bound == 5
    assert report.n == 6


def test_predict_no_exactness_on_braid():
    report = predict(geometry.parse_arrangement(BRAID))
    assert report.exact is None
    assert report.lower_bound == 5
    assert report.upper_bound == 9
    assert report.applicable == ()


def test_predict_sandwich_enforced():
    report = predict(geometry.parse_arrangement(pencil(5)))
    assert report.lower_bound == 4
    assert report.upper_bound == 16
    assert report.exact is None  # guard keeps the pencil out
