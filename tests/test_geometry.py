"""Exact-rational geometry: parsing, canonicalization, incidence, decone,
and the shear that puts an affine arrangement into sweep position."""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorfiber import geometry
from milnorfiber.geometry import (
    AffineArrangement,
    AffineLine,
    Arrangement,
    InputError,
    ProjLine,
    canonical_triple,
    cone,
    decone,
    intersection_points,
    is_sweep_generic,
    parse_arrangement,
    arrangement_text,
    shear_to_generic,
)

TRIANGLE = "projective\n1 0 0\n0 1 0\n0 0 1\n"


# --- parsing ---------------------------------------------------------------


def test_parse_triangle():
    arr = parse_arrangement(TRIANGLE)
    assert isinstance(arr, Arrangement)
    assert arr.n_lines == 3
    assert arr.cover_degree == 3
    assert arr.lines[0].coeffs == (1, 0, 0)


def test_parse_comments_blanks_and_fractions():
    text = "# an arrangement\n\naffine\n1/2 -3 0  # halves are fine\n0 1 5\n"
    arr = parse_arrangement(text)
    assert isinstance(arr, AffineArrangement)
    assert arr.cover_degree == 3
    # 1/2 -3 0 canonicalizes to integers with gcd 1 and positive lead
    assert arr.lines[0].coeffs == (1, -6, 0)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1 0 0\n0 1 0\n", "header"),
        ("projective\n1 0\n0 1 0\n", "three rationals"),
        ("projective\n1 0 zebra\n0 1 0\n", "malformed rational"),
        ("projective\n1 0 1/0\n0 1 0\n", "malformed rational"),
        ("projective\n1 0 0\n", "at least 2"),
        ("projective\n1 0 0\n2 0 0\n", "duplicate"),
        ("projective\n0 0 0\n1 0 0\n", "zero"),
        ("", "empty input"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_arrangement(text)


@pytest.mark.parametrize("token", ["1e3", "2E-5", "1/1e2", "1e30000000"])
def test_parse_refuses_exponent_notation(token):
    # Fraction() would expand 1e30000000 to thirty million digits
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"line 3: malformed rational '{token}'"):
        parse_arrangement(f"projective\n0 1 0\n{token} 0 1\n0 0 1\n")
    assert time.perf_counter() - start < 1.0


def test_round_trip_text():
    arr = parse_arrangement(TRIANGLE)
    assert parse_arrangement(arrangement_text(arr)) == arr


# --- canonical coefficients -------------------------------------------------


def test_canonical_triple_examples():
    assert canonical_triple((Fraction(1, 2), Fraction(-3), 0)) == (1, -6, 0)
    assert canonical_triple((-2, 4, -6)) == (1, -2, 3)
    assert canonical_triple((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(InputError):
        canonical_triple((0, 0, 0))


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)


@given(st.tuples(rationals, rationals, rationals), rationals.filter(lambda q: q != 0))
@settings(max_examples=200, deadline=None)
def test_canonicalization_kills_scaling(triple, scale):
    if all(v == 0 for v in triple):
        return
    scaled = tuple(scale * v for v in triple)
    assert canonical_triple(scaled) == canonical_triple(triple)
    # idempotent
    assert canonical_triple(canonical_triple(triple)) == canonical_triple(triple)


def test_proportional_lines_compare_equal():
    assert ProjLine((1, 2, 3)) == ProjLine((-2, -4, -6))
    assert AffineLine((Fraction(1, 3), 0, 1)) == AffineLine((1, 0, 3))


# --- incidence --------------------------------------------------------------


def test_triangle_incidence():
    inc = intersection_points(parse_arrangement(TRIANGLE))
    assert len(inc.points) == 3
    assert inc.multiplicity_census() == {2: 3}
    labels = {pt.label() for pt in inc.points}
    assert labels == {"(1:0:0)", "(0:1:0)", "(0:0:1)"}


def test_pencil_incidence():
    text = "projective\n0 1 0\n1 0 0\n1 1 0\n1 2 0\n"
    inc = intersection_points(parse_arrangement(text))
    assert len(inc.points) == 1
    assert inc.points[0].multiplicity == 4
    assert inc.points[0].point == (0, 0, 1)


def test_affine_incidence_skips_parallel():
    # two parallel lines plus a transversal: only 2 affine points
    arr = parse_arrangement("affine\n0 1 0\n0 1 -1\n1 0 0\n")
    inc = intersection_points(arr)
    assert len(inc.points) == 2
    assert all(pt.multiplicity == 2 for pt in inc.points)


def test_points_on_line_index():
    inc = intersection_points(parse_arrangement(TRIANGLE))
    for i in range(3):
        pts = inc.points_on_line(i)
        assert len(pts) == 2
        assert all(i in pt.incident for pt in pts)


@pytest.mark.parametrize(
    "text",
    [
        TRIANGLE,
        "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n",  # braid
        "projective\n0 1 0\n1 0 0\n1 1 0\n1 2 0\n1 3 0\n",  # pencil(5)
    ],
)
def test_incidence_counting_identities(text):
    """Every pair of projective lines meets exactly once, so the pair count
    and the per-line count both decompose over intersection points."""
    arr = parse_arrangement(text)
    inc = intersection_points(arr)
    n = arr.n_lines
    assert sum(comb(pt.multiplicity, 2) for pt in inc.points) == comb(n, 2)
    for i in range(n):
        assert sum(pt.multiplicity - 1 for pt in inc.points_on_line(i)) == n - 1


# --- decone / cone ----------------------------------------------------------


def test_decone_triangle():
    arr = parse_arrangement(TRIANGLE)
    aff = decone(arr, 2)  # send z = 0 to infinity
    assert isinstance(aff, AffineArrangement)
    assert aff.n_lines == 2
    assert aff.cover_degree == 3
    assert aff.transform is not None


def test_decone_bad_index():
    arr = parse_arrangement(TRIANGLE)
    with pytest.raises(InputError):
        decone(arr, 3)
    with pytest.raises(TypeError):
        decone(parse_arrangement("affine\n1 0 0\n0 1 0\n"), 0)


def test_decone_preserves_off_infinity_incidence():
    # braid arrangement: 4 triples + 3 doubles; decone along the last line,
    # which passes through 2 of the triple points
    text = "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n"
    arr = parse_arrangement(text)
    inc_before = intersection_points(arr)
    on_last = [pt for pt in inc_before.points if 5 in pt.incident]
    aff = decone(arr, 5)
    inc_after = intersection_points(aff)
    expected = len(inc_before.points) - len(on_last)
    assert len(inc_after.points) == expected


def test_cone_decone_round_trip():
    aff = parse_arrangement("affine\n1 -1 0\n1 1 -2\n0 1 3\n")
    arr = cone(aff)
    assert arr.n_lines == 4
    assert arr.lines[-1].coeffs == (0, 0, 1)
    back = decone(arr, arr.n_lines - 1)
    assert [l.coeffs for l in back.lines] == [l.coeffs for l in aff.lines]


def test_degenerate_affine_line_rejected():
    # a "line" with zero linear part is the infinity line in disguise
    with pytest.raises(InputError, match="linear part"):
        AffineLine((0, 0, 1))


# --- shear to sweep position -------------------------------------------------


def test_shear_removes_vertical():
    # x = 0 is vertical; t = 0 is forbidden, t = 1 works
    aff = parse_arrangement("affine\n1 0 0\n0 1 0\n")
    out = shear_to_generic(aff)
    assert out.shear == 1
    assert is_sweep_generic(out)
    assert out.sweep_ready


def test_shear_noop_when_already_generic():
    # y = x, y = -x, y = 0: one vertex, nothing vertical, t = 0
    aff = parse_arrangement("affine\n1 -1 0\n1 1 0\n0 1 0\n")
    out = shear_to_generic(aff)
    assert out.shear == 0
    assert [l.coeffs for l in out.lines] == [l.coeffs for l in aff.lines]


def test_concurrent_affine_incidence():
    aff = parse_arrangement("affine\n1 -1 0\n2 -1 0\n3 -1 0\n")  # y = x, 2x, 3x
    inc = intersection_points(aff)
    assert len(inc.points) == 1
    assert inc.points[0].multiplicity == 3
    assert inc.points[0].xy() == (0, 0)


def test_shear_separates_stacked_points():
    # y = 0, y = 1 crossed by x = 0: both crossings share x = 0
    aff = parse_arrangement("affine\n0 1 0\n0 1 -1\n1 0 0\n")
    out = shear_to_generic(aff)
    assert is_sweep_generic(out)
    xs = [pt.xy()[0] for pt in intersection_points(out).points]
    assert len(set(xs)) == len(xs) == 2


def test_shear_preserves_multiplicity_census():
    text = "affine\n1 0 0\n0 1 0\n1 1 0\n1 -1 -2\n0 1 -5\n"
    aff = parse_arrangement(text)
    before = intersection_points(aff).multiplicity_census()
    out = shear_to_generic(aff)
    after = intersection_points(out).multiplicity_census()
    assert before == after


def forbidden_shears(aff):
    """Reference: every t at which the shear fails, listed pairwise.  A line
    turns vertical at t = -b/a; two vertices share x - t*y at
    t = (x1 - x2) / (y1 - y2)."""
    bad = {Fraction(-b, a) for a, b, _ in (l.coeffs for l in aff.lines) if a}
    pts = sorted({pt.xy() for pt in intersection_points(aff).points})
    for k, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[k + 1 :]:
            if y1 != y2:
                bad.add((x1 - x2) / (y1 - y2))
    return bad


def test_shear_is_smallest_outside_forbidden_set():
    rng = random.Random(20110401)
    sheared = 0
    for _ in range(300):
        k = rng.randint(3, 7)
        lines = []
        while len(lines) < k:
            cand = tuple(rng.randint(-3, 3) for _ in range(3))
            if cand != (0, 0, 0) and ProjLine(cand) not in lines:
                lines.append(ProjLine(cand))
        arr = Arrangement(tuple(lines))
        for idx in range(arr.n_lines):
            aff = decone(arr, idx)
            bad = forbidden_shears(aff)
            t = 0
            while t in bad:
                t += 1
            assert shear_to_generic(aff).shear == t
            sheared += t > 0
    assert sheared > 100


def test_incidence_is_computed_once_per_object(monkeypatch):
    calls = []
    real = geometry.intersection_points
    monkeypatch.setattr(geometry, "intersection_points", lambda arr: calls.append(arr) or real(arr))
    arr = parse_arrangement(TRIANGLE)
    assert arr.incidence is arr.incidence
    assert arr.incidence == real(arr)
    aff = decone(arr, 2)
    shear_to_generic(aff)
    assert [type(a) for a in calls] == [Arrangement, AffineArrangement, AffineArrangement]


def test_slope_and_vertical():
    assert AffineLine((1, 0, -2)).is_vertical
    assert AffineLine((1, 0, -2)).slope() is None
    # 2x - y + 1 = 0 is y = 2x + 1
    assert AffineLine((2, -1, 1)).slope() == 2
    assert AffineLine((0, 1, 7)).slope() == 0
