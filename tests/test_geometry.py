"""Exact-rational geometry: parsing, canonicalization, incidence, decone,
and the shear that puts an affine arrangement into sweep position."""

import random
import time
from fractions import Fraction
from itertools import count, islice
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorfiber import geometry, presentation
from milnorfiber.geometry import (
    AffineArrangement,
    AffineLine,
    Arrangement,
    IncidencePoint,
    InputError,
    ProjLine,
    canonical_triple,
    primitive_triple,
    cone,
    decone,
    intersection_points,
    parse_arrangement,
    arrangement_text,
    shear_to_generic,
    slope_keys,
    sweep_keys,
)

TRIANGLE = "projective\n1 0 0\n0 1 0\n0 0 1\n"


# --- parsing ---------------------------------------------------------------


def test_parse_triangle():
    arr = parse_arrangement(TRIANGLE)
    assert isinstance(arr, Arrangement)
    assert arr.n_lines == 3
    assert arr.lines[0].coeffs == (1, 0, 0)


def test_parse_comments_blanks_and_fractions():
    text = "# an arrangement\n\naffine\n1/2 -3 0  # halves are fine\n0 1 5\n"
    arr = parse_arrangement(text)
    assert isinstance(arr, AffineArrangement)
    # the Milnor cover's degree: the two lines plus the one at infinity
    assert geometry.affine_picture(arr)[0].n_lines == 3
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


def reference_canonical_triple(coeffs):
    """Reference: canonicalization through Fraction, as the package did
    before it read numerators and denominators directly."""
    fracs = [Fraction(c) for c in coeffs]
    if all(f == 0 for f in fracs):
        raise InputError("zero coefficient triple does not define a line")
    mult = 1
    for f in fracs:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def canonical_or_error(fn, triple):
    try:
        return fn(triple)
    except InputError:
        return InputError


int_entries = st.integers(min_value=-10**30, max_value=10**30)
fraction_entries = st.fractions(max_denominator=10**12)


@pytest.mark.parametrize(
    "entries",
    [int_entries, fraction_entries, st.one_of(int_entries, fraction_entries)],
    ids=["int", "fraction", "mixed"],
)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_canonical_triple_matches_reference(entries, data):
    triple = data.draw(st.tuples(entries, entries, entries))
    got = canonical_or_error(canonical_triple, triple)
    assert got == canonical_or_error(reference_canonical_triple, triple)
    if got is not InputError:
        assert all(type(v) is int for v in got)


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
        assert sum(pt.multiplicity - 1 for pt in inc.points if i in pt.incident) == n - 1


# --- decone / cone ----------------------------------------------------------


def test_decone_triangle():
    arr = parse_arrangement(TRIANGLE)
    aff = decone(arr, 2)  # send z = 0 to infinity
    assert isinstance(aff, AffineArrangement)
    assert aff.n_lines == 2
    assert geometry.affine_picture(aff)[0].n_lines == 3
    assert [l.coeffs for l in aff.lines] == [(1, 0, 0), (0, 1, 0)]


def reference_invert3(rows):
    """Reference: the inverse of a 3x3 rational matrix given as row tuples."""
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return tuple(tuple(Fraction(v, 1) / det for v in row) for row in adj)


def reference_decone(arr, infinity_index):
    """Reference: the decone's line coefficients by the rational inverse of
    the change of coordinates T (two standard basis rows above the chosen
    line), as the package computed them before it used the adjugate."""
    inf_line = arr.lines[infinity_index].coeffs
    pivot = next(k for k, v in enumerate(inf_line) if v)
    units = [k for k in range(3) if k != pivot]
    T = (
        tuple(Fraction(int(k == units[0])) for k in range(3)),
        tuple(Fraction(int(k == units[1])) for k in range(3)),
        tuple(Fraction(v) for v in inf_line),
    )
    Tinv = reference_invert3(T)
    return [
        reference_canonical_triple(
            tuple(sum(line.coeffs[k] * Tinv[k][j] for k in range(3)) for j in range(3))
        )
        for idx, line in enumerate(arr.lines)
        if idx != infinity_index
    ]


def random_arrangement(rng, n_lines, bound):
    lines = []
    while len(lines) < n_lines:
        cand = tuple(rng.randint(-bound, bound) for _ in range(3))
        if cand != (0, 0, 0) and ProjLine(cand) not in lines:
            lines.append(ProjLine(cand))
    return Arrangement(tuple(lines))


def test_decone_matches_reference():
    rng = random.Random(1110822)
    for _ in range(200):
        arr = random_arrangement(rng, rng.randint(2, 7), rng.choice([1, 3, 10**6]))
        for idx in range(arr.n_lines):
            assert [l.coeffs for l in decone(arr, idx).lines] == reference_decone(arr, idx)


def test_integer_geometry_builds_no_fraction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on integer input")

    monkeypatch.setattr(geometry, "Fraction", refuse)
    # refuse every construction, including one made outside the module
    monkeypatch.setattr(Fraction, "__new__", refuse)
    if hasattr(Fraction, "_from_coprime_ints"):
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(refuse))
    braid = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    arr = Arrangement(tuple(ProjLine(c) for c in braid))
    assert intersection_points(arr).multiplicity_census() == {2: 3, 3: 4}
    for idx in range(arr.n_lines):
        # each line carries two triple points and one double point
        aff = decone(arr, idx)
        assert len(intersection_points(aff).points) == 4
        sheared = shear_to_generic(aff)
        assert next(geometry._shear_tests(sheared))
        assert len(presentation.arvola_randell(sheared).relators) == 2 * 2 + 2
    assert cone(decone(arr, 2)).n_lines == 6
    # the stacked crossings of x = 0 need a shear
    assert shear_to_generic(AffineArrangement(
        (AffineLine((0, 1, 0)), AffineLine((0, 1, -1)), AffineLine((1, 0, 0))))).shear == 1
    assert len(presentation.projective_presentation(arr).relators) == 3 + 2 * 4 + 1
    # an all-integer file, signs and Unicode digits included, parses to ints
    text = "projective\n1 0 0\n0 1 0\n+0 -0 \u0663\n1 1 0\n0 1 1\n1 1 1\n"
    assert parse_arrangement(text) == arr
    assert parse_arrangement("affine\n1 -1 0\n1 1 0\n0 1 -7\n").n_lines == 3


def test_intersection_points_canonicalizes_each_pair_once(monkeypatch):
    # a point's key is made primitive once, where its pair of lines is met;
    # the IncidencePoint built from it takes the key as it is
    calls = []

    def counting(a, b, c):
        calls.append((a, b, c))
        return primitive_triple(a, b, c)

    braid = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    arr = Arrangement(tuple(ProjLine(c) for c in braid))
    monkeypatch.setattr(geometry, "primitive_triple", counting)
    inc = intersection_points(arr)
    assert len(calls) == comb(6, 2)
    assert len(inc.points) == 7
    assert all(pt.point == canonical_triple(pt.point) for pt in inc.points)
    # the lines of each point come sorted, and every pair of them meets there
    for pt in inc.points:
        assert list(pt.incident) == sorted(set(pt.incident))
        assert all(arr.lines[i].contains(pt.point) for i in pt.incident)
    assert sum(comb(pt.multiplicity, 2) for pt in inc.points) == comb(6, 2)


def test_incidence_point_is_an_immutable_value():
    with pytest.raises(ValueError, match="an intersection point needs at least 2 lines"):
        IncidencePoint((0, 0, 1), (3,))
    pt = IncidencePoint((0, 0, 1), (0, 2))
    for field in ("point", "incident"):
        with pytest.raises(AttributeError):
            setattr(pt, field, getattr(pt, field))
    twin = IncidencePoint((0, 0, 1), (0, 2))
    assert pt == twin and hash(pt) == hash(twin)
    assert pt != IncidencePoint((0, 0, 1), (0, 3))
    assert (pt.multiplicity, pt.label()) == (2, "(0:0:1)")
    with pytest.raises(ValueError, match="at least 2 lines"):
        pt._replace(incident=(0,))


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
    assert next(geometry._shear_tests(out))


def test_shear_refuses_a_projective_arrangement():
    # with the line z = 0 no t is generic, and lines meeting at infinity have
    # no affine x key: both are refused at once, as decone refuses affine input
    for text in ("projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n",
                 "projective\n1 0 0\n1 0 1\n0 1 0\n"):
        start = time.perf_counter()
        with pytest.raises(TypeError, match="expects an affine arrangement"):
            shear_to_generic(parse_arrangement(text))
        assert time.perf_counter() - start < 1.0


def test_shear_noop_when_already_generic():
    # y = x, y = -x, y = 0: one vertex, nothing vertical, t = 0
    aff = parse_arrangement("affine\n1 -1 0\n1 1 0\n0 1 0\n")
    out = shear_to_generic(aff)
    assert out.shear == 0
    assert [l.coeffs for l in out.lines] == [l.coeffs for l in aff.lines]


def test_shear_tests_once_at_t0(monkeypatch):
    # the t = 0 picture keeps the lines and the incidence that just passed
    calls = []
    real = geometry._shear_tests

    def recording(aff):
        for t, ok in enumerate(real(aff)):
            calls.append((aff, t))
            yield ok

    monkeypatch.setattr(geometry, "_shear_tests", recording)
    aff = parse_arrangement("affine\n1 -1 0\n1 1 0\n0 1 0\n0 1 -1\n")
    out = shear_to_generic(aff)
    assert out.shear == 0 and calls == [(aff, 0)]
    assert out.lines == aff.lines and out.incidence is aff.incidence


@pytest.mark.parametrize("text, message", [
    # x = 0 is vertical at t = 0, y = x at t = 1; t = 2 is the first that works
    ("affine\n1 0 0\n1 -1 0\n0 1 0\n", "vertical line"),
    # y = 0, y = x, y = 1, y = x + 1: at t = 1 the vertices (0, 0) and
    # (1, 1) move to x = 0 together
    ("affine\n0 1 0\n1 -1 0\n0 1 -1\n1 -1 1\n", "share an x coordinate"),
], ids=["vertical", "shared-x"])
def test_sweep_refuses_a_shear_accepted_wrongly(monkeypatch, text, message):
    # the shear does not re-test its result: a search that accepts t = 1
    # where t = 1 fails leaves a picture that the sweep refuses
    aff = parse_arrangement(text)
    assert list(islice(geometry._shear_tests(aff), 2)) == [False, False]
    monkeypatch.setattr(geometry, "_shear_tests", lambda aff: (t >= 1 for t in count()))
    out = shear_to_generic(aff)
    assert out.shear == 1
    with pytest.raises(ValueError, match=message):
        presentation.arvola_randell(out)


def test_concurrent_affine_incidence():
    aff = parse_arrangement("affine\n1 -1 0\n2 -1 0\n3 -1 0\n")  # y = x, 2x, 3x
    inc = intersection_points(aff)
    assert len(inc.points) == 1
    assert inc.points[0].multiplicity == 3
    assert inc.points[0].point == (0, 0, 1)
    assert sweep_keys([inc.points[0].point]) == [0]


def test_shear_separates_stacked_points():
    # y = 0, y = 1 crossed by x = 0: both crossings share x = 0
    aff = parse_arrangement("affine\n0 1 0\n0 1 -1\n1 0 0\n")
    out = shear_to_generic(aff)
    assert next(geometry._shear_tests(out))
    xs = sweep_keys([pt.point for pt in intersection_points(out).points])
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
    pts = sorted({(Fraction(x, z), Fraction(y, z)) for x, y, z in
                  (pt.point for pt in intersection_points(aff).points)})
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
    out = shear_to_generic(aff)
    assert out.shear == 1
    assert [type(a) for a in calls] == [Arrangement, AffineArrangement]
    # the sheared picture's own, computed where the sweep first reads it
    presentation.arvola_randell(out)
    assert out.incidence is out.incidence
    assert [type(a) for a in calls] == [Arrangement, AffineArrangement, AffineArrangement]


def test_slope_and_vertical():
    lines = [AffineLine((2, -1, 1)), AffineLine((0, 1, 7)), AffineLine((4, 6, 1))]
    with pytest.raises(ValueError, match=r"^vertical line \[1 0 -2\] has no slope$"):
        slope_keys(lines + [AffineLine((1, 0, -2))])
    # y = 2x + 1, y = -7, and 4x + 6y + 1 = 0, which is primitive though its
    # slope -2/3 is not in lowest terms: the keys are the slopes times 6^2
    assert slope_keys(lines) == [72, 0, -24]
    assert slope_keys([]) == []


huge = st.integers(-10**30, 10**30)
nonzero = huge.filter(bool)
triples = st.tuples(huge, huge, nonzero)


def assert_keys_order_as(keys, values):
    """The integer keys compare, tie and sort (stably, both ways) exactly
    as the exact values do."""
    assert all(type(k) is int for k in keys)
    for u in range(len(keys)):
        for v in range(len(keys)):
            d = values[u] - values[v]
            assert (keys[u] > keys[v]) - (keys[u] < keys[v]) == (d > 0) - (d < 0)
    entries = list(range(len(keys)))
    for reverse in (False, True):
        got = sorted(entries, key=keys.__getitem__, reverse=reverse)
        assert got == sorted(entries, key=values.__getitem__, reverse=reverse)


def with_scaled_copies(points):
    """The points, then (-3x : -3y : -3z) copies of some of them."""
    if not points:
        return st.just(points)
    return st.lists(st.sampled_from(points), max_size=4).map(
        lambda copies: points + [tuple(-3 * v for v in p) for p in copies])


@given(st.lists(triples, max_size=10).flatmap(with_scaled_copies), st.integers(0, 10**6))
@example([(1, 2, 3), (-3, -6, -9), (2, 4, 6), (0, 5, -1), (0, 0, 7), (7, 1, 7)], 0)
@example([(1, 1, 2), (3, 1, 2), (-1, -2, -1)], 1)  # ties only once sheared
@settings(max_examples=300, deadline=None)
def test_sweep_keys_order_as_fractions(points, t):
    # z has either sign, and a scaled copy ties with its point: a projective
    # point is its own multiples
    sheared = [(x - t * y, y, z) for x, y, z in points]
    assert_keys_order_as(sweep_keys(sheared), [Fraction(x - t * y, z) for x, y, z in points])


@given(st.lists(st.tuples(huge, nonzero, huge).filter(any), max_size=12))
@example([(2, -1, 1), (4, -2, 0), (0, 1, 7), (4, 6, 1), (-2, -3, 5)])  # ties
@settings(max_examples=300, deadline=None)
def test_slope_keys_order_as_fractions(coeffs):
    lines = list({AffineLine(c): None for c in coeffs})
    assert_keys_order_as(slope_keys(lines), [Fraction(-a, b) for a, b, _ in (l.coeffs for l in lines)])


def test_sweep_keys_refuse_points_at_infinity():
    with pytest.raises(ValueError, match=r"^point \(1, 2, 0\) lies at infinity$"):
        sweep_keys([(0, 0, 1), (1, 2, 0)])


def sweep_generic_reference(aff, t):
    """No line a*x + b*y + c = 0 turns vertical (a*t + b = 0), and the
    points' values x - t*y, as Fractions, are distinct."""
    if any(a * t + b == 0 for a, b, _ in (l.coeffs for l in aff.lines)):
        return False
    points = intersection_points(aff).points
    return len({Fraction(x - t * y, z) for x, y, z in (pt.point for pt in points)}) == len(points)


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=7), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_shear_tests_match_fraction_reference(coeffs, t):
    lines = list({AffineLine(c): None for c in coeffs if c[:2] != (0, 0)})
    if lines:
        aff = AffineArrangement(lines)
        expected = sweep_generic_reference(aff, t)
        # the shear search's t-th test, and the test of the sheared picture
        assert next(islice(geometry._shear_tests(aff), t, None)) == expected
        sheared = [AffineLine((a, a * t + b, c)) for a, b, c in (l.coeffs for l in lines)]
        assert next(geometry._shear_tests(AffineArrangement(sheared))) == expected


@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=7))
@settings(max_examples=300, deadline=None)
def test_shear_is_the_smallest_generic_t(coeffs):
    # vertical and parallel lines included
    lines = list({AffineLine(c): None for c in coeffs if c[:2] != (0, 0)})
    if lines:
        aff = AffineArrangement(lines)
        t = 0
        while not sweep_generic_reference(aff, t):
            t += 1
        assert shear_to_generic(aff).shear == t


def test_shear_of_the_tangent_lines():
    # the 100 lines (1 : k : k^2), a long search: many t fail, each at an
    # early repeated key
    arr = parse_arrangement("projective\n" + "".join(f"1 {k} {k * k}\n" for k in range(100)))
    _, aff, _ = geometry.affine_picture(arr)
    assert shear_to_generic(aff).shear == 1804

