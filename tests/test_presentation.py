"""Sweep presentation of the complement's fundamental group.

Generator i+1 is the meridian of line i, picked up at the far right of the
real picture.  Vertices are processed in order of strictly decreasing x, and
at each vertex the lines are taken bottom-to-top (ascending slope just right
of the vertex).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from milnorfiber import cover, geometry, presentation, presets
from milnorfiber.presentation import (
    Presentation,
    Relator,
    arvola_randell,
    free_reduce_and_strip,
    projective_presentation,
)


def sweep(text):
    return arvola_randell(geometry.shear_to_generic(geometry.parse_arrangement(text)))


def mul(u, v):
    """Reference product of two freely reduced words: cancel letter pairs
    where they meet."""
    k = 0
    while k < min(len(u), len(v)) and u[len(u) - 1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def inverse(w):
    """Reference inverse, letter by letter."""
    return tuple(-l for l in reversed(w))


def stepwise(words):
    """Reference product: reduce every partial product, as the package
    did before it reduced each concatenation once."""
    out = ()
    for w in words:
        out = mul(out, w)
    return out


def commutator(a, b):
    """Reference commutator a b a^-1 b^-1, as a stepwise product."""
    return stepwise([a, b, inverse(a), inverse(b)])


def exponent_vector(w, n_generators):
    """Reference abelianization: the exponent sum of each generator."""
    vec = [0] * n_generators
    for l in w:
        vec[abs(l) - 1] += 1 if l > 0 else -1
    return vec


# --- words -------------------------------------------------------------------


def test_word_free_reduction():
    assert presentation.free_reduce((1, -1)) == ()
    assert presentation.free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert presentation.free_reduce((1, 2) + (-2, 1)) == (1, 1)


def test_word_inverse_and_conjugate():
    # the sweep inverts and conjugates letter tuples with _inverse and free_reduce
    w = (1, 2, -3)
    assert presentation._inverse(w) == (3, -2, -1)
    assert presentation.free_reduce(w + presentation._inverse(w)) == ()
    c = (2,)
    conjugate = presentation.free_reduce(presentation._inverse(c) + w + c)
    assert conjugate == (-2, 1, 2, -3, 2)  # c^-1 w c


def test_word_formatting():
    assert presentation.word_text((2, 1, -2, -1)) == "g2 g1 g2^-1 g1^-1"
    assert presentation.word_text(()) == "1"


def test_exponent_vector():
    # the reference the abelianization tests read, and its sum
    w = (1, 1, -2, 3, -1)
    assert exponent_vector(w, 4) == [1, -1, 1, 0]
    assert presentation.exponent_sum(w) == 1


def test_commutator_product():
    assert presentation._commutator((1,), (2,)) == (1, 2, -1, -2)
    assert presentation._commutator((1, 2), (-2, 1)) == (1, 1, -2, -1, -1, 2)


# freely reduced words, reduced by the reference
words = st.lists(st.integers(-4, 4).filter(bool), max_size=12).map(
    lambda letters: stepwise((l,) for l in letters))


@given(st.lists(words, max_size=6))
@settings(max_examples=300, deadline=None)
def test_products_match_stepwise_products(ws):
    product = presentation.free_reduce([l for w in ws for l in w])
    assert product == stepwise(ws)
    # the sweep reduces W_k ... W_1 once, over the concatenated letters
    descending = [l for w in reversed(ws) for l in w]
    assert presentation.free_reduce(descending) == stepwise(reversed(ws))
    assert presentation.free_reduce(product) == product  # already reduced


@given(words, words)
@settings(max_examples=300, deadline=None)
def test_commutator_and_conjugate_match_stepwise_products(a, b):
    assert presentation._commutator(a, b) == commutator(a, b)
    conjugate = presentation.free_reduce(presentation._inverse(b) + a + b)
    assert conjugate == stepwise([inverse(b), a, b])


pairs = st.tuples(
    st.integers(-10**30, 10**30), st.integers(1, 10**30)
)


@given(st.lists(pairs, max_size=20))
@example([(1, 2), (-3, 1), (2, 4), (-6, 2), (1, 2), (0, 7), (0, 1)])  # ties
@settings(max_examples=300, deadline=None)
def test_key_order_is_fraction_order(keys):
    # the sweep's two orders on num/den: vertices (num : 0 : den) by x, and
    # lines -num*x + den*y = 0 by slope
    x = geometry.sweep_keys([(num, 0, den) for num, den in keys])
    slope = geometry.slope_keys([geometry.AffineLine((-num, den, 0)) for num, den in keys])
    for ints in (x, slope):
        assert all(type(k) is int for k in ints)
        for u in range(len(keys)):
            for v in range(len(keys)):
                d = Fraction(*keys[u]) - Fraction(*keys[v])
                assert (ints[u] > ints[v]) - (ints[u] < ints[v]) == (d > 0) - (d < 0)
        entries = list(range(len(keys)))
        for reverse in (False, True):
            got = sorted(entries, key=ints.__getitem__, reverse=reverse)
            want = sorted(entries, key=lambda e: Fraction(*keys[e]), reverse=reverse)
            assert got == want  # ties included: both sorts are stable


# --- affine sweep ------------------------------------------------------------


def test_two_crossing_lines():
    pres = sweep("affine\n1 0 0\n0 1 0\n")
    assert pres.generator_count == 2
    assert [r.word for r in pres.relators] == [(2, 1, -2, -1)]
    assert pres.text() == "gens: 2\ng2 g1 g2^-1 g1^-1\n"


def test_pencil_relator_counts():
    # m concurrent affine lines: single vertex, m-1 relators
    for m in (3, 4, 5):
        lines = "\n".join(f"1 {k} 0" for k in range(m))
        pres = sweep("affine\n" + lines + "\n")
        assert len(pres.relators) == m - 1
        assert pres.generator_count == m


def test_triple_point_relators_are_nested_commutators():
    pres = sweep("affine\n1 0 0\n1 1 0\n1 2 0\n")
    [r1, r2] = pres.relators
    # at [W1, W2, W3] the two relators are [W3, W2 W1] and [W3 W2, W1]
    assert r1.word == commutator((3,), (2, 1))
    assert r2.word == commutator((3, 2), (1,))
    assert r1.vertex == r2.vertex
    assert (r1.index, r2.index) == (1, 2)


def test_generic_triple_all_plain_commutators():
    # three generic lines: y = 0, y = x - 1, y = -x + 3 meet pairwise at
    # x = 1, 2, 3.  Double points never update the continuing words, so
    # every relator is a plain commutator of two meridians.
    pres = sweep("affine\n0 1 0\n1 -1 -1\n1 1 -3\n")
    assert pres.generator_count == 3
    assert len(pres.relators) == 3
    assert all(len(r.word) == 4 for r in pres.relators)
    for r in pres.relators:
        assert not any(exponent_vector(r.word, pres.generator_count))


def test_conjugation_propagates_left():
    # y = x - 2, y = 0, y = -x + 2 are concurrent at (2, 0); y = 10x
    # crosses all three to the left of that vertex.  The sweep meets the
    # triple point first and the middle line (y = 0) continues conjugated,
    # so its later crossing with y = 10x yields a length-8 commutator.
    pres = sweep("affine\n1 -1 -2\n0 1 0\n1 1 -2\n10 -1 0\n")
    assert len(pres.relators) == 2 + 3  # one triple + three doubles
    for r in pres.relators:
        assert not any(exponent_vector(r.word, pres.generator_count))
    assert max(len(r.word) for r in pres.relators) == 8


def test_relator_count_matches_incidence():
    texts = [
        "affine\n1 0 0\n0 1 0\n1 1 0\n1 -1 -2\n0 1 -5\n",
        "affine\n1 0 0\n0 1 0\n1 1 0\n",
        "affine\n1 2 3\n3 -1 0\n0 1 -4\n1 0 -6\n",
    ]
    for text in texts:
        aff = geometry.shear_to_generic(geometry.parse_arrangement(text))
        inc = geometry.intersection_points(aff)
        expected = sum(pt.multiplicity - 1 for pt in inc.points)
        assert len(arvola_randell(aff).relators) == expected


def test_sweep_requires_sweep_position():
    aff = geometry.parse_arrangement("affine\n1 0 0\n0 1 0\n")
    with pytest.raises(ValueError, match="sweep position"):
        arvola_randell(aff)


def test_sweep_refuses_shared_x():
    # y = 0 and y = x meet at (0, 0), y = 1 and y = x + 1 at (0, 1): a
    # picture with a shear set and two vertices on x = 0 is refused
    lines = [geometry.AffineLine(c) for c in ((0, 1, 0), (1, -1, 0), (0, 1, -1), (1, -1, 1))]
    aff = geometry.AffineArrangement(tuple(lines), shear=0)
    assert not next(geometry._shear_tests(aff))
    with pytest.raises(ValueError, match="share an x coordinate"):
        arvola_randell(aff)


def test_sweep_deterministic():
    text = "affine\n1 0 0\n0 1 0\n1 1 0\n1 -1 -2\n"
    a = sweep(text)
    b = sweep(text)
    assert a == b


def test_vertex_order_convention_is_cosmetic():
    # Reversing the vertex-local ordering (descending slope instead of
    # ascending) changes the relator words but must not change the cover
    # homology.  The package sweeps bottom-up only; the top-down words come
    # from the reference sweep below.
    affines = [
        geometry.shear_to_generic(
            geometry.parse_arrangement("affine\n1 -1 -2\n0 1 0\n1 1 -2\n10 -1 0\n")
        )
    ]
    for name in ("braid-a3", "nearpencil:5", "parallel-family", "generic:5:11"):
        arr = geometry.parse_arrangement(presets.preset_text(name))
        affines.append(geometry.shear_to_generic(geometry.decone(arr, 0)))
    for aff in affines:
        bottom_up = arvola_randell(aff)
        top_down = Presentation(
            aff.n_lines,
            tuple(Relator(w, vertex=v, index=k) for w, v, k in reference_sweep(aff, top_down=True)),
        )
        ha = cover.h1_of_cover(cover.build_cover_complex(bottom_up, aff.n_lines + 1), primes=(2, 3))
        hb = cover.h1_of_cover(cover.build_cover_complex(top_down, aff.n_lines + 1), primes=(2, 3))
        assert ha.group == hb.group
        assert ha.betti_mod == hb.betti_mod


# --- projective presentation ---------------------------------------------------


def test_projective_triangle():
    arr = geometry.parse_arrangement("projective\n1 0 0\n0 1 0\n0 0 1\n")
    pres = projective_presentation(arr)
    assert pres.generator_count == 3
    # three double points give one relator each, plus the product relator
    assert len(pres.relators) == 4
    prods = [r for r in pres.relators if r.vertex == "infinity"]
    assert len(prods) == 1
    assert exponent_vector(prods[0].word, 3) == [1, 1, 1]


def test_projective_abelianization():
    # H1 of the projective complement is Z^{N-1}: vertex relators
    # abelianize to 0 and the product relator to (1, ..., 1)
    arr = geometry.parse_arrangement(
        "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n0 1 1\n1 1 1\n"
    )
    pres = projective_presentation(arr)
    rows = [exponent_vector(r.word, 6) for r in pres.relators]
    ones = [r for r in rows if any(r)]
    assert ones == [[1] * 6]

    from milnorfiber.snf import smith_normal_form

    # H1 = Z^6 / (row span): free of rank 6 - rank, torsion-free
    form = smith_normal_form(rows, ncols=6)
    assert 6 - form.rank == 5 and form.diagonal == (1,)


def test_projective_rejects_affine_input():
    with pytest.raises(TypeError):
        projective_presentation(geometry.parse_arrangement("affine\n1 0 0\n0 1 0\n"))


DROP_ONE_RELATOR = """
from milnorfiber import geometry, presentation

sweep = presentation.arvola_randell

def dropping(aff):
    p = sweep(aff)
    return presentation.Presentation(p.generator_count, p.relators[:-1])

presentation.arvola_randell = dropping
arr = geometry.parse_arrangement("projective\\n1 0 0\\n0 1 0\\n0 0 1\\n1 1 1\\n")
try:
    presentation.projective_presentation(arr)
except AssertionError as exc:
    print(f"debug={__debug__}: {exc}")
"""


def test_relator_count_check_survives_dash_o():
    # an explicit raise, not an assert statement, so that ``python -O``
    # keeps it: a sweep that drops a relator is still caught
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", DROP_ONE_RELATOR],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "debug=False: the sweep missed an intersection point\n"


# --- relator cleanup -----------------------------------------------------------


def test_free_reduce_and_strip():
    p = Presentation(3, (Relator((1, 2, 3, -2, -3, -1)),))
    out = free_reduce_and_strip(p)
    assert [r.word for r in out.relators] == [(2, 3, -2, -3)]


def test_strip_drops_empty_relators():
    # conjugate of the identity collapses to nothing
    p = Presentation(2, (Relator(()), Relator((1, -1))))
    assert free_reduce_and_strip(p).relators == ()


def test_strip_keeps_unwrapped_relators_as_they_are():
    # nothing to strip: the relator itself comes back, not a rebuilt copy
    kept = Relator((1, 2, -1, -2), vertex="v0")
    wrapped = Relator((3, 1, 2, -1, -2, -3), vertex="v1", index=1)
    out = free_reduce_and_strip(Presentation(3, (kept, wrapped))).relators
    assert out[0] is kept
    assert out[1] == wrapped._replace(word=(1, 2, -1, -2))


def reference_strip(letters):
    """Reference: the wrapper strip as the package ran it, one letter pair
    at a time."""
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


wrappers = st.lists(st.integers(-4, 4).filter(bool), max_size=80).map(
    lambda letters: stepwise((l,) for l in letters))


@given(st.lists(st.tuples(wrappers, words, words), max_size=6))
@example([((1, 2, 3, 4) * 100, (1,), (2,)), ((3,) * 300, (1, 2), (1,))])
@settings(max_examples=300, deadline=None)
def test_strip_matches_pairwise_reference(parts):
    # w [a, b] w^-1: exponent sum 0; [a, a] leaves an empty relator
    relators = [Relator(stepwise([w, commutator(a, b), inverse(w)]), vertex=f"v{k}", index=k)
                for k, (w, a, b) in enumerate(parts)]
    expected = []
    for r in relators:
        letters = reference_strip(r.word)
        if letters:
            expected.append(r._replace(word=tuple(letters)))
    pres = Presentation(4, tuple(relators))
    assert free_reduce_and_strip(pres).relators == tuple(expected)


def test_relators_of_any_exponent_sum_meet_only_the_cover_rule():
    # a hand-built relator is a plain record; the degree-n cover refuses
    # one whose exponent sum n does not divide
    with pytest.raises(ValueError, match="^relator 'g1 g2' has exponent sum 2, not divisible by modulus 3;"):
        cover.build_cover_complex(Presentation(2, (Relator((1, 2)),)), 3)
    torsion = cover.build_cover_complex(Presentation(1, (Relator((1, 1, 1, 1)),)), 4)
    assert torsion.seeds == ({0: 1, 1: 1, 2: 1, 3: 1},)


def test_sweep_checks_each_relator_exponent_sum(monkeypatch):
    # a commutator that lost its inverse half: braid-a3's triple points
    # build their relators with _commutator, and the sweep refuses them
    _, aff, _ = geometry.affine_picture(geometry.parse_arrangement(presets.preset_text("braid-a3")))
    aff = geometry.shear_to_generic(aff)
    assert len(arvola_randell(aff).relators) == 6
    monkeypatch.setattr(presentation, "_commutator", lambda u, l: presentation.free_reduce(u + l))
    with pytest.raises(AssertionError, match="nonzero exponent sum"):
        arvola_randell(aff)


def test_relator_is_an_immutable_value():
    r = Relator((1, 2, -1, -2), vertex="(0:0:1)", index=1)
    for field in ("word", "vertex", "index"):
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
    twin = Relator((1, 2, -1, -2), vertex="(0:0:1)", index=1)
    assert r == twin and hash(r) == hash(twin)
    assert r != Relator((1, 2, -1, -2), vertex="(0:0:1)", index=2)
    assert r._replace(word=(1, 2)) == ((1, 2), "(0:0:1)", 1)


@pytest.mark.parametrize("relators, message", [
    ((Relator((1, 3, -1, -3)),), "letter 3 outside generator range"),
    ((Relator((1, 3)),), "letter 3 outside generator range"),
    ((Relator((1, 2, -1, -2)), Relator((0, 1))), "letter 0 outside generator range"),
])
def test_presentation_refusals(relators, message):
    # the first relator alone, over three generators, is a presentation;
    # the whole tuple over two is refused
    assert Presentation(3, relators[:1]).relators == relators[:1]
    with pytest.raises(ValueError, match=message):
        Presentation(2, relators)


# --- reference sweep -------------------------------------------------------------


def reference_sweep(aff, top_down=False):
    """Reference: the sweep as the package ran it with Fraction keys (a
    vertex at x = Fraction(x, z), a line of slope Fraction(-a, b)) and
    stepwise products, as (word, vertex, index) triples."""

    def x_of(pt):
        x, _, z = pt.point
        return Fraction(x, z)

    def slope(i):
        a, b, _ = aff.lines[i].coeffs
        return Fraction(-a, b)

    verts = sorted(aff.incidence.points, key=x_of, reverse=True)
    assert all(x_of(a) != x_of(b) for a, b in zip(verts, verts[1:]))
    current = [(i + 1,) for i in range(aff.n_lines)]
    out = []
    for pt in verts:
        order = sorted(pt.incident, key=slope)
        if top_down:
            order.reverse()
        W = [current[i] for i in order]
        m = len(W)
        for k in range(1, m):
            upper = stepwise(reversed(W[m - k :]))
            lower = stepwise(reversed(W[: m - k]))
            out.append((commutator(upper, lower), pt.label(), k))
        for pos in range(1, m - 1):
            c = stepwise(reversed(W[:pos]))
            current[order[pos]] = stepwise([inverse(c), W[pos], c])
    return out


def reference_product_relator(arr):
    """Reference: the projective product relator, lines in descending
    Fraction slope on the sweep's sheared picture."""
    extended = geometry.Arrangement(
        arr.lines + (presentation._auxiliary_line(arr, arr.incidence),))
    aff = geometry.shear_to_generic(geometry.decone(extended, extended.n_lines - 1))
    by_slope = sorted(range(aff.n_lines), reverse=True,
                      key=lambda i: Fraction(-aff.lines[i].coeffs[0], aff.lines[i].coeffs[1]))
    return stepwise([(i + 1,) for i in by_slope]), reference_sweep(aff)


def triples(pres):
    return [(r.word, r.vertex, r.index) for r in pres.relators]


def test_sweep_matches_fraction_reference():
    rng = random.Random(19920101)
    checked = 0
    for n in range(300):
        k = rng.randint(3, 8)
        bound = rng.choice([2, 3, 5, 999])
        lines = []
        while len(lines) < k:
            cand = tuple(rng.randint(-bound, bound) for _ in range(3))
            if cand != (0, 0, 0) and geometry.ProjLine(cand) not in lines:
                lines.append(geometry.ProjLine(cand))
        arr = geometry.Arrangement(tuple(lines))
        for idx in range(arr.n_lines):
            aff = geometry.shear_to_generic(geometry.decone(arr, idx))
            assert triples(arvola_randell(aff)) == reference_sweep(aff)
            checked += 1
        if n % 10 == 0:
            delta, sweep_relators = reference_product_relator(arr)
            pres = projective_presentation(arr)
            assert triples(pres)[:-1] == sweep_relators
            assert pres.relators[-1].word == delta
    assert checked > 1500
    # larger pictures with wide coefficients and planted points of
    # multiplicity 5-8: nested conjugations and large denominators
    heavy = 0
    for _ in range(20):
        arr = planted_arrangement(rng, rng.randint(20, 40), [rng.randint(5, 8) for _ in range(2)])
        aff = geometry.shear_to_generic(geometry.decone(arr, rng.randrange(arr.n_lines)))
        heavy += max(pt.multiplicity for pt in aff.incidence.points) >= 5
        assert triples(arvola_randell(aff)) == reference_sweep(aff)
    assert heavy >= 15


def planted_arrangement(rng, n, mults):
    """n lines with coefficients in [-999, 999]: one group of lines through
    a small integer point per entry of ``mults``, the rest random."""
    lines = []
    for m in mults:
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        group = 0
        while group < m:
            a, b = rng.randint(-999, 999), rng.randint(-999, 999)
            if (a, b) == (0, 0):
                continue
            line = geometry.ProjLine((a, b, -(a * x + b * y)))
            if max(map(abs, line.coeffs)) <= 999 and line not in lines:
                lines.append(line)
                group += 1
    while len(lines) < n:
        cand = tuple(rng.randint(-999, 999) for _ in range(3))
        if cand != (0, 0, 0) and geometry.ProjLine(cand) not in lines:
            lines.append(geometry.ProjLine(cand))
    return geometry.Arrangement(tuple(lines))


def test_sweep_matches_fraction_reference_with_vertical_lines():
    rng = random.Random(1982)
    sheared = 0
    for _ in range(100):
        k = rng.randint(3, 7)
        lines = []
        while len(lines) < k:
            a, c = rng.randint(-4, 4), rng.randint(-4, 4)
            b = 0 if rng.random() < 0.4 else rng.randint(-4, 4)
            if (a, b) != (0, 0) and geometry.AffineLine((a, b, c)) not in lines:
                lines.append(geometry.AffineLine((a, b, c)))
        aff = geometry.shear_to_generic(geometry.AffineArrangement(tuple(lines)))
        sheared += aff.shear > 0
        assert triples(arvola_randell(aff)) == reference_sweep(aff)
    assert sheared > 40



# the smallest input, by line and point count, of a seeded search over affine
# arrangements (random.Random(0): 5..12 lines, coefficients in -3..3) whose
# sweep cancels a letter where two pieces of a double point's commutator meet
JUNCTION_CANCELLING = "affine\n2 1 0\n1 3 -1\n-3 0 0\n0 3 -1\n-1 -2 0\n"


def test_double_point_junction_cancellation_is_reduced(monkeypatch):
    aff = geometry.shear_to_generic(geometry.parse_arrangement(JUNCTION_CANCELLING))
    expected = reference_sweep(aff)
    calls = []
    real = presentation.free_reduce
    monkeypatch.setattr(presentation, "free_reduce", lambda letters: calls.append(letters) or real(letters))
    assert triples(arvola_randell(aff)) == expected
    # a vertex of multiplicity m >= 3 reduces m - 1 relators and m - 2
    # conjugates; every further call is the double-point fallback
    heavy = sum(2 * pt.multiplicity - 3 for pt in aff.incidence.points if pt.multiplicity > 2)
    assert aff.incidence.multiplicity_census() == {2: 4, 3: 2}
    assert len(calls) == heavy + 1


def test_generic_double_points_are_never_reduced(monkeypatch):
    # only double points: every word stays one letter, no junction cancels
    _, aff, _ = geometry.affine_picture(geometry.parse_arrangement(presets.preset_text("generic:8:1")))
    aff = geometry.shear_to_generic(aff)
    expected = reference_sweep(aff)
    monkeypatch.setattr(presentation, "free_reduce", None)
    pres = arvola_randell(aff)
    assert len(pres.relators) == len(aff.incidence.points) == 21
    assert triples(pres) == expected
