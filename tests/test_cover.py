"""Cyclic-cover chain complexes built by Fox calculus.

Group-ring elements of Z[Z/n] are length-n integer tuples here; entry i is
the coefficient of x^i.  The package stores each relator's Fox derivatives
as one sparse seed (``cover._fox_seed``); the tests read it block by block
against a textbook derivative.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milnorfiber import cover, geometry, pipeline, presets, snf, validation
from milnorfiber.cover import CELL_BUDGET, build_cover_complex, h1_of_cover
from milnorfiber.presentation import (
    Presentation,
    Relator,
    arvola_randell,
    exponent_sum,
    free_reduce,
    projective_presentation,
)
from milnorfiber.snf import AbelianGroup, RowOrbits, ranks_mod_primes, smith_normal_form


def affine_complex(text):
    """The Milnor cover of an affine arrangement: its cone's N + 1 lines
    give the degree."""
    aff = geometry.shear_to_generic(geometry.parse_arrangement(text))
    return build_cover_complex(arvola_randell(aff), aff.n_lines + 1)


def contracted_d2(c):
    """Reference: d2 with the spanning-tree columns x^0 g_1 .. x^{n-2} g_1
    deleted, as one-row orbits (every row of d2 its own seed) whose columns
    are x^{n-1} g_1 and then the blocks of g_2, ..., g_G.  Its cokernel is
    H1 itself."""
    n, G = c.n, c.generator_count
    d2 = c.d2
    if not G:
        return d2
    last = G * n - 1  # x^{n-1} g_1; g_1's block is the last
    rows = tuple(
        {0 if j == last else j + 1: v for j, v in row.items() if j == last or j < last - n + 1}
        for seed in d2.seeds
        for row in d2.shifts(seed)
    )
    return RowOrbits(rows, (), 1, d2.ncols - (n - 1))


# --- group-ring arithmetic -----------------------------------------------


def cyc_shift(t, k):
    """Reference: the action of x^k, a rotation k places to the right."""
    n = len(t)
    return tuple(t[(i - k) % n] for i in range(n))


def cyc_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_cyclic_shift():
    # multiplying by x^k is the rotation
    for t, k, want in [((1, 2, 3, 0), 2, (3, 0, 1, 2)), ((1, 2, 3), 0, (1, 2, 3)),
                       ((1, 2, 3), 5, (2, 3, 1)), ((1, 2, 3), -1, (2, 3, 1))]:
        assert cyc_shift(t, k) == want


# --- Fox derivatives ------------------------------------------------------


def fox_reference(word, gen, n):
    """Textbook dw/dg in Z[Z/n], for one generator: the product rule
    d(uv) = du + x^{phi(u)} dv applied letter by letter, with
    d(g)/dg = 1, d(g^-1)/dg = -x^-1 and 0 for the other letters."""
    out = [0] * n
    deg = 0
    for letter in word:
        if letter == gen:
            out[deg % n] += 1
        elif letter == -gen:
            out[(deg - 1) % n] -= 1
        deg += 1 if letter > 0 else -1
    return tuple(out)


def seed_block(word, gen, n, G=4):
    """dw/dg read off the word's seed: the block of g in the cover's column
    layout, g_2 .. g_G first and g_1 last."""
    seed = cover._fox_seed(word, n, G)
    return tuple(seed.get((gen - 2) % G * n + k, 0) for k in range(n))


def test_fox_golden_values():
    comm = (1, 2, -1, -2)
    for word, gen, n, want in [
        (comm, 1, 3, (1, -1, 0)),
        (comm, 2, 3, (-1, 1, 0)),
        ((1,), 2, 3, (0, 0, 0)),
        ((1,), 1, 3, (1, 0, 0)),
        ((-1,), 1, 3, (0, 0, -1)),  # -x^{-1}
        ((1, 1, 1), 1, 3, (1, 1, 1)),
    ]:
        assert seed_block(word, gen, n) == fox_reference(word, gen, n) == want


words = st.lists(
    st.integers(1, 4).flatmap(lambda g: st.sampled_from([g, -g])), max_size=24
).map(free_reduce)


@given(words, words, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_fox_product_rule(u, v, n):
    # d(uv) = du + x^{phi(u)} dv, uv freely reduced as a relator is
    for gen in range(1, 5):
        lhs = seed_block(free_reduce(u + v), gen, n)
        rhs = cyc_add(fox_reference(u, gen, n), cyc_shift(fox_reference(v, gen, n), exponent_sum(u)))
        assert lhs == rhs


@given(words, st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_fox_fundamental_identity(w, n):
    # sum_g (dw/dg)(x - 1) = x^{phi(w)} - 1
    total = (0,) * n
    for gen in range(1, 5):
        block = seed_block(w, gen, n)
        assert block == fox_reference(w, gen, n)
        total = cyc_add(total, cyc_add(cyc_shift(block, 1), tuple(-c for c in block)))
    expected = [0] * n
    expected[exponent_sum(w) % n] += 1
    expected[0] -= 1
    assert total == tuple(expected)


def test_fox_inverse_rule():
    # d(w^-1) = -x^{-phi(w)} dw
    w = (1, -2, 1, 2)
    n = 5
    for gen in (1, 2):
        lhs = seed_block(tuple(-l for l in reversed(w)), gen, n)
        rhs = tuple(-c for c in cyc_shift(fox_reference(w, gen, n), -exponent_sum(w)))
        assert lhs == rhs


# --- complex assembly -------------------------------------------------------


def test_two_line_complex_shapes():
    c = affine_complex("affine\n1 0 0\n0 1 0\n")
    assert c.n == 3
    assert (c.generator_count, c.relator_count) == (2, 1)
    assert c.d2.shape == (3, 6)
    assert c.chain_ok()
    assert c.euler_characteristic() == 3 * (1 - 2 + 1)


def test_d2_rows_are_shifts():
    c = affine_complex("affine\n1 0 0\n0 1 0\n")
    # rows 1 and 2 are the shifted copies of row 0, blockwise per generator
    r0, r1 = c.d2.rows[0], c.d2.rows[1]
    for g in range(2):
        block0 = tuple(r0[3 * g : 3 * g + 3])
        block1 = tuple(r1[3 * g : 3 * g + 3])
        assert block1 == cyc_shift(block0, 1)


@pytest.mark.parametrize(
    "text",
    [
        "affine\n1 0 0\n0 1 0\n",
        "affine\n1 0 0\n1 1 0\n1 2 0\n",
        "affine\n1 0 0\n0 1 0\n1 1 0\n1 -1 -2\n0 1 -5\n",
    ],
)
def test_chain_condition(text):
    assert affine_complex(text).chain_ok()


def test_chain_condition_detects_perturbed_fox_entry():
    c = affine_complex("affine\n1 0 0\n0 1 0\n1 1 0\n")
    assert c.chain_ok()
    for r, seed in enumerate(c.seeds):
        for j in range(c.n * c.generator_count):  # columns the seed lacks too
            for delta in (1, -1):
                bumped = dict(seed)
                bumped[j] = bumped.get(j, 0) + delta
                if not bumped[j]:
                    del bumped[j]
                seeds = c.seeds[:r] + (bumped,) + c.seeds[r + 1 :]
                assert not c._replace(seeds=seeds).chain_ok(), (r, j, delta)


def test_seed_blocks_are_fox_derivatives():
    """Row 0 of each relator's orbit is its seed: the Fox derivative by g_j
    in block j - 2 for j >= 2, and by g_1 in the last block."""
    aff = geometry.shear_to_generic(geometry.parse_arrangement("affine\n1 0 0\n0 1 0\n1 1 0\n"))
    pres = arvola_randell(aff)
    c = build_cover_complex(pres, aff.n_lines + 1)
    n, G = c.n, c.generator_count
    for r, relator in enumerate(pres.relators):
        row = c.d2.rows[r * n]
        for gen in range(1, G + 1):
            block = (gen - 2) % G
            assert tuple(row[block * n : block * n + n]) == fox_reference(relator.word, gen, n)


def test_d2_nonzeros_match_dense_view():
    # the benchmark reads d2's shape and counts its nonzeros from the dense
    # view; on its generic ladder (generic:{8,12,14,16}:1) the sums are
    # 3600 rows, 610 columns and 14 400 nonzeros
    nrows = ncols = total = 0
    for n in (8, 12, 14, 16):
        c = pipeline.analyze_text(presets.preset_text(f"generic:{n}:1")).complex
        d2 = c.d2
        dense = d2.rows
        nnz = c.n * sum(len(seed) for seed in d2.seeds)
        assert nnz == sum(1 for row in dense for v in row if v)
        assert d2.shape == (len(dense), c.n * c.generator_count)
        assert len(dense) == c.n * c.relator_count
        assert all(len(row) == d2.ncols for row in dense)
        nrows += d2.shape[0]
        ncols += d2.shape[1]
        total += nnz
    assert (nrows, ncols, total) == (3600, 610, 14400)


def test_contracted_d2_drops_tree_columns():
    c = affine_complex("affine\n1 0 0\n0 1 0\n1 1 0\n")
    m = contracted_d2(c)
    n, G = c.n, c.generator_count
    assert m.shape == (c.d2.shape[0], c.d2.ncols - (n - 1))
    assert m.rows == [row[-1:] + row[: (G - 1) * n] for row in c.d2.rows]


def test_cell_budget():
    # a relator-free presentation: n vertices and n edges, so 2n cells
    free = Presentation(1, ())
    c = build_cover_complex(free, CELL_BUDGET // 2)
    assert c.d2.shape == (0, CELL_BUDGET // 2)
    # only the analysis knows whether --modulus set the degree; see test_cli
    with pytest.raises(geometry.InputError, match=f"budget of {CELL_BUDGET}$"):
        build_cover_complex(free, CELL_BUDGET // 2 + 1)


def test_modulus_override_validation():
    pres = Presentation(2, (Relator((1, 1, -2, -2), projective=True),))
    build_cover_complex(pres, 2)  # exponent sum 0 works for any n
    bad = Presentation(2, (Relator((1, 1), projective=True),))
    build_cover_complex(bad, 2)
    with pytest.raises(ValueError, match="^relator 'g1 g1' has exponent sum 2, not divisible by modulus 3;"):
        build_cover_complex(bad, 3)
    with pytest.raises(ValueError, match="degree"):
        build_cover_complex(bad, 0)


# --- homology ----------------------------------------------------------------


def assert_full_d2_oracle(c, h, label=""):
    """The uncontracted d2 presents H1 + Z^{n-1}: deleting the n - 1 tree
    columns must remove exactly a free summand of that rank, integrally
    and over every probed prime field."""
    ncols, rows = c.d2.ncols, c.d2.rows
    full = smith_normal_form(rows, ncols=ncols)
    assert ncols - full.rank == h.b1 + c.n - 1, label
    assert tuple(d for d in full.diagonal if d != 1) == h.group.torsion, label
    for p, betti in h.betti_mod.items():
        assert ncols - ranks_mod_primes(rows, (p,), ncols=ncols)[p] == betti + c.n - 1, (label, p)


def test_h1_two_crossing_lines():
    # coning two crossing lines adds the infinity line and gives the
    # triangle, whose Milnor fiber has H1 = Z^2
    c = affine_complex("affine\n1 0 0\n0 1 0\n")
    h = h1_of_cover(c, primes=(2, 3))
    assert h.group == AbelianGroup(2)
    assert h.b0 == 1
    assert h.b2 == 1
    assert c.euler_characteristic() == 0 == h.b0 - h.b1 + h.b2
    assert h.betti_mod == {2: 2, 3: 2}


def test_h1_two_parallel_lines():
    # two parallel lines cone to the pencil of 3 concurrent lines:
    # no vertices, free group on 2 meridians, H1 of the cover = Z^4
    c = affine_complex("affine\n0 1 0\n0 1 -1\n")
    h = h1_of_cover(c, primes=(2, 3))
    assert h.group == AbelianGroup(4)
    assert h.b0 == 1
    assert h.b2 == 0
    assert c.euler_characteristic() == -3 == h.b0 - h.b1 + h.b2
    assert h.betti_mod == {2: 4, 3: 4}


def test_h1_betti_mod_detects_torsion():
    # one generator, relator g^4, double cover: the Fox row folds to
    # 2 + 2x, so H1 = Z/2 and only the mod-2 Betti number sees it
    pres = Presentation(1, (Relator((1, 1, 1, 1), projective=True),))
    c = build_cover_complex(pres, 2)
    assert c.seeds == ({0: 2, 1: 2},)
    h = h1_of_cover(c, primes=(2, 3))
    assert h.group == AbelianGroup(0, (2,))
    assert h.b1 == 0
    assert h.betti_mod == {2: 1, 3: 0}
    assert_full_d2_oracle(c, h)


@pytest.mark.parametrize("count", [1, 2, 5, 7])
def test_h1_reads_betti_mod_off_the_smith_form(monkeypatch, count):
    """However many primes are probed, h1_of_cover runs no modular
    elimination: its mod-p Betti numbers come off the Smith diagonal.  Run
    on its own on generic:8:1 (21 relators, cover degree 8), the modular
    elimination over each prime reduces two independent shifts of each
    orbit and stops at its third, which vanishes: 63 of the 168 rows of d2
    per prime."""
    c = pipeline.analyze_text(presets.preset_text("generic:8:1")).complex
    calls = {"multi": 0, "rows": 0}
    multi, reduce_ = snf.ranks_mod_primes, snf._reduce

    def counting_multi(*args, **kwargs):
        calls["multi"] += 1
        return multi(*args, **kwargs)

    def counting_reduce(row, pivots, modulus=None):
        calls["rows"] += modulus is not None
        return reduce_(row, pivots, modulus)

    monkeypatch.setattr(snf, "ranks_mod_primes", counting_multi)
    monkeypatch.setattr(snf, "_reduce", counting_reduce)
    primes = (2, 3, 5, 7, 11, 13, 2**31 - 1)[:count]
    h = h1_of_cover(c, primes=primes)
    assert sorted(h.betti_mod) == sorted(primes)
    assert calls == {"multi": 0, "rows": 0}
    ranks = snf.ranks_mod_primes(c.d2, primes)
    assert ranks == {p: c.d2.ncols - c.tree_edges - h.betti_mod[p] for p in primes}
    assert calls == {"multi": 1, "rows": 63 * count}
    assert c.d2.shape[0] == 168


@pytest.mark.parametrize(
    "name, calls", [("braid-a3", 1), ("pencil:10", 1), ("generic:8:1", 0), ("nearpencil:10", 0)]
)
def test_analyze_runs_the_modular_oracle_where_the_bounds_leave_it_open(monkeypatch, name, calls):
    """One modular elimination per analyze where the bound report's upper
    bound exceeds N - 1 (braid-a3: 9 > 5, pencil:10: 81 > 9), none where
    it is N - 1 and the bound verdicts pin every mod-p Betti number, and
    none under a modulus override, where no verdict reads them."""
    seen = []
    multi = snf.ranks_mod_primes
    monkeypatch.setattr(snf, "ranks_mod_primes", lambda *a, **k: seen.append(a) or multi(*a, **k))
    a = pipeline.analyze_text(presets.preset_text(name))
    assert (a.bound_report.upper_bound > a.n - 1) == bool(calls)
    assert len(seen) == calls and a.all_verdicts_pass
    seen.clear()
    a = pipeline.analyze_text(presets.preset_text(name), modulus=2)
    assert not seen and a.bound_report is None


@settings(max_examples=25, deadline=None)
@given(
    modulus=st.integers(1, 24),
    primes=st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1),
)
def test_smith_read_betti_mod_matches_modular_elimination_on_braid_covers(modulus, primes):
    """On the braid-a3 cover of any degree, the mod-p Betti numbers read
    off the Smith form equal those of the separate elimination over each F_p."""
    c = pipeline.analyze_text(presets.preset_text("braid-a3"), modulus=modulus).complex
    assert h1_of_cover(c, primes=primes).betti_mod == cover.modular_betti(c, primes)


def test_h1_of_projective_triangle():
    # the projective presentation carries an extra product relator, so its
    # complex is not the fiber (different euler number), but H1 agrees
    arr = geometry.parse_arrangement("projective\n1 0 0\n0 1 0\n0 0 1\n")
    c = build_cover_complex(projective_presentation(arr), arr.n_lines)
    h = h1_of_cover(c, primes=(2, 3, 5))
    assert h.group == AbelianGroup(2)
    assert h.b0 == 1
    assert h.b0 - h.b1 + h.b2 == c.euler_characteristic()


def test_connected_cover_everywhere():
    for text in ("affine\n1 0 0\n0 1 0\n", "affine\n1 0 0\n1 1 0\n1 2 0\n"):
        h = h1_of_cover(affine_complex(text))
        assert h.b0 == 1


def test_shift_invariance_of_homology():
    """Conjugating a relator only shifts its Fox row, so homology of the
    cover must not change."""
    base = Presentation(2, (Relator((1, 2, -1, -2)),))
    conj = Presentation(2, (Relator((2, 1, 2, -1, -2, -2)),))
    h_base = h1_of_cover(build_cover_complex(base, 5), primes=(2, 5))
    h_conj = h1_of_cover(build_cover_complex(conj, 5), primes=(2, 5))
    assert h_base.group == h_conj.group
    assert h_base.betti_mod == h_conj.betti_mod


def test_full_d2_oracle_on_small_corpus():
    checked = 0
    for name, text in validation.Corpus().entries:
        if geometry.parse_arrangement(text).n_lines <= 7:
            a = pipeline.analyze_text(text)
            assert_full_d2_oracle(a.complex, a.homology, name)
            checked += 1
    assert checked > 100


B3 = "projective\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 -1 0\n1 0 1\n1 0 -1\n0 1 1\n0 1 -1\n"
# x = i and y = i for 0 <= i < 5, x + y = s for 0 <= s <= 8, x - y = d for
# -4 <= d <= 4; coning adds the line at infinity: 29 lines
GRID_29 = "affine\n" + "".join(
    [f"1 0 {-i}\n" for i in range(5)]
    + [f"0 1 {-i}\n" for i in range(5)]
    + [f"1 1 {-s}\n" for s in range(9)]
    + [f"1 -1 {-d}\n" for d in range(-4, 5)]
)


def test_contracted_reference_matches_h1_of_cover():
    """H1 from the whole d2 by orbits against the cokernel of the
    contracted d2 fed as plain rows: torsion, b1 and every mod-p Betti
    number, on the corpus with N <= 7, B3 and the 29-line grid."""
    texts = [
        (name, text)
        for name, text in validation.Corpus().entries
        if geometry.parse_arrangement(text).n_lines <= 7
    ] + [("B3", B3), ("grid-29", GRID_29)]
    for name, text in texts:
        a = pipeline.analyze_text(text)
        m = contracted_d2(a.complex)
        form = smith_normal_form(m)
        assert tuple(d for d in form.diagonal if d != 1) == a.homology.group.torsion, name
        assert m.ncols - form.rank == a.homology.b1, name
        ranks = ranks_mod_primes(m, a.primes)
        assert {p: m.ncols - r for p, r in ranks.items()} == a.homology.betti_mod, name
    # an exactness criterion of the paper fires on the grid: H1 = Z^28
    assert a.complex.n == 29 and a.h1 == a.bound_report.exact == AbelianGroup(28)
