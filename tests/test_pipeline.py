"""End-to-end analyses of the built-in arrangements, plus preset sanity."""

import time

import pytest

from milnorfiber import bounds, cli, cover, geometry, pipeline, presets, snf
from milnorfiber.geometry import InputError
from milnorfiber.snf import AbelianGroup


def analyze(name, **kw):
    return pipeline.analyze_text(presets.preset_text(name), **kw)


def test_braid_census_and_h1():
    a = analyze("braid-a3")
    assert a.incidence.multiplicity_census() == {3: 4, 2: 3}
    assert a.h1 == AbelianGroup(7)
    assert a.all_verdicts_pass
    # no exactness criterion covers this one: bounds give 5 <= 7 <= 9
    assert a.bound_report.exact is None
    assert a.bound_report.lower_bound == 5
    assert a.bound_report.upper_bound == 9


def test_parallel_family():
    a = analyze("parallel-family")
    assert a.n == 8
    assert a.incidence.multiplicity_census() == {4: 1, 3: 3, 2: 13}
    assert a.h1 == AbelianGroup(7)
    names = [name for name, _ in a.bound_report.applicable]
    assert "single_heavy_point_line" in names
    assert a.verdicts["exact_prediction"]
    assert a.all_verdicts_pass


def test_nearpencil6():
    a = analyze("nearpencil:6")
    assert a.h1 == AbelianGroup(5)
    assert a.bound_report.corollary_witness is not None
    assert a.all_verdicts_pass


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pencil_values(n):
    a = analyze(f"pencil:{n}")
    assert a.h1 == AbelianGroup((n - 1) ** 2)
    assert a.all_verdicts_pass


def test_affine_input_is_coned_for_bounds():
    # affine input: bounds talk about the cone (one extra line)
    a = pipeline.analyze_text("affine\n1 0 0\n0 1 0\n")
    assert a.mode == "affine"
    assert a.n == 3
    assert a.bound_report.n == 3
    assert a.h1 == AbelianGroup(2)


def test_projective_h1_cross_check():
    arr = geometry.parse_arrangement(presets.preset_text("braid-a3"))
    assert pipeline.projective_h1(arr) == AbelianGroup(7)


def test_decone_choice_is_cosmetic():
    text = presets.preset_text("nearpencil:5")
    groups = {
        pipeline.analyze_text(text, infinity_index=i).h1
        for i in range(5)
    }
    assert groups == {AbelianGroup(4)}


def test_infinity_index_is_refused_on_affine_input():
    aff = geometry.parse_arrangement("affine\n1 0 0\n0 1 0\n1 1 -1")
    with pytest.raises(InputError, match="projective input only"):
        pipeline.analyze(aff, infinity_index=0)
    assert pipeline.analyze(aff).infinity_index == 3


def test_modulus_skips_bounds():
    a = pipeline.analyze_text(presets.pencil_text(4), modulus=3)
    assert a.bound_report is None
    assert a.h1 == AbelianGroup(7)
    assert any(n["id"] == "modulus-override" for n in a.notes)
    assert a.all_verdicts_pass


def test_default_primes_follow_cover_degree():
    # the default probe set adds every prime dividing the cover degree or
    # a point multiplicity; 13 is outside the base set {2, 3, 5, 7, 11}
    a = analyze("pencil:13")
    assert 13 in a.primes
    # an explicit probe list is honored verbatim
    b = analyze("pencil:13", primes=(2,))
    assert b.primes == (2,)


def test_default_probes_follow_the_line_count_under_a_modulus():
    # the probes come from the 4 lines and their 4-fold point, not from
    # the degree-13 cover that --modulus asks for
    a = analyze("pencil:4", modulus=13)
    assert a.n == 13 and a.primes == (2, 3, 5, 7, 11)
    assert pipeline.probe_primes(a.incidence) == a.primes


def test_report_dict_shape():
    r = pipeline.report_dict(analyze("triangle"))
    assert r["input"]["n_lines"] == 3
    assert r["h1"] == {"rank": 2, "torsion": []}
    assert r["prediction"]["exact"] == {"rank": 2, "torsion": []}
    assert r["verdicts"]["euler_identity"] is True
    assert isinstance(r["notes"], list)


def test_verdicts_all_present():
    expected = {
        "chain_condition",
        "connected_cover",
        "euler_identity",
        "rank_lower_bound",
        "rank_upper_bound",
        "modular_upper_bound",
        "torsion_consistency",
        "exact_prediction",
    }
    assert set(analyze("triangle").verdicts) == expected


@pytest.mark.parametrize("primes", [(4,), (2, 0), (-3,), (2, 1000000000000000003), (2**31,)])
def test_analyze_refuses_bad_primes_before_geometry(primes, monkeypatch):
    # the check runs first, so it never reaches the (here broken) geometry
    monkeypatch.setattr(geometry, "affine_picture", None)
    start = time.perf_counter()
    with pytest.raises(InputError, match=f"bad --primes entry {primes[-1]}"):
        pipeline.analyze(geometry.parse_arrangement(presets.preset_text("triangle")), primes=primes)
    assert time.perf_counter() - start < 1.0


def test_analyze_accepts_prime_below_ceiling():
    a = analyze("triangle", primes=(2**31 - 1,))
    assert a.homology.betti_mod == {2**31 - 1: 2}


def test_analyze_trial_divides_a_requested_prime_once(monkeypatch):
    # the request check and h1_of_cover share one cached primality test
    calls = []
    real = snf.prime_factors
    monkeypatch.setattr(snf, "prime_factors", lambda n: calls.append(n) or real(n))
    snf._require_prime.cache_clear()
    a = analyze("triangle", primes=(2**31 - 1,))
    assert a.homology.betti_mod == {2**31 - 1: 2}
    assert calls == [2**31 - 1]


def shifted_betti_mod(monkeypatch, delta):
    """Make h1_of_cover report every mod-p Betti number off by ``delta``."""
    real = cover.h1_of_cover

    def wrong(complex_, primes=()):
        h = real(complex_, primes)
        return h._replace(betti_mod={p: b + delta for p, b in h.betti_mod.items()})

    monkeypatch.setattr(cover, "h1_of_cover", wrong)


@pytest.mark.parametrize("delta", [1, -1])
def test_betti_mod_off_by_one_fails_torsion_consistency_on_braid(monkeypatch, delta):
    """braid-a3's upper bound (9) leaves b1 = 7 open, so the modular oracle
    runs; a note names both numbers for every probe prime."""
    shifted_betti_mod(monkeypatch, delta)
    a = analyze("braid-a3")
    assert a.bound_report.upper_bound == 9
    failed = {k for k, ok in a.verdicts.items() if not ok}
    assert failed == {"torsion_consistency"}
    (note,) = [n["text"] for n in a.notes if n["id"] == "modular-oracle-disagrees"]
    for p in a.primes:
        assert f"dim H1 over F_{p} is {7 + delta} by the Smith form but 7 by the modular" in note


@pytest.mark.parametrize(
    "delta, failed",
    [(1, {"modular_upper_bound", "torsion_consistency"}), (-1, {"torsion_consistency"})],
)
def test_betti_mod_off_by_one_fails_the_bounds_on_generic(monkeypatch, delta, failed):
    """generic:8:1's upper bound is N - 1 = 7, so no oracle runs: the bound
    verdicts and the count of torsion catch the wrong number."""
    shifted_betti_mod(monkeypatch, delta)
    a = analyze("generic:8:1")
    assert a.bound_report.upper_bound == 7
    assert {k for k, ok in a.verdicts.items() if not ok} == failed
    assert not any(n["id"] == "modular-oracle-disagrees" for n in a.notes)


def test_oracle_catches_a_wrong_smith_form(monkeypatch):
    """A Smith form with a spurious Z/2 keeps b1 and the mod-p Betti
    numbers read off it consistent with each other; only the modular
    elimination can tell, and on braid-a3 it does."""
    real = snf.smith_normal_form

    def wrong(m, ncols=None):
        diag = real(m, ncols).diagonal
        return snf.SmithForm(diag[:-1] + (2,))

    monkeypatch.setattr(snf, "smith_normal_form", wrong)
    a = analyze("braid-a3")
    assert a.h1 == AbelianGroup(7, (2,)) and a.homology.betti_mod[2] == 8
    assert {k for k, ok in a.verdicts.items() if not ok} == {"torsion_consistency"}
    (note,) = [n["text"] for n in a.notes if n["id"] == "modular-oracle-disagrees"]
    assert note == "dim H1 over F_2 is 8 by the Smith form but 7 by the modular elimination"


def count_incidence_calls(monkeypatch):
    calls = []
    real = geometry.intersection_points
    monkeypatch.setattr(geometry, "intersection_points", lambda arr: calls.append(arr) or real(arr))
    return calls


@pytest.mark.parametrize("name", ["braid-a3", "parallel-family", "nearpencil:6"])
def test_one_incidence_per_arrangement_object(name, monkeypatch):
    calls = count_incidence_calls(monkeypatch)

    def fresh():
        return geometry.parse_arrangement(presets.preset_text(name))

    pipeline.analyze(fresh())  # the input, its decone and the sheared picture
    assert len(calls) == 3
    del calls[:]
    pipeline.analyze(geometry.decone(fresh(), 0))  # the input, its cone and the sheared picture
    assert len(calls) == 3
    del calls[:]
    proj, infinity = geometry.projective_picture(fresh(), None)
    bounds.bound_report(proj.incidence, infinity=infinity)  # the input only: the transverse split reads it too
    assert len(calls) == 1


def test_unsheared_picture_keeps_its_decone_incidence(monkeypatch, tmp_path, capsys):
    # generic:8:1 needs no shear (t = 0), so the sheared picture has the
    # decone's own lines and takes its incidence
    text = presets.preset_text("generic:8:1")
    calls = count_incidence_calls(monkeypatch)
    a = pipeline.analyze(geometry.parse_arrangement(text))  # the input and its decone
    assert a.aff.shear == 0 and len(calls) == 2
    path = tmp_path / "generic8.txt"
    path.write_text(text)
    for command in ("bounds", "presentation"):  # the input; the decone
        del calls[:]
        assert cli.main([command, str(path), "--json"]) == 0
        assert len(calls) == 1
    capsys.readouterr()


# --- presets ------------------------------------------------------------------


def test_preset_triangle_text():
    assert presets.preset_text("triangle") == "projective\n1 0 0\n0 1 0\n0 0 1\n"


def test_preset_pencil_concurrent():
    arr = geometry.parse_arrangement(presets.preset_text("pencil:7"))
    inc = geometry.intersection_points(arr)
    assert len(inc.points) == 1
    assert inc.points[0].multiplicity == 7


def test_preset_generic_all_double():
    for n, seed in ((4, 1), (6, 3), (7, 11)):
        arr = geometry.parse_arrangement(presets.preset_text(f"generic:{n}:{seed}"))
        inc = geometry.intersection_points(arr)
        assert inc.multiplicity_census() == {2: n * (n - 1) // 2}


def test_generic_50_lines():
    a = analyze("generic:50:1")
    assert a.h1 == AbelianGroup(49)
    assert a.all_verdicts_pass and len(a.verdicts) == 8


def test_preset_errors():
    with pytest.raises(InputError):
        presets.preset_text("heptagram")
    with pytest.raises(InputError):
        presets.preset_text("pencil:2")  # needs at least 3 lines


# --- the cell budget, checked from the incidence ---------------------------


def cell_counts(monkeypatch, text, **kw):
    """The cell counts ``cover.check_cells`` gave during one analysis: the
    prediction from the incidence, then the count of the built complex."""
    counts = []
    check = cover.check_cells

    def recording(*args):
        counts.append(check(*args))
        return counts[-1]

    monkeypatch.setattr(cover, "check_cells", recording)
    a = pipeline.analyze_text(text, **kw)
    c = a.complex
    assert counts[-1] == c.n * (1 + c.generator_count + c.relator_count)
    return counts


def test_predicted_cells_equal_the_built_complex_on_the_corpus(monkeypatch):
    from milnorfiber.validation import Corpus

    for name, text in Corpus().entries:
        predicted, built = cell_counts(monkeypatch, text)
        assert predicted == built, name


@pytest.mark.parametrize("name, kw", [
    ("triangle", {}), ("braid-a3", {}), ("braid-a3", {"infinity_index": 0}),
    ("braid-a3", {"modulus": 7}), ("pencil:9", {}), ("nearpencil:12", {}),
    ("generic:16:1", {}), ("generic:12:2", {"modulus": 3}), ("parallel-family", {}),
    ("parallel-family", {"infinity_index": 2}),
])
def test_predicted_cells_equal_the_built_complex_on_presets(monkeypatch, name, kw):
    predicted, built = cell_counts(monkeypatch, presets.preset_text(name), **kw)
    assert predicted == built


def test_oversized_cover_is_refused_before_the_shear(monkeypatch):
    # 300 tangent lines of a conic: every pair meets in its own double
    # point, 300 * (1 + 299 + 44551) cells; the shear search alone took
    # over a second on this file, and the sweep ran for minutes
    def refuse(aff):
        raise AssertionError("the shear was reached")

    monkeypatch.setattr(geometry, "shear_to_generic", refuse)
    text = "projective\n" + "".join(f"1 {k} {k * k}\n" for k in range(300))
    with pytest.raises(InputError) as caught:
        pipeline.analyze_text(text)
    assert str(caught.value) == (
        "the degree-300 cover would have 13455300 cells, over the budget of 250000")


def test_bad_modulus_is_refused_before_any_geometry(monkeypatch):
    def refuse(*args):
        raise AssertionError("geometry was reached")

    monkeypatch.setattr(geometry, "affine_picture", refuse)
    with pytest.raises(InputError, match="modulus must be a positive integer, got -2"):
        analyze("triangle", modulus=-2, infinity_index=7)


@pytest.mark.parametrize("modulus, shown", [(2.5, "2.5"), (True, "True"), (False, "False"),
                                            ("3", "'3'"), (3.0, "3.0"), (0, "0")])
def test_modulus_must_be_a_positive_int(monkeypatch, modulus, shown):
    # the library takes no float, bool or string for the degree; the
    # command line parses --modulus as an int
    def refuse(*args):
        raise AssertionError("geometry was reached")

    monkeypatch.setattr(geometry, "affine_picture", refuse)
    with pytest.raises(InputError) as caught:
        pipeline.analyze_text(presets.preset_text("triangle"), modulus=modulus)
    assert str(caught.value) == f"modulus must be a positive integer, got {shown}"
