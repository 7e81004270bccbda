"""Fault injection: which verdicts catch a wrong intermediate result.

Each fault is patched in with monkeypatch, on top of the package's own
code; nothing here changes ``src/``.  For every fault family and input the
set of verdicts that fail is pinned.  A fault that no verdict catches is
pinned as a known gap, with its reason, and is never skipped: when a new
check catches it, its row here fails and moves to the caught rows.
"""

import inspect
from collections import Counter

import pytest

from milnorfiber import cli, cover, geometry, pipeline, presentation, presets, snf
from milnorfiber.snf import AbelianGroup
from milnorfiber.validation import Corpus


def _last_unit(diagonal):
    return max(k for k, d in enumerate(diagonal) if d == 1)


# each takes a Smith diagonal that starts with a unit
SMITH_FAULTS = {
    "drop-a-unit": lambda d: d[1:],
    "a-unit-becomes-2": lambda d: d[:_last_unit(d)] + (2,) + d[_last_unit(d) + 1:],
    "an-extra-unit": lambda d: (1,) + d,
}

# failing verdicts -> number of corpus inputs.  The 114 inputs whose
# bounds pin b1 = N - 1 catch every fault by the bounds; braid-a3, where
# they leave b1 open, catches it by the modular oracle of
# torsion_consistency.
SMITH_VERDICT_MAP = {
    "drop-a-unit": {
        ("exact_prediction", "modular_upper_bound", "rank_upper_bound"): 114,
        ("torsion_consistency",): 1,
    },
    "a-unit-becomes-2": {
        ("exact_prediction", "modular_upper_bound"): 114,
        ("torsion_consistency",): 1,
    },
    "an-extra-unit": {
        ("exact_prediction", "rank_lower_bound"): 114,
        ("torsion_consistency",): 1,
    },
}


def failing(analysis):
    return tuple(sorted(name for name, ok in analysis.verdicts.items() if not ok))


@pytest.fixture(scope="module")
def corpus_with_d2():
    """The selftest corpus inputs whose d2 is nonempty, with their H1:
    every one but the eight pencils, whose decone has no vertex and so no
    relator."""
    kept = []
    for name, text in Corpus().entries:
        a = pipeline.analyze_text(text)
        assert a.all_verdicts_pass, name
        if a.complex.seeds:
            kept.append((name, text, a.h1))
    assert len(kept) == 115
    return kept


@pytest.mark.parametrize("fault", sorted(SMITH_FAULTS))
def test_smith_diagonal_faults_fail_a_verdict_everywhere(monkeypatch, corpus_with_d2, fault):
    smith = snf.smith_normal_form
    change = SMITH_FAULTS[fault]

    def faulted(*args, **kwargs):
        diagonal = smith(*args, **kwargs).diagonal
        assert diagonal[0] == 1
        # past SmithForm's own checks, as a wrong elimination would be
        return tuple.__new__(snf.SmithForm, (change(diagonal),))

    monkeypatch.setattr(snf, "smith_normal_form", faulted)
    verdict_map = Counter()
    for name, text, _ in corpus_with_d2:
        caught = failing(pipeline.analyze_text(text))
        assert caught, name
        verdict_map[caught] += 1
    assert verdict_map == SMITH_VERDICT_MAP[fault]


def test_braid_relator_commutator_fault_is_a_known_gap(monkeypatch):
    """Known gap: braid-a3's bounds leave b1 open (5 <= b1 <= 9, b1 = 7),
    so a relator replaced by a commutator [g_a, g_b] gives a free H1 of
    another rank inside the bounds, and no verdict fails."""
    text = presets.preset_text("braid-a3")
    report = pipeline.analyze_text(text).bound_report
    assert (report.lower_bound, report.upper_bound, report.exact) == (5, 9, None)

    sweep = presentation.arvola_randell
    choices = [(k, a, b) for k in range(6) for a in range(1, 6) for b in range(1, 6) if a != b]
    wrong = caught = 0
    for k, a, b in choices:
        def faulted(aff, k=k, a=a, b=b):
            pres = sweep(aff)
            relators = list(pres.relators)
            relators[k] = relators[k]._replace(word=(a, b, -a, -b))
            return pres._replace(relators=tuple(relators))

        monkeypatch.setattr(presentation, "arvola_randell", faulted)
        analysis = pipeline.analyze_text(text)
        wrong += analysis.h1 != AbelianGroup(7)
        caught += bool(failing(analysis))
    assert (len(choices), wrong, caught) == (120, 108, 0)


@pytest.mark.parametrize("kept", [slice(1, None), slice(None, -1)], ids=["first", "last"])
def test_dropped_sweep_relator(monkeypatch, corpus_with_d2, kept):
    """A sweep that loses its first or its last relator.  Where that
    relator is redundant in the cover's H1, the group does not change; in
    every other case the bounds catch the larger rank."""
    sweep = presentation.arvola_randell

    def faulted(aff):
        pres = sweep(aff)
        return pres._replace(relators=pres.relators[kept])

    monkeypatch.setattr(presentation, "arvola_randell", faulted)
    outcomes = Counter()
    for name, text, h1 in corpus_with_d2:
        analysis = pipeline.analyze_text(text)
        outcomes[analysis.h1 != h1, failing(analysis)] += 1
    assert outcomes == {
        (True, ("exact_prediction", "modular_upper_bound", "rank_upper_bound")): 33,
        (False, ()): 82,
    }


def _plus_one_on_lowest_column(seed, n, G):
    seed[min(seed)] += 1


def _lowest_to_next_generator(seed, n, G):
    # the same power of x in the next generator's block of n columns
    c = min(seed)
    target = (c + n) % (G * n)
    seed[target] = seed.get(target, 0) + seed.pop(c)


# outcome -> number of corpus inputs; an outcome is the failing verdicts,
# or ("refused", check) for an analysis that h1_of_cover refuses before
# any verdict, naming the failed check
SEED_FAULTS = {
    "plus-one-on-lowest-column": (_plus_one_on_lowest_column, {
        ("chain_condition", "exact_prediction", "rank_lower_bound"): 33,
        ("chain_condition", "rank_lower_bound"): 1,
        # d2 then has rank above the n*G - (n - 1) columns left past the
        # spanning tree: no H1 can be read, and the chain condition is named
        ("refused", "chain_condition"): 81,
    }),
    "lowest-coefficient-to-next-generator": (_lowest_to_next_generator, {
        # the coefficient sums by power of x are unchanged, so the chain
        # condition cannot see it; the rank of d2 drops
        ("exact_prediction", "rank_lower_bound"): 114,
        ("rank_lower_bound",): 1,
    }),
}


def _patch_first_fox_seed(monkeypatch, change):
    """Apply ``change`` to the first Fox seed of each analysis; returns the
    list of words seen, which the caller clears between analyses."""
    fox = cover._fox_seed
    calls = []

    def faulted(word, n, G):
        seed = fox(word, n, G)
        if not calls:  # the first relator of this analysis
            change(seed, n, G)
            seed = {c: v for c, v in seed.items() if v}
        calls.append(word)
        return seed

    monkeypatch.setattr(cover, "_fox_seed", faulted)
    return calls


@pytest.mark.parametrize("fault", sorted(SEED_FAULTS))
def test_one_fox_seed_coefficient(monkeypatch, corpus_with_d2, fault):
    """One coefficient of the first relator's Fox seed is wrong, as a slip
    in the Fox pass would make it."""
    change, want = SEED_FAULTS[fault]
    calls = _patch_first_fox_seed(monkeypatch, change)
    outcomes = Counter()
    for name, text, _ in corpus_with_d2:
        calls.clear()
        try:
            outcomes[failing(pipeline.analyze_text(text))] += 1
        except cover.ChainConditionError as exc:
            assert str(exc).startswith("chain_condition fails: d2 has rank "), name
            outcomes["refused", "chain_condition"] += 1
        assert calls, name
    assert outcomes == want


def test_chain_refusal_is_one_line_and_exit_1(monkeypatch, tmp_path, capsys):
    """The command line reports the refused d2 as a failed consistency
    check: one line on stderr, exit status 1, nothing on stdout."""
    path = tmp_path / "generic5.txt"
    path.write_text(presets.preset_text("generic:5:1"))
    calls = _patch_first_fox_seed(monkeypatch, _plus_one_on_lowest_column)
    for argv in (["analyze", str(path)], ["analyze", "--json", str(path)]):
        calls.clear()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", "error: chain_condition fails: d2 has rank 17, "
                                    "above the 16 columns past the spanning tree\n")


def test_betti_mod_at_the_smallest_prime(monkeypatch, corpus_with_d2):
    """dim H1 over F_p one too large at the smallest probe prime, as a
    slip in reading the Betti numbers off the Smith form would make it.
    The 114 inputs whose bounds pin b1 = N - 1 catch it by the bound and
    by torsion_consistency's first clause; braid-a3, where the bounds
    leave room, catches it by torsion_consistency alone."""
    h1 = cover.h1_of_cover

    def faulted(complex_, primes=()):
        hom = h1(complex_, primes)
        p = min(hom.betti_mod)
        return hom._replace(betti_mod={**hom.betti_mod, p: hom.betti_mod[p] + 1})

    monkeypatch.setattr(cover, "h1_of_cover", faulted)
    caught = {name: failing(pipeline.analyze_text(text)) for name, text, _ in corpus_with_d2}
    assert Counter(caught.values()) == {
        ("modular_upper_bound", "torsion_consistency"): 114,
        ("torsion_consistency",): 1,
    }
    assert [name for name, c in caught.items() if c == ("torsion_consistency",)] == ["braid-a3"]


PAPPUS = ("projective\n0 1 0\n0 1 -1\n-1 2 0\n-1 5 0\n-1 -1 1\n-1 4 1\n-1 -3 3\n"
          "-1 -1 3\n-1 29 -9\n")

# one line of presentation.arvola_randell, and its mutated form
SWEEP_MUTATIONS = {
    # conjugate a vertex's middle lines by W^-1 ... W instead of W ... W^-1
    "conjugate-on-the-wrong-side": (
        "words[order[pos]] = free_reduce(_inverse(c) + W[pos] + c)",
        "words[order[pos]] = free_reduce(c + W[pos] + _inverse(c))",
    ),
    # the last middle line keeps its word
    "skip-the-last-conjugation": (
        "for pos in range(1, m - 1):",
        "for pos in range(1, m - 2):",
    ),
}


def mutated_sweep(line, replacement):
    """presentation.arvola_randell with one source line replaced, compiled
    in the module's namespace."""
    source = inspect.getsource(presentation.arvola_randell)
    assert source.count(line) == 1
    namespace = dict(vars(presentation))
    exec(compile(source.replace(line, replacement), presentation.__file__, "exec"), namespace)
    return namespace["arvola_randell"]


@pytest.fixture(scope="module")
def sweep_inputs():
    """The corpus, three larger presets and Pappus: 127 inputs with their H1."""
    entries = Corpus().entries + [
        (name, presets.preset_text(name)) for name in ("pencil:12", "nearpencil:20", "generic:16:1")
    ] + [("pappus", PAPPUS)]
    truth = [(name, text, pipeline.analyze_text(text).h1) for name, text in entries]
    assert len(truth) == 127
    return truth


@pytest.mark.parametrize("mutation", sorted(SWEEP_MUTATIONS))
def test_sweep_mutation_is_a_known_gap(monkeypatch, sweep_inputs, mutation):
    """Known gap: a one-line mutation of the sweep's conjugation changes
    H1 only where a vertex of multiplicity 3 or more has a middle line
    whose word matters, and there the wrong rank stays inside the bounds,
    which leave b1 open (5 <= b1 <= 9 on braid-a3), so no verdict fails."""
    monkeypatch.setattr(presentation, "arvola_randell", mutated_sweep(*SWEEP_MUTATIONS[mutation]))
    outcomes = Counter()
    wrong = {}
    for name, text, h1 in sweep_inputs:
        analysis = pipeline.analyze_text(text)
        outcomes[analysis.h1 != h1, failing(analysis)] += 1
        if analysis.h1 != h1:
            wrong[name] = (str(h1), str(analysis.h1))
    assert outcomes == {(False, ()): 125, (True, ()): 2}
    assert wrong == {"braid-a3": ("Z^7", "Z^5 + Z/3"), "pappus": ("Z^10", "Z^8 + Z/3")}


def test_unmutated_sweep_copy_is_the_sweep(sweep_inputs):
    # the compiled copy with no line replaced gives the package's relators
    line = SWEEP_MUTATIONS["skip-the-last-conjugation"][0]
    copy = mutated_sweep(line, line)
    for name, text, _ in sweep_inputs[:3] + sweep_inputs[-4:]:
        aff = pipeline.analyze_text(text).aff
        assert copy(aff) == presentation.arvola_randell(aff), name


def _heaviest_point_loses_a_line(intersection_points):
    """``geometry.intersection_points`` whose projective incidence has its
    first point of highest multiplicity without its last line; an affine
    picture's incidence, which the sweep reads, is left alone."""

    def faulted(arr):
        inc = intersection_points(arr)
        if not isinstance(arr, geometry.Arrangement):
            return inc
        points = list(inc.points)
        k = max(range(len(points)), key=lambda k: points[k].multiplicity)
        points[k] = points[k]._replace(incident=points[k].incident[:-1])
        return inc._replace(points=tuple(points))

    return faulted


def test_heaviest_point_loses_a_line(monkeypatch):
    """One point multiplicity of the projective incidence one too small, on
    the 34 corpus inputs with a point of multiplicity 3 or more.  H1 comes
    from the sweep, which reads the decone's own incidence, so only the
    bounds, the criteria and the census move.

    - The pencils: the point's multiplicity N - 1 is prime to N, so every
      line is a coprime-or-double line and the bounds fall to N - 1.
    - braid-a3: the triple point becomes a double, so its three lines
      carry one triple point each and the single-heavy-point criterion
      predicts Z^5 (the truth is Z^7, inside the faulted bounds).
    - The near-pencils, parallel-family and four random inputs: the
      transverse split finds components that the double points do not
      join, and its re-verification raises AssertionError before any
      verdict.
    - Known gap, 13 random inputs: their bounds pin b1 = N - 1 with or
      without the fault, so H1 agrees with every faulted bound and no
      verdict fails.  Nothing compares the projective incidence with the
      decone's that the sweep reads."""
    entries = [(name, text) for name, text in Corpus().entries
               if max(p.multiplicity for p in geometry.parse_arrangement(text).incidence.points) >= 3]
    assert len(entries) == 34
    monkeypatch.setattr(geometry, "intersection_points",
                        _heaviest_point_loses_a_line(geometry.intersection_points))
    outcomes, gaps = Counter(), []
    for name, text in entries:
        try:
            caught = failing(pipeline.analyze_text(text))
        except AssertionError as exc:
            assert str(exc) == "transverse-split witness failed re-verification", name
            caught = ("raised", "transverse-split re-verification")
        outcomes[caught] += 1
        if not caught:
            gaps.append(name)
    assert outcomes == {
        ("exact_prediction", "modular_upper_bound", "rank_upper_bound"): 8,
        ("exact_prediction",): 1,
        ("raised", "transverse-split re-verification"): 12,
        (): 13,
    }
    assert gaps == [f"random:{k}" for k in (8, 10, 18, 20, 22, 23, 39, 45, 49, 84, 85, 90, 93)]
