"""Fault injection: which verdicts catch a wrong intermediate result.

Each fault is patched in with monkeypatch, on top of the package's own
code; nothing here changes ``src/``.  For every fault family and input the
set of verdicts that fail is pinned.  A fault that no verdict catches is
pinned as a known gap, with its reason, and is never skipped: when a new
check catches it, its row here fails and moves to the caught rows.
"""

from collections import Counter

import pytest

from milnorfiber import cover, pipeline, presentation, presets, snf
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
# or ("raises", message) for an analysis that raises before any verdict
SEED_FAULTS = {
    "plus-one-on-lowest-column": (_plus_one_on_lowest_column, {
        ("chain_condition", "exact_prediction", "rank_lower_bound"): 33,
        ("chain_condition", "rank_lower_bound"): 1,
        # known gap: d2 then has rank above the n*G - (n - 1) columns left
        # past the spanning tree, and h1_of_cover's AbelianGroup refuses a
        # negative free rank before chain_condition is read
        ("raises", "free rank must be non-negative"): 81,
    }),
    "lowest-coefficient-to-next-generator": (_lowest_to_next_generator, {
        # the coefficient sums by power of x are unchanged, so the chain
        # condition cannot see it; the rank of d2 drops
        ("exact_prediction", "rank_lower_bound"): 114,
        ("rank_lower_bound",): 1,
    }),
}


@pytest.mark.parametrize("fault", sorted(SEED_FAULTS))
def test_one_fox_seed_coefficient(monkeypatch, corpus_with_d2, fault):
    """One coefficient of the first relator's Fox seed is wrong, as a slip
    in the Fox pass would make it."""
    change, want = SEED_FAULTS[fault]
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
    outcomes = Counter()
    for name, text, _ in corpus_with_d2:
        calls.clear()
        try:
            outcomes[failing(pipeline.analyze_text(text))] += 1
        except ValueError as exc:
            outcomes["raises", str(exc)] += 1
        assert calls, name
    assert outcomes == want


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
