"""The package's records are immutable namedtuples.

No field can be assigned; every check and normalization a record makes
runs in its constructor and again in ``_replace``; a value a record's
fields already give is read off them, not stored; and a projective line
never equals an affine line with the same coefficients."""

import importlib
import pkgutil

import pytest

import milnorfiber
from milnorfiber import bounds, geometry, pipeline, presets, snf, validation
from milnorfiber.bounds import OnePointCheck, SyntheticIncidence
from milnorfiber.cover import CoverHomology
from milnorfiber.geometry import AffineArrangement, AffineLine, Arrangement, InputError, ProjLine
from milnorfiber.presentation import Presentation, Relator
from milnorfiber.snf import AbelianGroup, SmithForm

RECORD_CLASSES = {
    "AbelianGroup", "AffineArrangement", "AffineLine", "Analysis", "Arrangement",
    "BoundReport", "CoverComplex", "CoverHomology", "CriterionResult", "IncidenceData",
    "IncidencePoint", "OnePointCheck", "Presentation", "ProjLine", "Relator",
    "RowOrbits", "SmithForm", "SyntheticIncidence",
}


@pytest.fixture(scope="module")
def records():
    """One instance of every record class: braid-a3's analysis and its
    parts, plus the records that no analysis holds."""
    a = pipeline.analyze_text(presets.preset_text("braid-a3"))
    return [
        a, a.proj, a.proj.lines[0], a.aff, a.aff.lines[0], a.incidence, a.incidence.points[0],
        a.presentation, a.presentation.relators[0], a.complex, a.complex.d2, a.homology, a.h1,
        a.bound_report, a.bound_report.one_point,
        snf.smith_normal_form([[2, 4], [6, 8]]),
        SyntheticIncidence(3, ((0, 1), (0, 2), (1, 2))),
        validation.CriterionResult(1, "name", True, "detail", 0.0),
    ]


def package_record_classes():
    """The namedtuple record classes that the package's modules define."""
    found = set()
    for info in pkgutil.iter_modules(milnorfiber.__path__):
        module = importlib.import_module(f"milnorfiber.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
            and obj.__module__ == module.__name__
        )
    return found


def test_every_record_class_is_covered(records):
    assert {type(r).__name__ for r in records} == RECORD_CLASSES
    assert {cls.__name__ for cls in package_record_classes()} == RECORD_CLASSES
    assert all(isinstance(r, tuple) and r._fields for r in records)


def test_every_checked_record_replaces_through_one_hook():
    # namedtuple's own _make would build a record without running __new__
    checked = [cls for cls in package_record_classes() if "__new__" in vars(cls)]
    assert len(checked) == 11
    for cls in checked:
        assert cls._make.__func__ is geometry._Checked._make.__func__, cls.__name__


def test_derived_fields_read_their_owner(records):
    a = records[0]
    assert a.incidence is a.proj.incidence
    assert a.n == a.complex.n == a.proj.n_lines
    assert a.homology.b1 == a.homology.group.free_rank == 7
    assert a.primes == tuple(a.homology.betti_mod) == (2, 3, 5, 7, 11)
    assert a.bound_report.lower_bound == a.bound_report.n - 1
    assert pipeline.report_dict(a)["betti"]["euler"] == a.complex.euler_characteristic()


def test_stored_fields_are_only_what_was_computed():
    assert len(bounds.BoundReport._fields) == 6
    assert len(Presentation._fields) == 2
    assert len(pipeline.Analysis._fields) == 10
    assert len(CoverHomology._fields) == 4


def test_bound_report_reads_its_evaluators():
    report = bounds.bound_report(TRIANGLE)
    assert report.onehyp_best == min(report.onehyp_per_line.values()) == 2
    assert report.cdo_total == report.n - 1 + sum(report.cdo_per_k.values()) == 2
    assert report.applicable == (("coprime_or_double_line", 0),)
    assert report.notes == ()
    # each derived value follows a change of the field it reads
    changed = report._replace(onehyp_per_line={0: 5, 1: 3, 2: 4}, cdo_per_k={1: 1, 2: 0})
    assert (changed.onehyp_best, changed.cdo_total, changed.upper_bound) == (3, 3, 3)
    fired = report._replace(corollary_witness=None, oka_sakamoto=((0,), (1,)),
                            one_point=OnePointCheck(witness=(1, "p", 3)))
    assert fired.applicable == (("single_heavy_point_line", (1, "p", 3)),
                                ("transverse_split", ((0,), (1,))))
    assert fired.exact == AbelianGroup(2)
    assert report._replace(corollary_witness=None).exact is None
    blocked = report._replace(one_point=OnePointCheck(guard_blocked=(2, "q", 3)))
    (note,) = blocked.notes
    assert note.startswith("single-heavy-point criterion matched line 2 literally (point q, ")


def test_fields_cannot_be_assigned(records):
    for r in records:
        for field in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, getattr(r, field))


def test_replace_without_changes_gives_an_equal_record(records):
    for r in records:
        twin = r._replace()
        assert twin == r and type(twin) is type(r)
        assert twin._asdict() == r._asdict()


TRIANGLE = SyntheticIncidence(3, ((0, 1), (0, 2), (1, 2)))

# (a valid record, field changes it refuses, the error, its message): at
# least one case per record class that checks its fields
REFUSALS = [
    (SmithForm((2, 4)), {"diagonal": (2, 3)}, ValueError, "divisibility chain"),
    (AbelianGroup(1, (2,)), {"torsion": (1,)}, ValueError, "must exceed 1"),
    (ProjLine((1, 0, 0)), {"coeffs": (0, 0, 0)}, InputError, "zero coefficient triple"),
    (AffineLine((1, 0, 0)), {"coeffs": (0, 0, 1)}, InputError, "nonzero linear part"),
    (Arrangement((ProjLine((1, 0, 0)), ProjLine((0, 1, 0)))),
     {"lines": (ProjLine((1, 0, 0)), ProjLine((2, 0, 0)))}, InputError, "duplicate line"),
    (AffineArrangement((AffineLine((1, 0, 0)),)), {"lines": ()}, InputError, "at least 1 line"),
    (Presentation(2, (Relator((1, 2, -1, -2)),)),
     {"generator_count": 1}, ValueError, "outside generator range"),
    (TRIANGLE, {"points": ((0, 1), (1, 0, 2))}, InputError, "meet in two points"),
    (bounds.bound_report(TRIANGLE), {"onehyp_per_line": {0: 1, 1: 2, 2: 2}}, AssertionError,
     "lower bound exceeds"),
    # the per-degree total is an upper bound too
    (bounds.bound_report(TRIANGLE), {"cdo_per_k": {1: -1, 2: 0}}, AssertionError,
     "lower bound exceeds"),
]
# the record's class, and the changed fields for a second case of a class
CASE_IDS = [type(case[0]).__name__ for case in REFUSALS]
CASE_IDS = [name if CASE_IDS.index(name) == k else f"{name}-{'-'.join(REFUSALS[k][1])}"
            for k, name in enumerate(CASE_IDS)]


@pytest.mark.parametrize("record, changes, error, message", REFUSALS, ids=CASE_IDS)
def test_constructor_and_replace_refuse_alike(record, changes, error, message):
    with pytest.raises(error, match=message):
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error, match=message):
        record._replace(**changes)


def test_replace_normalizes_like_the_constructor():
    assert SmithForm((1,))._replace(diagonal=[2, 4]).diagonal == (2, 4)
    assert ProjLine((1, 0, 0))._replace(coeffs=(-2, 4, 0)).coeffs == (1, -2, 0)
    lines = [ProjLine((1, 0, 0)), ProjLine((0, 1, 0))]
    assert Arrangement(lines)._replace(lines=lines[::-1]).lines == tuple(lines[::-1])
    assert TRIANGLE._replace(points=[[1, 0], {2, 0}]).points == ((0, 1), (0, 2))


def test_arrangements_keep_their_cached_incidence_apart():
    arr = Arrangement((ProjLine((1, 0, 0)), ProjLine((0, 1, 0)), ProjLine((0, 0, 1))))
    assert arr.incidence is arr.incidence
    twin = arr._replace()
    assert twin == arr and twin.incidence is not arr.incidence


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (1, -2, 3), (0, 1, -5)])
def test_a_projective_line_never_equals_an_affine_line(coeffs):
    proj, aff = ProjLine(coeffs), AffineLine(coeffs)
    assert proj.coeffs == aff.coeffs
    assert proj != aff and aff != proj
    assert not proj == aff and not aff == proj
    assert len({proj, aff}) == 2
    assert proj == ProjLine(coeffs) and not proj != ProjLine(coeffs)
    assert hash(proj) == hash(ProjLine(tuple(2 * c for c in coeffs)))
