"""End-to-end analysis: parse -> decone -> shear -> sweep presentation ->
cyclic-cover complex -> integer homology -> bounds -> verdicts.

This is the single entry point shared by the command line and the
self-validation corpus, so every run performs (and records) the same
consistency checks.
"""

from collections import namedtuple

from . import bounds as bounds_mod
from . import cover as cover_mod
from . import geometry
from . import presentation as presentation_mod
from . import snf

DEFAULT_PRIMES = (2, 3, 5, 7, 11)


def _check_primes(primes):
    """Refuse any requested probe that is not a prime below snf.PRIME_CEILING."""
    for p in primes:
        if p >= snf.PRIME_CEILING:
            raise geometry.InputError(f"bad --primes entry {p}: probe primes must be below 2^31")
        try:
            snf._require_prime(p)  # cached: h1_of_cover asks again
        except ValueError:
            raise geometry.InputError(f"bad --primes entry {p}: not a prime") from None


def probe_primes(incidence):
    """Default torsion probes: 2,3,5,7,11 plus every prime dividing the
    number of lines or a point multiplicity."""
    ps = set(DEFAULT_PRIMES)
    ps.update(snf.prime_factors(incidence.n_lines))
    for pt in incidence.points:
        ps.update(snf.prime_factors(pt.multiplicity))
    return tuple(sorted(ps))


class Analysis(namedtuple("Analysis", "mode proj aff infinity_index presentation complex homology "
                       "bound_report verdicts notes")):
    """Everything computed for one arrangement: ``mode`` is 'projective'
    or 'affine', ``aff`` the sweep-ready decone, and ``bound_report`` None
    when a modulus override changed the cover degree ``n``."""

    __slots__ = ()

    @property
    def n(self):
        """The degree of the cover analyzed."""
        return self.complex.n

    @property
    def incidence(self):
        """The incidence of the projective arrangement."""
        return self.proj.incidence

    @property
    def primes(self):
        return tuple(self.homology.betti_mod)

    @property
    def h1(self):
        return self.homology.group

    @property
    def all_verdicts_pass(self):
        return all(self.verdicts.values())


def _is_generic_triangle(incidence):
    return incidence.n_lines == 3 and incidence.multiplicity_census() == {2: 3}


def _verdicts(hom, report, complex_):
    """The verdicts, and a note for each mod-p Betti number that the
    modular oracle disputes.

    torsion_consistency holds each mod-p Betti number to b1 plus the count
    of invariant factors divisible by p.  Where the bound report's upper
    bound is N - 1, that and the bound verdicts pin it to N - 1.  Elsewhere
    it is also held against a second elimination of d2, one over F_p per
    probe prime, that shares nothing with the Smith form it is read from.
    """
    v = {}
    notes = []
    v["chain_condition"] = complex_.chain_ok()
    v["connected_cover"] = hom.b0 == 1
    v["euler_identity"] = hom.b0 - hom.b1 + hom.b2 == complex_.euler_characteristic()
    if report is not None:
        upper = report.upper_bound
        v["rank_lower_bound"] = hom.b1 >= report.lower_bound
        v["rank_upper_bound"] = hom.b1 <= upper
        v["modular_upper_bound"] = all(b <= upper for b in hom.betti_mod.values())
        consistent = all(
            b == hom.b1 + sum(t % p == 0 for t in hom.group.torsion)
            for p, b in hom.betti_mod.items()
        )
        if upper > report.lower_bound:
            oracle = cover_mod.modular_betti(complex_, hom.betti_mod)
            disputed = [p for p, b in hom.betti_mod.items() if b != oracle[p]]
            if disputed:
                consistent = False
                text = "; ".join(
                    f"dim H1 over F_{p} is {hom.betti_mod[p]} by the Smith form "
                    f"but {oracle[p]} by the modular elimination"
                    for p in disputed
                )
                notes.append({"id": "modular-oracle-disagrees", "text": text})
        v["torsion_consistency"] = consistent
        exact = report.exact
        if exact is not None:
            v["exact_prediction"] = hom.group == exact
    return v, notes


def analyze(arr, infinity_index=None, primes=None, modulus=None):
    """Run the full pipeline on a parsed arrangement.

    ``infinity_index`` picks the line sent to infinity (default: the last
    line); affine input has one already and refuses it.  ``modulus``
    analyzes the Z/m quotient cover instead of the full Milnor-fiber cover;
    combinatorial bounds are about the full cover, so they are skipped in
    that case.  Each of the requested ``primes`` must be a prime below
    snf.PRIME_CEILING, and ``modulus`` a positive int, before any geometry; the
    cell budget is checked from the incidence, before the shear.
    """
    if primes is not None:
        _check_primes(primes)
    if modulus is not None and (type(modulus) is not int or modulus < 1):  # a bool too
        raise geometry.InputError(f"modulus must be a positive integer, got {modulus!r}")
    mode = "affine" if isinstance(arr, geometry.AffineArrangement) else "projective"
    proj, aff0, infinity_index = geometry.affine_picture(arr, infinity_index)
    incidence = proj.incidence
    # the sweep's m - 1 relators per affine point of multiplicity m, none stripped away
    relators = sum(pt.multiplicity - 1 for pt in incidence.points if infinity_index not in pt.incident)
    n = modulus or proj.n_lines
    cover_mod.check_cells(n, proj.n_lines - 1, relators, modulus)
    aff = geometry.shear_to_generic(aff0)
    pres = presentation_mod.free_reduce_and_strip(presentation_mod.arvola_randell(aff))
    complex_ = cover_mod.build_cover_complex(pres, n)
    hom = cover_mod.h1_of_cover(complex_, primes=probe_primes(incidence) if primes is None else primes)
    if n == proj.n_lines:
        report = bounds_mod.bound_report(incidence, infinity=infinity_index)
        notes = [{"id": "single-heavy-point-guard", "text": t} for t in report.notes]
        if _is_generic_triangle(incidence):
            notes.append(
                {
                    "id": "triangle-published-value",
                    "text": "an earlier published computation reports rank 3 for the first "
                    "homology of this cover; the exact reduction here gives rank 2, which "
                    "matches the Euler characteristic and the double-point exactness "
                    "criterion",
                }
            )
        notes.append(
            {
                "id": "rank-lower-bound-convention",
                "text": "the enforced lower bound for the first Betti number is one "
                "less than the number of lines; the stronger published value (equal "
                "to the number of lines) does not follow from the covering argument "
                "and is not used",
            }
        )
    else:
        report = None
        notes = [
            {
                "id": "modulus-override",
                "text": f"analyzing the degree-{n} quotient cover instead of the full "
                f"degree-{proj.n_lines} cover; combinatorial bounds apply to the full "
                "cover only and are skipped",
            }
        ]
    verdicts, oracle_notes = _verdicts(hom, report, complex_)
    notes.extend(oracle_notes)
    return Analysis(
        mode=mode,
        proj=proj,
        aff=aff,
        infinity_index=infinity_index,
        presentation=pres,
        complex=complex_,
        homology=hom,
        bound_report=report,
        verdicts=verdicts,
        notes=tuple(notes),
    )


def analyze_text(text, infinity_index=None, primes=None, modulus=None):
    return analyze(
        geometry.parse_arrangement(text),
        infinity_index=infinity_index,
        primes=primes,
        modulus=modulus,
    )


def projective_h1(arr):
    """H1 of the Milnor fiber via the projective presentation (the
    cross-validation route; must agree with analyze().h1)."""
    pres = presentation_mod.free_reduce_and_strip(
        presentation_mod.projective_presentation(arr)
    )
    complex_ = cover_mod.build_cover_complex(pres, arr.n_lines)
    return cover_mod.h1_of_cover(complex_).group


def report_dict(a):
    """JSON-ready report with the fixed key layout."""
    lines = [list(l.coeffs) for l in a.proj.lines]
    input_block = {
        "mode": a.mode,
        "lines": lines,
        "n_lines": a.proj.n_lines,
        "cover_degree": a.n,
        "infinity_index": a.infinity_index,
        "shear_t": a.aff.shear,
    }
    incidence_block = {
        "points": [
            {"point": pt.label(), "lines": list(pt.incident), "multiplicity": pt.multiplicity}
            for pt in a.incidence.points
        ],
        "census": {str(m): c for m, c in sorted(a.incidence.multiplicity_census().items())},
    }
    presentation_block = {
        "kind": "affine-decone",
        "generators": a.presentation.generator_count,
        "relators": len(a.presentation.relators),
        "total_length": a.presentation.total_relator_length(),
    }
    h1_block = {"rank": a.h1.free_rank, "torsion": list(a.h1.torsion)}
    betti_block = {
        "q": a.homology.b1,
        "mod": {str(p): a.homology.betti_mod[p] for p in a.primes},
        "b0": a.homology.b0,
        "b2": a.homology.b2,
        "euler": a.complex.euler_characteristic(),
    }
    report = a.bound_report
    if report is None:
        bounds_block = prediction_block = None
    else:
        bounds_block = report.as_dict()
        bounds_block["one_point"]["literal_fires"] = report.one_point.literal_fires
        exact = report.exact
        prediction_block = {
            "exact": None
            if exact is None
            else {"rank": exact.free_rank, "torsion": list(exact.torsion)},
            "lower": report.lower_bound,
            "upper": report.upper_bound,
        }
    return {
        "input": input_block,
        "incidence": incidence_block,
        "presentation": presentation_block,
        "h1": h1_block,
        "betti": betti_block,
        "bounds": bounds_block,
        "prediction": prediction_block,
        "verdicts": dict(a.verdicts),
        "notes": [dict(n) for n in a.notes],
    }

