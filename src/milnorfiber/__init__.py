"""First homology of Milnor fibers of complexified-real line arrangements.

Pipeline: exact rational arrangement geometry -> sweep presentation of the
complement's fundamental group -> finite cyclic-cover chain complex via Fox
derivatives -> integer Smith normal form -> rank and torsion of H1, checked
against combinatorial bounds and exactness criteria.
"""

from .snf import AbelianGroup, SmithForm, smith_normal_form
from .geometry import (
    AffineArrangement,
    AffineLine,
    Arrangement,
    IncidenceData,
    IncidencePoint,
    InputError,
    ProjLine,
    cone,
    decone,
    intersection_points,
    parse_arrangement,
    shear_to_generic,
)
from .presentation import (
    Presentation,
    Relator,
    arvola_randell,
    free_reduce_and_strip,
    projective_presentation,
)
from .cover import CoverComplex, CoverHomology, build_cover_complex, h1_of_cover
from .bounds import (
    BoundReport,
    SyntheticIncidence,
    bound_report,
    cdo_bound,
    corollary_check,
    oka_sakamoto_check,
    one_point_check,
    onehyp_bounds,
    parse_incidence,
    predict,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AffineArrangement",
    "AffineLine",
    "Arrangement",
    "BoundReport",
    "CoverComplex",
    "CoverHomology",
    "IncidenceData",
    "IncidencePoint",
    "InputError",
    "Presentation",
    "ProjLine",
    "Relator",
    "SmithForm",
    "SyntheticIncidence",
    "arvola_randell",
    "bound_report",
    "build_cover_complex",
    "cdo_bound",
    "cone",
    "corollary_check",
    "decone",
    "free_reduce_and_strip",
    "h1_of_cover",
    "intersection_points",
    "oka_sakamoto_check",
    "one_point_check",
    "onehyp_bounds",
    "parse_arrangement",
    "parse_incidence",
    "predict",
    "projective_presentation",
    "shear_to_generic",
    "smith_normal_form",
]
