"""Exact-arithmetic toolkit for the Kohmoto model: Farey metric, mechanical
words and defects, certified periodic/defect spectra, and experiment drivers."""

from .analysis import (
    butterfly,
    lipschitz_sweep,
    measure_experiments,
    optimality_certificate,
    point_spectrum,
)
from .farey import (
    FareyPoint,
    QuadraticIrrational,
    cf_eval,
    cf_forms,
    compare_points,
    emergence_level,
    farey_distance,
    farey_neighbors,
    mediant,
    simplest_rational_between,
)
from .sets import EnclosedSet, hausdorff_spectra, lebesgue
from .spectra import (
    Spectrum,
    band_classify,
    defect_spectrum,
    membership,
    spectrum_periodic,
    trace_poly_cf,
)
from .tree import BoundaryPath, TreeNode, boundary_distance, children, path_of, represent, weight
from .words import (
    Configuration,
    complexity,
    defect_config,
    dictionary,
    mechanical_word,
    orbit_inclusion,
    period_word,
    sk_words,
    subshift_distance,
)

__all__ = [
    "BoundaryPath",
    "Configuration",
    "EnclosedSet",
    "FareyPoint",
    "QuadraticIrrational",
    "Spectrum",
    "TreeNode",
    "band_classify",
    "boundary_distance",
    "butterfly",
    "cf_eval",
    "cf_forms",
    "children",
    "compare_points",
    "complexity",
    "defect_config",
    "defect_spectrum",
    "dictionary",
    "emergence_level",
    "farey_distance",
    "farey_neighbors",
    "hausdorff_spectra",
    "lebesgue",
    "lipschitz_sweep",
    "measure_experiments",
    "mechanical_word",
    "mediant",
    "membership",
    "optimality_certificate",
    "orbit_inclusion",
    "path_of",
    "period_word",
    "point_spectrum",
    "represent",
    "simplest_rational_between",
    "sk_words",
    "spectrum_periodic",
    "subshift_distance",
    "trace_poly_cf",
    "weight",
]

__version__ = "0.1.0"
