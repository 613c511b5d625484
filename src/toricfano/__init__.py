"""Exact-arithmetic toric fans and the classification of Fano point blow-ups.

The package models smooth complete fans over arbitrary-precision integers,
computes walls (invariant curves) with their exact relations, decides
ampleness, Fano-ness, and Mori extremality, performs star-subdivision
blow-ups and their inverse blow-downs, and mechanically verifies which
smooth toric Fano n-folds contain a projective-space divisor and which
smooth complete toric n-folds have a Fano blow-up at a fixed point.
"""

from .classify import (
    CatalogEntry,
    ClassificationResult,
    ClassificationViolation,
    DivisorAnalysis,
    FixedPointProbe,
    OutsideStatement,
    SimplificationStep,
    Theorem1Report,
    UnsupportedDimension,
    analyze_divisor,
    catalog,
    classify_fano_with_divisor,
    find_transverse_extremal,
    p1_bundle_fan,
    projective_space_fan,
    random_corpus,
    simplify_pair,
    theorem1_check,
)
from .fan import (
    Fan,
    InvalidFanError,
    ValidationReport,
    Wall,
    blow_down,
    fans_isomorphic,
    is_complete,
    is_smooth,
    star_subdivide,
    validate,
    walls,
)
from .intersect import (
    DivisorPositivity,
    TDivisor,
    anticanonical_degree,
    divisor_dot_curve,
    is_fano,
    point_blowups_are_fano,
    positivity,
)
from .mori import (
    ContractionInfo,
    contraction_info,
    curve_class,
    is_extremal,
    is_mori_extremal,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ClassificationResult",
    "ClassificationViolation",
    "ContractionInfo",
    "DivisorAnalysis",
    "DivisorPositivity",
    "Fan",
    "FixedPointProbe",
    "InvalidFanError",
    "OutsideStatement",
    "SimplificationStep",
    "TDivisor",
    "Theorem1Report",
    "UnsupportedDimension",
    "ValidationReport",
    "Wall",
    "analyze_divisor",
    "anticanonical_degree",
    "blow_down",
    "catalog",
    "classify_fano_with_divisor",
    "contraction_info",
    "curve_class",
    "divisor_dot_curve",
    "fans_isomorphic",
    "find_transverse_extremal",
    "is_complete",
    "is_extremal",
    "is_fano",
    "is_mori_extremal",
    "is_smooth",
    "p1_bundle_fan",
    "point_blowups_are_fano",
    "positivity",
    "projective_space_fan",
    "random_corpus",
    "simplify_pair",
    "star_subdivide",
    "theorem1_check",
    "validate",
    "walls",
]
