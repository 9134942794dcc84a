"""Exact-integer divisor-class calculus on a blown-up ruled surface over
an elliptic curve and its rational quotient: lattice arithmetic, the
negative-curve catalog, cover-invariant validation, a dual-route nef
criterion, explicit families with a verified construction kit, a divisor
expression language, and a command-line front end."""

from .catalog import (
    ExceptionalSpec,
    char_p_section,
    enumerate_exceptional,
    exceptional_class,
    fiber_component_class,
    gamma_perp_class,
    negative_curve_catalog,
    r_branch,
    s_branch,
    section_image,
    validate_char_p,
)
from .covers import (
    Check,
    CoverInvariants,
    CoverReport,
    factorization_relations,
    genus_tilde,
    max_genus_dominated,
    osculating_bound,
    perp_genus_identity,
    validate_cover,
    validate_type,
)
from .errors import (
    AnticanonicalDegreeTooSmall,
    BareSectionSymbol,
    CharPExcluded,
    ConstraintViolation,
    DegreeTooSmall,
    DomainError,
    ExprError,
    ExprSyntaxError,
    IdentityFailure,
    InternalCheckFailure,
    NegativeGenus,
    NoSolutions,
    NotDivisible,
    NotNef,
    OddPairing,
    ParityViolation,
    RationalImageViolation,
    RhoEven,
    RhoOutOfRange,
    UnknownSymbol,
)
from .expr import format as format_divisor
from .expr import parse as parse_divisor
from .families import (
    CSV_COLUMNS,
    CensusRecord,
    KitDivisors,
    census,
    census_csv,
    census_json,
    construction_kit,
    generate_nef_types,
    generate_non_nef_types,
)
from .lattice import (
    C,
    F,
    K,
    K_TILDE,
    R,
    S,
    ZERO,
    DivisorClass,
    QuotientClass,
    arithmetic_genus,
    canonical_class,
    intersect,
    quotient_genus,
    quotient_intersect,
)
from .nef import (
    BoxScan,
    ContactDivisor,
    Decomposition,
    LambdaSpec,
    MinimizerReport,
    NefReport,
    closed_conditions,
    decompose_type,
    lambda_class,
    lambda_dot_exceptional_closed,
    linear_system_dims,
    moduli_dimension,
    n_for_type,
    nef_check,
    scan_box,
    thresholds,
    verify_minimizer_claim,
    z_divisor,
)
from .verify import CriterionResult, run_all

__version__ = "0.2.0"

__all__ = [
    "AnticanonicalDegreeTooSmall", "BareSectionSymbol", "BoxScan", "C",
    "CSV_COLUMNS", "CensusRecord", "CharPExcluded",
    "Check", "ConstraintViolation", "ContactDivisor", "CoverInvariants",
    "CoverReport",
    "CriterionResult", "Decomposition", "DegreeTooSmall", "DivisorClass",
    "DomainError",
    "ExceptionalSpec", "ExprError", "ExprSyntaxError", "F", "IdentityFailure",
    "InternalCheckFailure", "K", "K_TILDE", "KitDivisors", "LambdaSpec",
    "MinimizerReport", "NefReport", "NegativeGenus", "NoSolutions",
    "NotDivisible", "NotNef", "OddPairing", "ParityViolation",
    "QuotientClass", "R", "RationalImageViolation", "RhoEven",
    "RhoOutOfRange", "S",
    "UnknownSymbol", "ZERO", "arithmetic_genus",
    "canonical_class", "census", "census_csv", "census_json",
    "char_p_section", "closed_conditions", "construction_kit",
    "decompose_type", "enumerate_exceptional", "exceptional_class",
    "factorization_relations", "fiber_component_class", "format_divisor",
    "gamma_perp_class", "generate_nef_types", "generate_non_nef_types",
    "genus_tilde", "intersect", "lambda_class",
    "lambda_dot_exceptional_closed", "linear_system_dims",
    "max_genus_dominated", "moduli_dimension", "n_for_type",
    "nef_check", "negative_curve_catalog", "osculating_bound",
    "parse_divisor", "perp_genus_identity", "quotient_genus",
    "quotient_intersect", "r_branch", "run_all", "s_branch", "scan_box",
    "section_image", "thresholds", "validate_char_p", "validate_cover",
    "validate_type", "verify_minimizer_claim", "z_divisor",
]
