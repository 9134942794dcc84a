"""Exact-integer divisor-class calculus on a blown-up ruled surface over
an elliptic curve and its rational quotient: lattice arithmetic, the
negative-curve catalog, cover-invariant validation, a dual-route nef
criterion, explicit families with a verified construction kit, a divisor
expression language, and a command-line front end.

``import osculant`` runs no submodule.  Each submodule is registered in
``sys.modules`` with a lazy loader, so its body runs on the first
attribute access (``osculant.nef.nef_check``, ``from .nef import ...``);
the package's own names resolve through ``__getattr__`` from the table
below, each on its first use.
"""

import importlib.machinery
import importlib.util
import sys

__version__ = "0.2.0"

_SUBMODULES = ("brute", "catalog", "cli", "closed", "covers", "errors",
               "expr", "families", "jobs", "lattice", "nef", "vectors",
               "verify")

# public name -> (submodule, attribute there)
_EXPORTS = {name: (module, name) for module, names in (
    ("brute", ("BoxScan",)),
    ("catalog", (
        "ExceptionalSpec", "char_p_section", "enumerate_exceptional",
        "exceptional_class", "fiber_component_class", "gamma_perp_class",
        "negative_curve_catalog", "r_branch", "s_branch", "section_image",
        "validate_char_p")),
    ("closed", ("Decomposition",)),
    ("covers", (
        "Check", "CoverInvariants", "CoverReport", "factorization_relations",
        "genus_tilde", "max_genus_dominated", "osculating_bound",
        "perp_genus_identity", "validate_cover", "validate_type")),
    ("errors", (
        "AnticanonicalDegreeTooSmall", "BareSectionSymbol", "CharPExcluded",
        "ConstraintViolation", "DegreeTooSmall", "DomainError", "ExprError",
        "ExprSyntaxError", "IdentityFailure", "InternalCheckFailure",
        "NegativeGenus", "NoSolutions", "NotDivisible", "NotNef",
        "OddPairing", "ParityViolation", "RationalImageViolation", "RhoEven",
        "RhoOutOfRange", "UnknownSymbol")),
    ("families", (
        "CSV_COLUMNS", "CensusRecord", "KitDivisors", "census", "census_csv",
        "census_json", "construction_kit", "generate_nef_types",
        "generate_non_nef_types")),
    ("lattice", (
        "C", "F", "K", "K_TILDE", "R", "S", "ZERO", "DivisorClass",
        "QuotientClass", "arithmetic_genus", "canonical_class", "intersect",
        "quotient_genus", "quotient_intersect")),
    ("nef", (
        "ContactDivisor", "LambdaSpec", "MinimizerReport", "NefReport",
        "closed_conditions", "decompose_type", "lambda_class",
        "lambda_dot_exceptional_closed", "linear_system_dims",
        "moduli_dimension", "n_for_type", "nef_check", "scan_box",
        "thresholds", "verify_minimizer_claim", "z_divisor")),
    ("verify", ("CriterionResult", "run_all")),
) for name in names}
_EXPORTS["format_divisor"] = ("expr", "format")
_EXPORTS["parse_divisor"] = ("expr", "parse")

__all__ = sorted(_EXPORTS)


def _lazy_submodule(name: str):
    fullname = f"{__name__}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(fullname, __path__)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], attr)
    globals()[name] = value     # later reads skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
