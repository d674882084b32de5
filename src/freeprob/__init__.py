"""Exact computations with moments, free cumulants and the non-crossing
partition lattice, plus Fock-space realizations of the associated
processes.  Word tables and transforms work on graded integers, one
integer array per word level over one denominator, and hand out their
values as Fraction; lattice sums and PSD certificates are exact as well.
Floating point appears only in the Fock module, whose operators keep
float one-particle data and act on float state vectors level by level
(a dense matrix is built only on request), and in the fitted decay
exponents of convergence reports, which are diagnostics.

Only the exceptions are imported with the package.  Every other public
name is imported from its layer on first use (PEP 562) and then kept as
a plain attribute, so a program pays only for the layers it touches.
"""

import importlib

from .errors import (
    CapacityError,
    DomainError,
    FreeprobError,
    ParseError,
    StructuralError,
    ValidationError,
)

__version__ = "0.1.0"

# the layer each lazily imported public name lives in, in __all__ order
_LAYERS = {
    "partitions": (
        "NcPartition",
        "catalan_number",
        "enumerate_nc",
        "full",
        "interval",
        "is_noncrossing",
        "join",
        "leq",
        "meet",
        "mobius",
        "singletons",
    ),
    "functionals": (
        "CumulantFunctional",
        "MomentFunctional",
        "as_scalar",
        "block_cumulant_product",
        "block_moment_product",
        "cumulant_mobius_sum",
        "cumulants_to_moments",
        "moment_lattice_sum",
        "moments_to_cumulants",
    ),
    "freeness": ("FreenessReport", "check_freeness", "free_product"),
    "models": (
        "CovarianceMatrix",
        "PoissonSpec",
        "bernoulli",
        "compound_free_poisson",
        "compound_free_poisson_cumulants",
        "free_poisson",
        "projection_family",
        "projection_functional",
        "sandwich_cumulants",
        "semicircle",
        "semicircle_family",
    ),
    "limits": (
        "ConvergenceReport",
        "PoissonApproximation",
        "array_cumulants",
        "compound_limit_check",
        "dilate",
        "free_sum_moments",
        "multi_poisson_limit_check",
        "poisson_approximation",
        "poisson_limit_check",
        "sequence_limit_check",
    ),
    "infdiv": (
        "GramMatrix",
        "InfdivVerdict",
        "check_infdiv",
        "gram_matrix",
        "is_psd",
        "kappa_functional_checks",
        "monomial_basis",
        "psd_certificate",
    ),
    "fock": (
        "FockModel",
        "FockOperator",
        "LevyReport",
        "PolySpace",
        "TimeComponent",
        "build_fock_model",
        "build_poly_space",
        "verify_levy_axioms",
    ),
    "dsl": ("Session", "evaluate", "parse", "pretty", "run_source"),
    "jsonio": (
        "functional_from_dict",
        "functional_to_dict",
        "read_functional",
        "write_functional",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [
    "CapacityError",
    "DomainError",
    "FreeprobError",
    "ParseError",
    "StructuralError",
    "ValidationError",
    *_HOME,
]


def __getattr__(name):
    # read from the layer at first use, never from a table built here, so
    # a function rebound in its layer before then is the one handed out
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
