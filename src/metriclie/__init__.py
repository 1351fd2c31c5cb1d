"""Exact tools for quadratic extensions of nilpotent Lie algebras.

The package builds metric Lie algebras from a nilpotent algebra, an
orthogonal coefficient module and a quadratic cocycle, tests the cocycle
for admissibility, and ships a classified catalog of such data in low
dimensions together with a JSON command line front end.  All arithmetic
is exact over the rationals.

``import metriclie`` loads no submodule.  Each public name below is read
from the module that defines it, which is imported on the first lookup
(PEP 562); the name is then kept here, so later lookups are plain.  The
modules of the table resolve by name too (``metriclie.lie_core``).
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "catalog": (
        "ENTRIES", "CatalogEntry", "CatalogReport", "default_samples", "entry_by_id",
        "instantiate", "run_catalog",
    ),
    "cochain_complex": (
        "Cochain", "Isomap", "OrthogonalModule", "cochain_from_terms", "cohomology_dim",
        "differential", "differential_matrix", "pullback", "wedge_pair",
    ),
    "double_construction": (
        "Fingerprint", "MetricLieAlgebra", "MetricReport", "assemble_double", "build_double",
        "check_double", "fingerprint", "verify_metric",
    ),
    "exact_linalg": ("Matrix", "Signature", "Subspace", "scalar", "signature_of"),
    "lie_core": (
        "ConsistencyError", "JacobiError", "LieAlgebra", "MathError", "NotNilpotentError",
        "abelian", "center", "direct_sum", "is_nilpotent", "lower_central_series",
        "nilpotency_index", "validate_jacobi",
    ),
    "quadratic_cohomology": (
        "AdmissibilityReport", "CocycleError", "QuadraticCochain", "QuadraticCocycle", "act",
        "check_admissible", "cq_compose", "cq_identity", "cq_inverse",
        "indecomposability_proxy", "zero_cocycle",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A module of the table, or a public name read from its module."""
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *_HOME})
