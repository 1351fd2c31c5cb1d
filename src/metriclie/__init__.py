"""Exact tools for quadratic extensions of nilpotent Lie algebras.

The package builds metric Lie algebras from a nilpotent algebra, an
orthogonal coefficient module and a quadratic cocycle, tests the cocycle
for admissibility, and ships a classified catalog of such data in low
dimensions together with a JSON command line front end.  All arithmetic
is exact over the rationals.
"""

from .cochain_complex import (
    Cochain,
    Isomap,
    OrthogonalModule,
    cochain_from_terms,
    cohomology_dim,
    differential,
    differential_matrix,
    pullback,
    wedge_pair,
)
from .double_construction import (
    Fingerprint,
    MetricLieAlgebra,
    MetricReport,
    build_double,
    fingerprint,
    verify_metric,
)
from .exact_linalg import Matrix, Signature, scalar, signature_of
from .lie_core import (
    JacobiError,
    LieAlgebra,
    MathError,
    NotNilpotentError,
    Subspace,
    abelian,
    center,
    direct_sum,
    is_nilpotent,
    lower_central_series,
    nilpotency_index,
    validate_jacobi,
)
from .quadratic_cohomology import (
    AdmissibilityReport,
    CocycleError,
    ConsistencyError,
    QuadraticCochain,
    QuadraticCocycle,
    act,
    check_admissible,
    cq_compose,
    cq_identity,
    cq_inverse,
    indecomposability_proxy,
    zero_cocycle,
)

__version__ = "0.1.0"

_CATALOG_NAMES = frozenset((
    "ENTRIES", "CatalogEntry", "CatalogReport", "default_samples", "entry_by_id", "instantiate",
    "run_catalog",
))


def __getattr__(name: str):
    """The catalog names, importing the catalog on first use only (PEP 562)."""
    if name in _CATALOG_NAMES:
        from . import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissibilityReport",
    "CatalogEntry",
    "CatalogReport",
    "Cochain",
    "CocycleError",
    "ConsistencyError",
    "ENTRIES",
    "Fingerprint",
    "Isomap",
    "JacobiError",
    "LieAlgebra",
    "MathError",
    "Matrix",
    "MetricLieAlgebra",
    "MetricReport",
    "NotNilpotentError",
    "OrthogonalModule",
    "QuadraticCochain",
    "QuadraticCocycle",
    "Signature",
    "Subspace",
    "abelian",
    "act",
    "build_double",
    "center",
    "check_admissible",
    "cochain_from_terms",
    "cohomology_dim",
    "cq_compose",
    "cq_identity",
    "cq_inverse",
    "default_samples",
    "differential",
    "differential_matrix",
    "direct_sum",
    "entry_by_id",
    "fingerprint",
    "indecomposability_proxy",
    "instantiate",
    "is_nilpotent",
    "lower_central_series",
    "nilpotency_index",
    "pullback",
    "run_catalog",
    "scalar",
    "signature_of",
    "validate_jacobi",
    "verify_metric",
    "wedge_pair",
    "zero_cocycle",
]
