"""Quadratic cocycles (alpha, gamma) and the admissibility test.

A quadratic cocycle on a Lie algebra ``l`` with values in an orthogonal
module ``a`` is a pair of a module valued 2-form ``alpha`` and a scalar
3-form ``gamma`` with

    d alpha = 0   and   d gamma = 1/2 <alpha ^ alpha>.

Pairs (tau, sigma) of a module valued 1-form and a scalar 2-form act on
cocycles from the right; the cochain pairs form a group under

    (tau1, sigma1) * (tau2, sigma2)
        = (tau1 + tau2, sigma1 + sigma2 + 1/2 <tau1 ^ tau2>).

Admissibility is Kath-Olbrich's condition on the data that their
classification scheme uses.  It checks, for every stage k of the central
filtration, a linear condition (A_k) ruling out central directions that
alpha and gamma cannot see, and a nondegeneracy condition (B_k) on the
alpha-image of the kernel of the bracket pairing.  Both are read off one
pass over the tensor basis of l (x) l^(k+1) per stage, and both kernels
come from the sparse elimination.  Admissibility does not make the double
indecomposable; :func:`indecomposability_proxy` checks only a necessary
condition for that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cochain_complex import (
    Cochain,
    OrthogonalModule,
    _add_pairing,
    _form_image,
    differential,
    sort_with_sign,
    wedge_pair,
)
from .exact_linalg import (
    Scalar,
    Subspace,
    Vector,
    _combine,
    _dense,
    _kernel,
    _Record,
    _reduce,
    _sum,
)
from .lie_core import LieAlgebra, MathError, filtration_spaces, lower_central_series

_HALF = Fraction(1, 2)


class CocycleError(MathError):
    """Raised when (alpha, gamma) fails the quadratic cocycle conditions."""


class ConsistencyError(ValueError):
    """Raised when an exact re-check of a computed result fails.

    This signals an internal inconsistency, never malformed input.
    """


def half_wedge_square(module: OrthogonalModule, alpha: Cochain) -> Cochain:
    """(1/2) <alpha ^ alpha>.

    In even positive degree both orders of a pair of stored keys give the same
    term and no key pairs with itself, so each unordered pair of keys is
    visited once, and sorted only when their supports are disjoint.
    """
    p, m = alpha.degree, module.dim
    if p % 2 or not p or 2 * p > alpha.n or alpha.value_dim != m:
        return wedge_pair(module, alpha, alpha).scale(_HALF)
    stored = [(key, frozenset(key), u) for key, u in alpha.values.items()]
    sums: dict[tuple[int, ...], Scalar] = {}
    for a, (k1, s1, u) in enumerate(stored):
        gu = _form_image(module, u)
        for k2, s2, v in stored[a + 1 :]:
            if s1.isdisjoint(s2):
                _add_pairing(sums, *sort_with_sign(k1 + k2), v, gu)
    return Cochain(alpha.n, 2 * p, 1, True, {key: (sums[key],) for key in sorted(sums)})


def cocycle_defect(
    l: LieAlgebra, module: OrthogonalModule, alpha: Cochain, gamma: Cochain
) -> tuple[str, tuple[int, ...]] | None:
    """The first failing cocycle condition, or None when both hold.

    Returns ``("d_alpha", key)`` for a nonzero component of d alpha and
    ``("gamma_equation", key)`` for a 4-tuple where d gamma and the half
    wedge square disagree.
    """
    d_alpha = differential(l, alpha)
    if not d_alpha.is_zero():
        return ("d_alpha", min(d_alpha.values))
    residual = differential(l, gamma) - half_wedge_square(module, alpha)
    if not residual.is_zero():
        return ("gamma_equation", min(residual.values))
    return None


class QuadraticCochain(_Record):
    """A pair (tau, sigma): module valued 1-form and scalar 2-form."""

    __slots__ = _fields = ("algebra", "module", "tau", "sigma")
    algebra: LieAlgebra
    module: OrthogonalModule
    tau: Cochain
    sigma: Cochain

    def __init__(
        self, algebra: LieAlgebra, module: OrthogonalModule, tau: Cochain, sigma: Cochain
    ) -> None:
        n, m = algebra.dim, module.dim
        if (tau.n, tau.degree, tau.value_dim, tau.scalar) != (n, 1, m, False):
            raise ValueError("tau must be a module valued 1-form on the algebra")
        if (sigma.n, sigma.degree, sigma.scalar) != (n, 2, True):
            raise ValueError("sigma must be a scalar 2-form on the algebra")
        _Record.__init__(self, algebra, module, tau, sigma)


class QuadraticCocycle(_Record):
    """A validated quadratic cocycle (alpha, gamma)."""

    __slots__ = _fields = ("algebra", "module", "alpha", "gamma")
    algebra: LieAlgebra
    module: OrthogonalModule
    alpha: Cochain
    gamma: Cochain

    def __init__(
        self, algebra: LieAlgebra, module: OrthogonalModule, alpha: Cochain, gamma: Cochain
    ) -> None:
        n, m = algebra.dim, module.dim
        if (alpha.n, alpha.degree, alpha.value_dim, alpha.scalar) != (n, 2, m, False):
            raise ValueError("alpha must be a module valued 2-form on the algebra")
        if (gamma.n, gamma.degree, gamma.scalar) != (n, 3, True):
            raise ValueError("gamma must be a scalar 3-form on the algebra")
        defect = cocycle_defect(algebra, module, alpha, gamma)
        if defect is not None:
            kind, key = defect
            raise CocycleError("%s fails at basis tuple %s" % (kind, algebra.named(key)))
        _Record.__init__(self, algebra, module, alpha, gamma)


def zero_cocycle(l: LieAlgebra, module: OrthogonalModule) -> QuadraticCocycle:
    return QuadraticCocycle(
        l,
        module,
        Cochain.zero(l.dim, 2, module.dim),
        Cochain.zero(l.dim, 3, 1, scalar=True),
    )


def cq_identity(l: LieAlgebra, module: OrthogonalModule) -> QuadraticCochain:
    return QuadraticCochain(
        l,
        module,
        Cochain.zero(l.dim, 1, module.dim),
        Cochain.zero(l.dim, 2, 1, scalar=True),
    )


def cq_compose(c1: QuadraticCochain, c2: QuadraticCochain) -> QuadraticCochain:
    if c1.algebra != c2.algebra or c1.module != c2.module:
        raise ValueError("cochains live over different data")
    cross = wedge_pair(c1.module, c1.tau, c2.tau).scale(_HALF)
    return QuadraticCochain(
        c1.algebra, c1.module, c1.tau + c2.tau, c1.sigma + c2.sigma + cross
    )


def cq_inverse(c: QuadraticCochain) -> QuadraticCochain:
    """(-tau, -sigma): the cross term 1/2 <tau ^ -tau> of the product vanishes,
    since <tau ^ tau>(x, y) = <tau x, tau y> - <tau y, tau x> = 0 for a 1-form
    tau and a symmetric form."""
    return QuadraticCochain(c.algebra, c.module, c.tau.scale(-1), c.sigma.scale(-1))


def act(z: QuadraticCocycle, c: QuadraticCochain) -> QuadraticCocycle:
    """A quadratic cochain acting on a quadratic cocycle from the right.

    The result is validated on construction; a validation failure here would
    indicate an internal sign inconsistency, not bad input.
    """
    if z.algebra != c.algebra or z.module != c.module:
        raise ValueError("cocycle and cochain live over different data")
    d_tau = differential(z.algebra, c.tau)
    alpha = z.alpha + d_tau
    mixed = wedge_pair(z.module, z.alpha + d_tau.scale(_HALF), c.tau)
    gamma = z.gamma + differential(z.algebra, c.sigma) + mixed
    return QuadraticCocycle(z.algebra, z.module, alpha, gamma)


def verify_equivalence_witness(
    z1: QuadraticCocycle, z2: QuadraticCocycle, c: QuadraticCochain
) -> bool:
    """Whether acting on z1 by c lands exactly on z2."""
    moved = act(z1, c)
    return moved.alpha == z2.alpha and moved.gamma == z2.gamma


class ConditionKReport(NamedTuple):
    """Verdicts for one filtration stage k.

    ``a_witness`` carries (L0, A0, Z0) for a failing (A_k): a nonzero central
    direction L0 together with compatible module and functional parts (Z0 is
    given by its values on the echelon basis of the (k+1)-st series term).
    ``b_witness`` lists kernel tensors (as coefficient matrices over the
    tensor basis) whose alpha-image spans a degenerate subspace.
    """

    k: int
    a_passed: bool
    b_passed: bool
    b_image_dim: int
    a_witness: tuple[Vector, Vector, Vector] | None = None
    b_witness: tuple[tuple[Vector, ...], ...] | None = None


class AdmissibilityReport(NamedTuple):
    overall: bool
    conditions: tuple[ConditionKReport, ...]

    def condition(self, k: int) -> ConditionKReport:
        return self.conditions[k]


def _stage_report(
    z: QuadraticCocycle,
    k: int,
    stage: Subspace,
    series_term: Subspace,
    alpha_at: dict[int, dict[int, dict[int, Scalar]]],
    gamma_at: dict[int, dict[int, dict[int, Scalar]]],
) -> ConditionKReport:
    """(A_k) and (B_k) in one pass over the tensor basis e_i (x) w_j of
    l (x) l^(k+1), reading [e_i, w_j] and alpha(e_i, w_j) once each; every
    contraction is a sum of sparse rows through :func:`_combine`.

    (A_k): any L0 in the stage admitting compatible (A0, Z0) must be zero.
    The constraints are linear in (L0, A0, Z0) jointly, so the condition
    amounts to the kernel of one sparse system (columns: L0 over the stage
    basis, then A0, then Z0) projecting to zero on the L0 block.

    (B_k): alpha maps the kernel of the bracket pairing l (x) l^(k+1) -> l
    onto a nondegenerate subspace of the module.
    """
    l, module = z.algebra, z.module
    n, m = l.dim, module.dim
    d0, d1 = stage.dim, series_term.dim
    gram_rows = module.gram.nonzero_rows  # also its columns: the form is symmetric
    a_rows: list[dict[int, Scalar]] = []
    # row t of the pairing: entry i * d1 + j is the e_t component of [e_i, w_j]
    pairing: dict[int, dict[int, Scalar]] = {}
    alpha_on_tensor: list[dict[int, Scalar]] = []
    for i in range(n):
        alpha_i, gamma_i = alpha_at.get(i, {}), gamma_at.get(i, {})
        # alpha(e_i, L0) = 0, one row per module coordinate
        alpha_on_stage = [_combine(b, alpha_i.get) for b in stage.rows]
        a_rows += ({u: a[t] for u, a in enumerate(alpha_on_stage) if t in a} for t in range(m))
        # gamma(e_i, b_u, .) for the stage rows b_u with a nonzero one
        gamma_stage = [(u, gb) for u, gb in enumerate(_combine(b, gamma_i.get) for b in stage.rows)
                       if gb]
        # gamma(e_i, L0, w) + <A0, alpha(e_i, w)> - Z0([e_i, w]) = 0
        images = l.ad_rows((i,), series_term.rows)
        for j, (w, image) in enumerate(zip(series_term.rows, images)):
            alpha_iw = _combine(w, alpha_i.get)
            alpha_on_tensor.append(alpha_iw)
            gamma_iw = ((u, _sum([x * gb[t] for t, x in w.items() if t in gb]))
                        for u, gb in gamma_stage)
            row = {u: y for u, y in gamma_iw if y}
            row.update((d0 + t, y) for t, y in _combine(alpha_iw, gram_rows.__getitem__).items())
            if image:
                coords = series_term.coords(image)
                if coords is None:
                    raise ConsistencyError("bracket left the series term, series data corrupt")
                row.update((d0 + m + t, -y) for t, y in enumerate(coords) if y)
                for t, x in image.items():
                    pairing.setdefault(t, {})[i * d1 + j] = x
            a_rows.append(row)
    unknowns = d0 + m + d1
    a_kernel = _kernel(_reduce(a_rows), unknowns)
    v = next((v for v in a_kernel if min(v) < d0), None)
    a_witness = None
    if v is not None:
        l0 = _combine({u: x for u, x in v.items() if u < d0}, stage.rows.__getitem__)
        head = _dense(v, unknowns)
        a_witness = (_dense(l0, n), head[d0 : d0 + m], head[d0 + m :])
    kernel = _kernel(_reduce(pairing.values()), n * d1)
    image = Subspace.of_rows(m, [_combine(vec, alpha_on_tensor.__getitem__) for vec in kernel])
    b_passed = image.is_nondegenerate(module.gram)
    b_witness = None
    if not b_passed:  # each kernel tensor as its n x d1 coefficient matrix
        b_witness = tuple(
            tuple(tuple(vec.get(i * d1 + j, 0) for j in range(d1)) for i in range(n))
            for vec in kernel
        )
    return ConditionKReport(k, a_witness is None, b_passed, image.dim, a_witness, b_witness)


def check_admissible(z: QuadraticCocycle) -> AdmissibilityReport:
    """Run (A_k) and (B_k) for every stage k = 0..m of the central filtration.

    A non-nilpotent algebra raises NotNilpotentError from the filtration.
    """
    stages, series = filtration_spaces(z.algebra), lower_central_series(z.algebra)
    # alpha(e_i, e_s) as the sparse row alpha_at[i][s], each stored key both ways
    alpha_at: dict[int, dict[int, dict[int, Scalar]]] = {}
    for (a, b), v in z.alpha.values.items():
        alpha_at.setdefault(a, {})[b] = {t: x for t, x in enumerate(v) if x}
        alpha_at.setdefault(b, {})[a] = {t: -x for t, x in enumerate(v) if x}
    # gamma(e_i, e_s, e_t) as gamma_at[i][s][t], each stored key in its six orientations
    gamma_at: dict[int, dict[int, dict[int, Scalar]]] = {}
    for (a, b, c), (v,) in z.gamma.values.items():
        for i, s, t, y in ((a, b, c, v), (b, c, a, v), (c, a, b, v),
                           (a, c, b, -v), (b, a, c, -v), (c, b, a, -v)):
            gamma_at.setdefault(i, {}).setdefault(s, {})[t] = y
    conditions = tuple(
        _stage_report(z, k, stage, series[k], alpha_at, gamma_at)  # series[k] = l^(k+1)
        for k, stage in enumerate(stages)
    )
    return AdmissibilityReport(
        overall=all(c.a_passed and c.b_passed for c in conditions), conditions=conditions
    )


def indecomposability_proxy(z: QuadraticCocycle) -> bool:
    """Necessary condition for indecomposability: the values of alpha span
    the whole module."""
    values = [{t: x for t, x in enumerate(v) if x} for v in z.alpha.values.values()]
    return Subspace.of_rows(z.module.dim, values).dim == z.module.dim
