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
alpha-image of the kernel of the bracket pairing.  What they need of ``l``
alone (the series terms, the coordinates of each [e_i, w_j] in l^(k+1) and
the kernel of the bracket pairing, from one pass over the tensor basis of
l (x) l^(k+1), and the stage, the center met with l^(k+1)) is built once
per ``LieAlgebra`` instance and kept on it; each test then adds alpha and
gamma, read from their stored rows ``{t: c}`` in one more pass through
``_combine``.  (A_k) is one kernel, (B_k) one running span of the images
that stops at dim a, and the form's rank on a smaller one.  Admissibility does not
make the double indecomposable; :func:`indecomposability_proxy` checks only
a necessary condition for that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .cochain_complex import (
    Cochain,
    OrthogonalModule,
    _add_pairing,
    _scalar_form,
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
    _Record,
    _reduce,
    solve,
)
from .lie_core import (
    ConsistencyError,
    LieAlgebra,
    MathError,
    _center_in,
    lower_central_series,
    nilpotency_index,
)

_HALF = Fraction(1, 2)


class CocycleError(MathError):
    """Raised when (alpha, gamma) fails the quadratic cocycle conditions."""


def half_wedge_square(module: OrthogonalModule, alpha: Cochain) -> Cochain:
    """(1/2) <alpha ^ alpha>.

    In even positive degree both orders of a pair of stored keys give the same
    term and no key pairs with itself, so each unordered pair of keys is
    visited once, and sorted only when their supports are disjoint.
    """
    p, m = alpha.degree, module.dim
    if p % 2 or not p or 2 * p > alpha.n or alpha.value_dim != m:
        return wedge_pair(module, alpha, alpha).scale(_HALF)
    stored = [(key, frozenset(key), u) for key, u in alpha.rows.items()]
    gram = module.gram.nonzero_rows.__getitem__  # also its columns: the form is symmetric
    sums: dict[tuple[int, ...], Scalar] = {}
    for a, (k1, s1, u) in enumerate(stored):
        gu = _combine(u, gram)
        for k2, s2, v in stored[a + 1 :]:
            if s1.isdisjoint(s2):
                _add_pairing(sums, *sort_with_sign(k1 + k2), v, gu)
    return _scalar_form(alpha.n, 2 * p, sums)


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
        return ("d_alpha", min(d_alpha.rows))
    residual = differential(l, gamma) - half_wedge_square(module, alpha)
    if not residual.is_zero():
        return ("gamma_equation", min(residual.rows))
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
    tensor basis) whose alpha-images are independent and span the degenerate
    image: the first such tensors in kernel order, so at most dim a of them.
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


class _Stage(NamedTuple):
    """What stage k of the admissibility test reads from ``l`` alone.

    ``columns[s]`` is {u: -b_u[s]} over the stage's echelon rows b_u;
    ``z_rows[i * d1 + j]`` the coordinates {t: -c} of -[e_i, w_j] != 0 in the
    echelon rows w of l^(k+1), d1 = its dimension; ``kernel`` the kernel of the
    pairing l (x) l^(k+1) -> l on those indices.  All are shared: none may change.
    """

    stage: Subspace
    series_term: Subspace
    columns: dict[int, dict[int, Scalar]]
    z_rows: dict[int, dict[int, Scalar]]
    kernel: tuple[dict[int, Scalar], ...]


def _stages(l: LieAlgebra) -> tuple[_Stage, ...]:
    """The algebra's half of the admissibility test for each stage k = 0..m
    of the central filtration, built on the first call and kept on ``l``:
    one pass over the tensor basis e_i (x) w_j of l (x) l^(k+1) sums each
    [e_i, w_j] once, for its coordinates, for the bracket pairing and for
    the stage l_(k), the center met with l^(k+1), from ``lie_core``.

    A non-nilpotent algebra raises NotNilpotentError from
    :func:`nilpotency_index`, and a bracket outside its series term raises
    ConsistencyError; neither is kept, so every call raises it again.
    """
    if l._stages is None:
        n, series, stages = l.dim, lower_central_series(l), []
        for k in range(nilpotency_index(l) + 1):
            series_term = series[k]  # l^(k+1)
            d1 = series_term.dim
            z_rows: dict[int, dict[int, Scalar]] = {}
            # row t of the pairing: entry i * d1 + j is the e_t component of [e_i, w_j]
            pairing: dict[int, dict[int, Scalar]] = {}
            images = list(l.ad_rows(range(n), series_term.rows))
            for u, image in enumerate(images):
                if image:
                    coords = series_term.coords(image)
                    if coords is None:
                        raise ConsistencyError("bracket left the series term, series data corrupt")
                    z_rows[u] = {t: -y for t, y in coords.items()}
                    for t, x in image.items():
                        pairing.setdefault(t, {})[u] = x
            kernel = solve(pairing.values(), range(n * d1))[1]
            stage = _center_in(series_term, images)
            columns: dict[int, dict[int, Scalar]] = {}
            for u, b in enumerate(stage.rows):
                for s, x in b.items():
                    columns.setdefault(s, {})[u] = -x
            stages.append(_Stage(stage, series_term, columns, z_rows, tuple(kernel)))
        l._stages = tuple(stages)
    return l._stages


def _stage_report(
    z: QuadraticCocycle,
    k: int,
    half: _Stage,
    alpha_at: dict[int, dict[int, dict[int, Scalar]]],
    gamma_at: dict[int, dict[int, dict[int, Scalar]]],
) -> ConditionKReport:
    """(A_k) and (B_k) from the algebra's half of stage k, reading alpha(e_i,
    w_j) once per tensor e_i (x) w_j of l (x) l^(k+1); every contraction is a
    sum of sparse rows through :func:`_combine`, and each condition one elimination.

    (A_k): any L0 in the stage admitting compatible (A0, Z0) must be zero.
    The constraints are linear in (L0, A0, Z0) jointly, so the condition
    amounts to the kernel of one sparse system (columns: L0 over the stage
    basis, then A0, then Z0) projecting to zero on the L0 block.

    (B_k): alpha maps the kernel of the bracket pairing l (x) l^(k+1) -> l
    onto a nondegenerate subspace of the module.  One elimination takes the
    kernel tensors' images in order up to rank dim a; those that raised the
    rank are the witness.
    """
    l, module = z.algebra, z.module
    stage, series_term, columns, z_rows, kernel = half
    n, m = l.dim, module.dim
    d0, d1 = stage.dim, series_term.dim
    z_off = d0 + m
    gram_rows = module.gram.nonzero_rows  # also its columns: the form is symmetric
    a_rows: list[dict[int, Scalar]] = []
    alpha_on_tensor: list[dict[int, Scalar]] = []
    for i in range(n):
        alpha_i, gamma_i = alpha_at.get(i, {}), gamma_at.get(i, {})
        # alpha(e_i, L0) = 0, one row per module coordinate
        alpha_on_stage = [_combine(b, alpha_i.get) for b in stage.rows]
        a_rows += ({u: a[t] for u, a in enumerate(alpha_on_stage) if t in a} for t in range(m))
        # gamma(e_i, L0, w) + <A0, alpha(e_i, w)> - Z0([e_i, w]) = 0, entry u of
        # the first term gamma(e_i, b_u, w) = -gamma(e_i, w, b_u) from the columns
        for j, w in enumerate(series_term.rows):
            alpha_iw = _combine(w, alpha_i.get)
            alpha_on_tensor.append(alpha_iw)
            row = _combine(_combine(w, gamma_i.get), columns.get)
            row.update((d0 + t, y) for t, y in _combine(alpha_iw, gram_rows.__getitem__).items())
            if i * d1 + j in z_rows:
                row.update((z_off + t, y) for t, y in z_rows[i * d1 + j].items())
            a_rows.append(row)
    unknowns = z_off + d1
    v = next((v for v in solve(a_rows, range(unknowns))[1] if min(v) < d0), None)
    a_witness = None
    if v is not None:
        l0 = _combine({u: x for u, x in v.items() if u < d0}, stage.rows.__getitem__)
        head = _dense(v, unknowns)
        a_witness = (_dense(l0, n), head[d0:z_off], head[z_off:])
    pivots: dict[int, dict[int, Scalar]] = {}
    raised: list[int] = []  # the kernel tensors whose image raised the rank

    def images():  # each image is reduced before the next is drawn
        for u, vec in enumerate(kernel):
            if (rank := len(pivots)) == m:
                return
            yield _combine(vec, alpha_on_tensor.__getitem__)
            if len(pivots) > rank:
                raised.append(u)

    image = Subspace(m, tuple([row for _, row in _reduce(images(), pivots)]))
    # the whole module is nondegenerate: OrthogonalModule refuses a degenerate form
    b_passed = image.dim == m or image.is_nondegenerate(module.gram)
    b_witness = None if b_passed else tuple(  # each as its n x d1 coefficient matrix
        tuple(tuple(kernel[u].get(i * d1 + j, 0) for j in range(d1)) for i in range(n))
        for u in raised
    )
    return ConditionKReport(k, a_witness is None, b_passed, image.dim, a_witness, b_witness)


def check_admissible(z: QuadraticCocycle) -> AdmissibilityReport:
    """Run (A_k) and (B_k) for every stage k = 0..m of the central filtration.

    What depends on the algebra alone is built once per ``LieAlgebra``
    instance (:func:`_stages`); each call adds alpha and gamma.  A
    non-nilpotent algebra raises NotNilpotentError from the filtration.
    """
    stages = _stages(z.algebra)
    # alpha(e_i, e_s) as the sparse row alpha_at[i][s] (a stored row is shared), both ways
    alpha_at: dict[int, dict[int, dict[int, Scalar]]] = {}
    for (a, b), v in z.alpha.rows.items():
        alpha_at.setdefault(a, {})[b] = v
        alpha_at.setdefault(b, {})[a] = {t: -x for t, x in v.items()}
    # gamma(e_i, e_s, e_t) as gamma_at[i][s][t], each stored key in its six orientations
    gamma_at: dict[int, dict[int, dict[int, Scalar]]] = {}
    for (a, b, c), row in z.gamma.rows.items():
        v = row[0]
        for i, s, t, y in ((a, b, c, v), (b, c, a, v), (c, a, b, v),
                           (a, c, b, -v), (b, a, c, -v), (c, b, a, -v)):
            gamma_at.setdefault(i, {}).setdefault(s, {})[t] = y
    conditions = tuple(
        _stage_report(z, k, half, alpha_at, gamma_at) for k, half in enumerate(stages)
    )
    return AdmissibilityReport(
        overall=all(c.a_passed and c.b_passed for c in conditions), conditions=conditions
    )


def indecomposability_proxy(z: QuadraticCocycle) -> bool:
    """Necessary condition for indecomposability: the values of alpha span
    the whole module."""
    values = [dict(v) for v in z.alpha.rows.values()]  # of_rows consumes its rows
    return Subspace.of_rows(z.module.dim, values).dim == z.module.dim
