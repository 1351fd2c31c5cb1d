"""The metric double of a nilpotent Lie algebra along a quadratic cocycle.

Given a nilpotent algebra ``l`` with trivial orthogonal module ``a`` and a
quadratic cocycle (alpha, gamma), the double lives on ``l* + a + l`` with
basis ordered as (dual basis, module basis, original basis) and brackets

    [L1, L2] = gamma(L1, L2, .) + alpha(L1, L2) + [L1, L2]_l
    [L, Z]   = ad*(L)(Z)          with (ad*(L) Z)(L') = -Z([L, L'])
    [A, L]   = <A, alpha(L, .)>   (an element of l*)

and all brackets inside ``l* + a`` zero.  The inner product pairs ``l*``
with ``l`` dually and restricts to the module form on ``a``:

    <Z1 + A1 + L1, Z2 + A2 + L2> = <A1, A2>_a + Z1(L2) + Z2(L1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .exact_linalg import Matrix, Scalar, Signature, _combine, _Record, rank, signature_of
from .lie_core import (
    _EMPTY,
    ConsistencyError,
    LieAlgebra,
    is_nilpotent,
    lower_central_series,
    nilpotency_index,
    validate_jacobi,
)

if TYPE_CHECKING:
    from .quadratic_cohomology import QuadraticCocycle


class MetricLieAlgebra(_Record):
    """An immutable Lie algebra with an invariant nondegenerate symmetric form.

    ``provenance`` is the quadratic cocycle the algebra was built from as a
    double, if any.  The slot ``_signature``, not a field, keeps the signature
    that :func:`verify_metric` found; equality, hashing, repr and copies ignore it.
    """

    _fields = ("algebra", "gram", "provenance")
    __slots__ = (*_fields, "_signature")
    algebra: LieAlgebra
    gram: Matrix
    provenance: QuadraticCocycle | None

    def __init__(
        self, algebra: LieAlgebra, gram: Matrix, provenance: QuadraticCocycle | None = None
    ) -> None:
        _Record.__init__(self, algebra, gram, provenance)


class MetricCheck(NamedTuple):
    axiom: str
    ok: bool
    detail: str = ""


class MetricReport(NamedTuple):
    ok: bool
    checks: tuple[MetricCheck, ...]

    def failures(self) -> tuple[MetricCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def build_double(z: QuadraticCocycle) -> MetricLieAlgebra:
    """Assemble and fully validate the metric double of a quadratic cocycle.

    The sparse table follows the formulas in the module docstring, one pass over
    the stored entries of gamma, alpha and the rows of ``l``, with G alpha(X_i,
    X_j) one ``_combine`` per stored key of alpha.  Each entry is written once,
    from the one key that holds it, straight into the store in both
    orientations, so its rows are canonical and zero-free and go to
    ``LieAlgebra._of`` as they are; ``verify_metric`` then checks Jacobi.  The
    Gram form is stored as its 2n+m sparse rows, handed to the ``Matrix``
    constructor as they are; no dense row is filled.
    A non-nilpotent ``l`` raises :class:`~metriclie.lie_core.NotNilpotentError`;
    a result that fails its own re-check raises :class:`ConsistencyError`.
    """
    l, module = z.algebra, z.module
    nilpotency_index(l)  # raises NotNilpotentError
    n, m = l.dim, module.dim
    total = 2 * n + m
    a_off = n
    x_off = n + m

    rows: dict[int, dict[int, dict[int, Scalar]]] = {}

    def put(i: int, j: int, t: int, c: Scalar) -> None:  # [e_i, e_j]_t = c, [e_j, e_i]_t = -c
        rows.setdefault(i, {}).setdefault(j, {})[t] = c
        rows.setdefault(j, {}).setdefault(i, {})[t] = -c

    # the l* block of [X_i, X_j]: gamma(X_i, X_j, X_k) sigma^k, from the sorted key
    for (i, j, k), row in z.gamma.rows.items():
        c = row[0]
        put(x_off + i, x_off + j, k, c)
        put(x_off + i, x_off + k, j, -c)
        put(x_off + j, x_off + k, i, c)
    # the a block of [X_i, X_j] is alpha(X_i, X_j); [A_s, X_i] = <A_s, alpha(X_i, X_j)>
    # sigma^j, entry s of G alpha(X_i, X_j) (the module form is symmetric)
    module_rows = module.gram.nonzero_rows
    for (i, j), v in z.alpha.rows.items():
        for t, c in v.items():
            put(x_off + i, x_off + j, a_off + t, c)
        for s, x in _combine(v, module_rows.__getitem__).items():
            put(a_off + s, x_off + i, j, x)
            put(a_off + s, x_off + j, i, -x)
    # [sigma^t, X_i] = -ad*(X_i) sigma^t = [e_i, e_k]_t sigma^k; the l block of [X_i, X_k]
    for i in range(n):
        for k, p in l.row(i).items():
            for t, c in p.items():
                put(t, x_off + i, k, c)
                if i < k:
                    put(x_off + i, x_off + k, x_off + t, c)

    labels = tuple(
        ["%s*" % s for s in l.labels] + ["A%d" % (t + 1) for t in range(m)] + list(l.labels)
    )
    algebra = LieAlgebra._of(total, rows, labels)

    # Z(L) pairs sigma^i with X_i both ways; the module block is <A_s, A_t>
    gram_rows = [{x_off + i: 1} for i in range(n)]
    gram_rows += [{a_off + t: x for t, x in row.items()} for row in module_rows]
    gram_rows += [{i: 1} for i in range(n)]
    gram = Matrix(total, tuple(gram_rows))

    result = MetricLieAlgebra(algebra=algebra, gram=gram, provenance=z)
    report = verify_metric(result)
    if not report.ok:
        first = report.failures()[0]
        raise ConsistencyError("double construction failed %s: %s" % (first.axiom, first.detail))
    if not is_nilpotent(algebra):
        raise ConsistencyError("double of a nilpotent algebra must be nilpotent")
    return result


def verify_metric(g: MetricLieAlgebra) -> MetricReport:
    """Re-check every metric Lie algebra axiom from scratch.

    Covers symmetry and nondegeneracy of the form, the Jacobi identity, and
    invariance <[x, y], z> + <y, [x, z]> = 0 on basis triples.  A check that
    needs a symmetric (or square) form and cannot run fails as not checked.
    Each call eliminates the form once, and keeps its signature for :func:`fingerprint`.
    """
    checks: list[MetricCheck] = []
    n, gram = g.algebra.dim, g.gram
    skipped = "not checked: the form is not symmetric"
    square = gram.rows == n and gram.cols == n
    try:
        signature = signature_of(gram) if square else None
    except ValueError:  # signature_of's own check: the form is not symmetric
        signature = None
    sym_ok = signature is not None
    checks.append(MetricCheck("symmetric", sym_ok, "" if sym_ok else "form is not symmetric"))
    MetricLieAlgebra._signature.__set__(g, signature)  # past the refusing __setattr__
    nondeg_ok = not signature.null if sym_ok else square and rank(gram) == n
    nondeg_detail = "" if nondeg_ok else "form has a radical" if square else skipped
    checks.append(MetricCheck("nondegenerate", nondeg_ok, nondeg_detail))
    jac = validate_jacobi(g.algebra)
    jac_detail = "" if jac.ok else "fails at triple %s" % g.algebra.named(jac.triple)
    checks.append(MetricCheck("jacobi", jac.ok, jac_detail))
    inv_detail = _invariance_failure(g) if sym_ok else skipped
    inv_ok = not inv_detail
    checks.append(MetricCheck("invariance", inv_ok, inv_detail))
    ok = all(c.ok for c in checks)
    return MetricReport(ok=ok, checks=tuple(checks))


def _invariance_failure(g: MetricLieAlgebra) -> str:
    """The first basis triple (i, j, k), j <= k, where <[e_i, e_j], e_k> +
    <e_j, [e_i, e_k]> does not vanish, or "" when the form is invariant.

    The form must be symmetric, so invariance says phi(a, b, c) = <[e_a, e_b],
    e_c> is alternating.  It is antisymmetric in (a, b), and (12) and (23)
    generate S_3, so it is invariant iff each nonzero phi(a, b, c) = x, a < b,
    has phi(a, c, b) = -x and phi(b, c, a) = x, with phi(a, b, .) = G [e_a,
    e_b] summed once per stored pair.  Only a failing form has the triples
    (i, j, k), j <= k, with phi(i, j, k) or phi(i, k, j) nonzero scanned in order.
    """
    support = g.gram.nonzero_rows.__getitem__  # row t: {j: <e_j, e_t>}
    phi = {(a, b): _combine(p, support) for a, b, p in g.algebra._upper()}

    def at(a: int, b: int, c: int) -> Scalar:  # phi(a, b, c), from the stored pair
        return phi.get((a, b), _EMPTY).get(c, 0) if a < b else -phi.get((b, a), _EMPTY).get(c, 0)

    if all(at(a, c, b) == -x and at(b, c, a) == x
           for (a, b), row in phi.items() for c, x in row.items()):
        return ""
    for i, j, k in sorted({(i, min(j, c), max(j, c)) for (a, b), row in phi.items()
                           for c in row for i, j in ((a, b), (b, a))}):
        if at(i, j, k) + at(i, k, j):
            return "fails at triple %s" % g.algebra.named((i, j, k))
    raise ConsistencyError("the alternation pass and the ordered scan disagree")


class Fingerprint(NamedTuple):
    """Cheap isometry invariants used to separate catalog output."""

    dim: int
    signature: Signature
    series_dims: tuple[int, ...]
    center_dim: int
    center_signature: Signature
    derived_signature: Signature

    def as_tuple(self) -> tuple:
        """The fields as nested plain tuples."""
        return tuple(x.as_tuple() if type(x) is Signature else x for x in self)


def fingerprint(g: MetricLieAlgebra) -> Fingerprint:
    """Cheap isometry invariants of ``g``, which must pass :func:`verify_metric`
    (every caller in the package checks that first; G's signature is the one
    it kept, or is found here); a form with a null part raises ValueError.

    One form is restricted and eliminated besides G: G on l^2, B G B^T for
    the echelon rows B of l^2 that the series already holds, of signature
    (neg_2, pos_2, r).  The form being invariant and nondegenerate,
    <[x, y], c> = <x, [y, c]> makes the center z the orthogonal complement
    of l^2, so dim z = dim g - dim l^2, and rad z = z meet l^2 = rad l^2 has
    dimension r.  Then l^2/rad and z/rad are orthogonal and fill
    rad^perp/rad, whose signature is (neg - r, pos - r), so z has signature
    (neg - neg_2 - r, pos - pos_2 - r, r): no basis of z is solved for and
    no form is restricted to it.
    """
    gram = g.gram
    signature = getattr(g, "_signature", None) or signature_of(gram)
    if signature.null:
        raise ValueError("fingerprint needs a nondegenerate form")
    series = lower_central_series(g.algebra)
    derived = series[1] if len(series) > 1 else series[0]  # l^2; dim 0 has one term
    derived_signature = signature_of(derived.form(gram))
    r = derived_signature.null
    return Fingerprint(
        dim=g.algebra.dim,
        signature=signature,
        series_dims=tuple([s.dim for s in series]),
        center_dim=g.algebra.dim - derived.dim,
        center_signature=Signature(
            signature.neg - derived_signature.neg - r, signature.pos - derived_signature.pos - r, r
        ),
        derived_signature=derived_signature,
    )
