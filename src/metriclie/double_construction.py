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

from typing import NamedTuple

from .exact_linalg import Matrix, Scalar, Signature, _combine, _Record, rank, signature_of
from .lie_core import (
    LieAlgebra,
    center,
    is_nilpotent,
    lower_central_series,
    nilpotency_index,
    validate_jacobi,
)
from .quadratic_cohomology import ConsistencyError, QuadraticCocycle


class MetricLieAlgebra(_Record):
    """An immutable Lie algebra with an invariant nondegenerate symmetric form.

    ``provenance`` is the quadratic cocycle the algebra was built from as a
    double, if any.
    """

    __slots__ = _fields = ("algebra", "gram", "provenance")
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

    The sparse table is filled in one pass over the stored entries of gamma,
    alpha, the module form and the rows of ``l``, following the formulas in
    the module docstring.  The Gram form is stored as its 2n+m sparse rows,
    handed to the constructor as they are; no dense row is filled.
    A non-nilpotent ``l`` raises :class:`~metriclie.lie_core.NotNilpotentError`;
    a result that fails its own re-check raises :class:`ConsistencyError`.
    """
    l, module = z.algebra, z.module
    nilpotency_index(l)  # raises NotNilpotentError
    n, m = l.dim, module.dim
    total = 2 * n + m
    a_off = n
    x_off = n + m

    table: dict[tuple[int, int], dict[int, Scalar]] = {}

    def add(i: int, j: int, t: int, c: Scalar) -> None:
        """Add c e_t to [e_i, e_j], i < j."""
        if c:
            row = table.setdefault((i, j), {})
            row[t] = row[t] + c if t in row else c

    # [X_i, X_j] picks up gamma(X_i, X_j, X_k) sigma^k for each ordering of a key
    for (i, j, k), (c,) in z.gamma.values.items():
        add(x_off + i, x_off + j, k, c)
        add(x_off + i, x_off + k, j, -c)
        add(x_off + j, x_off + k, i, c)
    # [X_i, X_j] picks up alpha(X_i, X_j); [A_s, X_i] = <A_s, alpha(X_i, X_j)> sigma^j,
    # summed over the nonzero <A_s, A_t> of row t (the module form is symmetric)
    module_rows = module.gram.nonzero_rows
    for (i, j), v in z.alpha.values.items():
        for t, c in enumerate(v):
            if c:
                add(x_off + i, x_off + j, a_off + t, c)
                for s, x in module_rows[t].items():
                    add(a_off + s, x_off + i, j, x * c)
                    add(a_off + s, x_off + j, i, -x * c)
    # [X_i, X_k] = [e_i, e_k]_l; [sigma^t, X_i] = -ad*(X_i) sigma^t = [e_i, e_k]_t sigma^k
    for i in range(n):
        for k, p in l.row(i).items():
            for t, c in p.items():
                if i < k:
                    add(x_off + i, x_off + k, x_off + t, c)
                add(t, x_off + i, k, c)

    labels = tuple(
        ["%s*" % s for s in l.labels] + ["A%d" % (t + 1) for t in range(m)] + list(l.labels)
    )
    algebra = LieAlgebra(total, table, labels=labels, validate=False)

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
    """
    checks: list[MetricCheck] = []
    n = g.algebra.dim
    skipped = "not checked: the form is not symmetric"
    square = g.gram.rows == n and g.gram.cols == n
    sym_ok = square and g.gram.is_symmetric()
    checks.append(MetricCheck("symmetric", sym_ok, "" if sym_ok else "form is not symmetric"))
    nondeg_ok = square and rank(g.gram) == n
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

    The form must be symmetric; only the stored brackets of each e_i and the
    nonzero form entries are multiplied; a failing pair has a stored term.
    """
    n = g.algebra.dim
    support = g.gram.nonzero_rows  # {j: <e_j, e_t>} per t
    for i in range(n):
        # pairing[k][j] = <e_j, [e_i, e_k]>, so <[e_i, e_j], e_k> = pairing[j][k]
        pairing = {k: _combine(p, support.__getitem__) for k, p in g.algebra.row(i).items()}
        for j, k in sorted({(min(j, k), max(j, k)) for k, p in pairing.items() for j in p}):
            if pairing.get(k, {}).get(j, 0) + pairing.get(j, {}).get(k, 0) != 0:
                return "fails at triple %s" % g.algebra.named((i, j, k))
    return ""


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
    series = lower_central_series(g.algebra)
    z = center(g.algebra)
    derived = series[1] if len(series) > 1 else z  # l^2; fallback unused for dim > 0
    return Fingerprint(
        dim=g.algebra.dim,
        signature=signature_of(g.gram),
        series_dims=tuple([s.dim for s in series]),
        center_dim=z.dim,
        center_signature=signature_of(z.form(g.gram)),
        derived_signature=signature_of(derived.form(g.gram)),
    )
