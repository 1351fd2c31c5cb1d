"""Finite dimensional Lie algebras over the rationals.

A Lie algebra stores its antisymmetric structure constants once, as sparse
rows: ``[e_i, e_j]`` as the ``{t: c}`` map of its nonzero coordinates, in
both orientations, and no dense view of them is kept; ``[e_i, w]`` is a sum
of those rows through ``_combine``.  There are two ways into the store: the
checked constructor reads a table from outside (files, literals, tests)
through ``_row_of``, and ``LieAlgebra._of`` takes a store that the package's
own kernels fill, as ``Cochain._of`` takes a cochain's rows.  The Jacobi
check, the series and the center touch only stored entries: the series of a
nilpotent Lie algebra brackets layers with a complement of l^2 only, and the
Jacobi check visits only the triples with a term that can be nonzero.  It runs
on construction, keeping its verdict; a flag skips it for broken test tables.

:class:`LieAlgebra` is immutable, so the lower central series and the
admissibility test's per-stage data (built by
:mod:`~metriclie.quadratic_cohomology`, the central filtration among them)
are computed at most once per instance and then reused.  The center is
computed on each call, as the center met with a subspace, as is each
admissibility stage; a double's fingerprint reads its invariants off l^2.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .exact_linalg import Scalar, Subspace, Vector, _axpy, _combine, _dense, _reduce, _row_of

_EMPTY: Mapping = MappingProxyType({})  # no stored bracket: an empty row, or no rows
_Bracket = Sequence[int | str | Fraction] | Mapping[int, int | str | Fraction]


class MathError(ValueError):
    """Well-formed input that fails a mathematical check."""


class JacobiError(MathError):
    """Raised when a structure constant table violates the Jacobi identity."""


class NotNilpotentError(MathError):
    """Raised by operations that are only defined for nilpotent algebras."""


class ConsistencyError(ValueError):
    """Raised when an exact re-check of a computed result fails.

    This signals an internal inconsistency, never malformed input.
    """


class JacobiReport(NamedTuple):
    """Outcome of a Jacobi check: either a pass or the first failing triple."""

    ok: bool
    triple: tuple[int, int, int] | None = None
    defect: Vector | None = None


class LieAlgebra:
    """A Lie algebra given by sparse antisymmetric structure constants.

    The one store: ``_rows[i]`` maps each ``j`` with a nonzero [e_i, e_j] to
    its sparse row ``{t: c}`` (c the nonzero e_t coordinate), in both
    orientations; the rows are shared, and nothing may modify them.  The
    constructor checks a table from outside: ``brackets[(i, j)]``, i < j, is
    a dense sequence of ``dim`` coordinates or a sparse map ``{t: c}``, read
    by ``_row_of``.  ``_of`` takes a store the kernels filled, unchecked
    (``build_double``, ``direct_sum``); ``row`` reads the rows back.  Instances
    are immutable, and storage grows with the brackets, not with ``dim``:
    only indices with a stored bracket have a row, and default labels are
    made on demand.  What is derived from the brackets alone is kept in a
    slot filled on first use: the series (``_series``), the Jacobi verdict
    (``_jacobi``) and the admissibility test's per-stage data (``_stages``,
    filled by ``quadratic_cohomology``).
    """

    __slots__ = ("_dim", "_labels", "_rows", "_hash", "_series", "_jacobi", "_stages")

    def __init__(
        self,
        dim: int,
        brackets: Mapping[tuple[int, int], _Bracket],
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        if dim < 0:
            raise ValueError("negative dimension")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("expected %d labels, got %d" % (dim, len(labels)))
        rows: dict[int, dict[int, dict[int, Scalar]]] = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError("bracket key (%d, %d) must satisfy 0 <= i < j < dim" % (i, j))
            row = _row_of(value, dim, "bracket value for (%d, %d)", i, j)
            if row:
                rows.setdefault(i, {})[j] = row
                rows.setdefault(j, {})[i] = {t: -c for t, c in row.items()}
        self._fill(dim, rows, labels)
        if validate:
            require_jacobi(self)

    @staticmethod
    def _of(dim: int, rows: dict, labels: tuple[str, ...] | None) -> LieAlgebra:
        """The algebra of a store the kernels filled, unchecked: each canonical
        nonzero entry written once in both orientations, no empty row."""
        l = LieAlgebra.__new__(LieAlgebra)
        l._fill(dim, rows, labels)
        return l

    def _fill(self, dim: int, rows: dict, labels: tuple[str, ...] | None) -> None:
        self._dim, self._rows, self._labels = dim, rows, labels
        self._hash = self._series = self._jacobi = self._stages = None  # none kept yet

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            return tuple(["X%d" % (i + 1) for i in range(self._dim)])
        return self._labels

    def _upper(self) -> Iterator[tuple[int, int, dict[int, Scalar]]]:
        """The stored brackets [e_i, e_j] with i < j, as ``(i, j, row)``."""
        return ((i, j, p) for i, row in self._rows.items() for j, p in row.items() if i < j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (self._dim, self.labels, self._rows) == (other._dim, other.labels, other._rows)

    def __hash__(self) -> int:
        if self._hash is None:
            upper = frozenset((i, j, frozenset(p.items())) for i, j, p in self._upper())
            self._hash = hash((self._dim, self.labels, upper))
        return self._hash

    def __repr__(self) -> str:
        return "LieAlgebra(dim=%d, brackets=%d)" % (self._dim, len(list(self._upper())))

    def named(self, indices: Sequence[int]) -> str:
        """Basis elements by label, as in ``(X1, X3, X4)``."""
        labels = self.labels
        return "(%s)" % ", ".join(labels[i] for i in indices)

    def row(self, i: int) -> Mapping[int, dict[int, Scalar]]:
        """The nonzero brackets [e_i, e_j] of e_i as sparse rows ``{t: c}``
        (c the e_t coordinate), keyed by j: a read-only view of shared rows."""
        return MappingProxyType(self._rows.get(i, _EMPTY))

    def ad_rows(
        self, indices: Iterable[int], ws: Sequence[Mapping[int, Scalar]]
    ) -> Iterator[dict[int, Scalar]]:
        """[e_i, w] for each i in ``indices``, then each sparse w ``{j: nonzero
        entry}`` in ``ws`` (only read), as fresh sparse rows, each summed over
        the stored brackets [e_i, e_j] on the support of w only."""
        for i in indices:
            row = self._rows.get(i, _EMPTY)
            for w in ws:
                yield _combine(w, row.get)


def abelian(dim: int, labels: Sequence[str] | None = None) -> LieAlgebra:
    return LieAlgebra(dim, {}, labels=labels)


def validate_jacobi(l: LieAlgebra) -> JacobiReport:
    """Check the Jacobi identity on basis triples i < j < k, in lexicographic order.

    Only triples with a term [e_a, [e_b, e_c]] that can be nonzero are
    visited: [e_b, e_c] is stored and e_a has a stored bracket with some e_t
    in its support.  The others have zero defect, so an abelian algebra, or
    a 2-step one, visits none.  The terms are summed over the stored entries
    into one sparse defect row.
    """
    n, stored = l.dim, l._rows
    triples = sorted(
        {
            (a, b, c) if a < b else (b, a, c) if a < c else (b, c, a)
            for b, c, p in l._upper()
            for t in p
            for a in stored.get(t, ())
            if a != b and a != c
        }
    )
    for outer in triples:
        i, j, k = outer
        # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
        defect: dict[int, Scalar] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            row_a = stored.get(a, _EMPTY)
            for t, x in stored.get(b, _EMPTY).get(c, _EMPTY).items():
                if t in row_a:
                    _axpy(defect, x, row_a[t], -1)
        if defect:
            l._jacobi = False
            return JacobiReport(ok=False, triple=outer, defect=_dense(defect, n))
    l._jacobi = True
    return JacobiReport(ok=True)


def require_jacobi(l: LieAlgebra) -> LieAlgebra:
    """``l`` itself if the Jacobi identity holds, else :class:`JacobiError`
    naming the first failing basis triple by label (never the defect)."""
    report = validate_jacobi(l)
    if not report.ok:
        raise JacobiError("Jacobi identity fails on %s" % l.named(report.triple))
    return l


def lower_central_series(l: LieAlgebra) -> tuple[Subspace, ...]:
    """Terms l^1 = l, l^2, ... of the lower central series (``series[k]`` is l^(k+1)).

    The terms end with the zero subspace for nilpotent algebras and with a
    repeated term when the series stabilizes at a nonzero ideal.  A nilpotent
    Lie algebra sums them from the layers V, [V, V], [V, [V, V]], ... of a
    complement V of l^2.  Computed on the first call, reused for ``l``'s life.
    """
    if l._series is None:
        l._series = _lower_central_series(l)
    return l._series


def _lower_central_series(l: LieAlgebra) -> tuple[Subspace, ...]:
    """The series summed from layers.  V is the e_v off the pivots of D = l^2
    (the span of the stored brackets), W_1 = span V, W_(j+1) = span [e_v, w]
    (v in V, w a row of W_j; so W_2 is spanned by stored rows, and is D when
    every stored bracket is among V) and T_k = W_k + T_(k+1): T_c = W_c is
    already reduced, and each layer below it is fed once to one running
    elimination.  By Jacobi, [W_a, W_b] lies in W_(a+b) (induction on a), so
    S = sum W_j is a subalgebra; if W_(c+1) = 0 for some c <= dim D + 1 and
    T_2 = D, S contains V + D = l, and l^k = S^k lies in T_k, which lies in
    l^k.  A nilpotent Lie algebra never declines, as V generates it
    (de Graaf 2000) and its class c is at most dim D + 1, since
    l^2 > ... > l^c > 0 in D.
    Others, as gl(2) (T_2 < D), [x1, x2] = y, [x1, y] = y (no layer vanishes)
    and tables that break Jacobi, take the direct loop over every e_i."""
    n, upper = l.dim, list(l._upper())
    derived = Subspace.of_rows(n, [dict(p) for _, _, p in upper])  # D
    gens = set(range(n)).difference([min(row) for row in derived.rows])  # V
    if l._jacobi or l._jacobi is None and validate_jacobi(l).ok:
        inner = [p for u, v, p in upper if u in gens and v in gens]
        # W_2 has D's input rows when every bracket is among V (2-step algebras)
        layers = [derived if len(inner) == len(upper) else
                  Subspace.of_rows(n, [dict(p) for p in inner])]
        while layers[-1].dim and len(layers) <= derived.dim:  # layers[j] is W_(j+2)
            layers.append(_bracket_span(l, gens, layers[-1]))
        # T_(c+1), then T_c = W_c, already reduced, then T_(c-1), ..., T_2: one
        # running elimination takes each layer into the pivot rows of the sum
        # above it, and each term keeps copies of the pivot rows, since the
        # layers below back-eliminate into them
        sums = [layers.pop()]
        if layers:
            sums.append(layers.pop())
        pivots = {min(w): dict(w) for w in sums[-1].rows}
        for layer in reversed(layers):
            reduced = _reduce([dict(w) for w in layer.rows], pivots)
            sums.append(Subspace(n, tuple([dict(w) for _, w in reduced])))
        if not sums[0].dim and sums[-1] == derived:
            return (Subspace.full(n), *reversed(sums)) if n else (derived,)
    everything, chain = set(range(n)), [Subspace.full(n)]
    while chain[-1].dim > 0:
        chain.append(_bracket_span(l, everything, chain[-1]))
        if chain[-1].dim == chain[-2].dim:
            break  # stabilized, not nilpotent
    return tuple(chain)


def _bracket_span(l: LieAlgebra, among: set[int], s: Subspace) -> Subspace:
    """The span of the [e_i, w], w a row of ``s``, over the i in ``among`` that
    meet w: the keys of ``_rows[j]``, j in the support of w; the rest vanish."""
    stored = l._rows
    meet = [(among.intersection([i for j in w for i in stored.get(j, ())]), w) for w in s.rows]
    return Subspace.of_rows(l.dim, [image for ids, w in meet for image in l.ad_rows(ids, (w,))])


def is_nilpotent(l: LieAlgebra) -> bool:
    return lower_central_series(l)[-1].dim == 0


def center(l: LieAlgebra) -> Subspace:
    """Kernel of the adjoint representation, canonicalized."""
    full = Subspace.full(l.dim)
    return _center_in(full, l.ad_rows(l._rows, full.rows))


def _center_in(s: Subspace, images: Iterable[dict[int, Scalar]]) -> Subspace:
    """The center met with ``s``, from the ``images`` [e_i, w_j] (j fastest) of
    its echelon rows w_j, e_i over indices that include all with a stored
    bracket: w = sum c_j w_j, c in the kernel of the rows (i, t) whose entry j
    is [e_i, w_j]_t.  Reduced echelon K times S is reduced echelon, kept as is."""
    ad: dict[tuple[int, int], dict[int, Scalar]] = {}
    for u, image in enumerate(images):
        for t, x in image.items():
            ad.setdefault((u // s.dim, t), {})[u % s.dim] = x
    kernel = Subspace.kernel(s.dim, ad.values())
    return Subspace(s.ambient_dim, tuple([_combine(c, s.rows.__getitem__) for c in kernel.rows]))


def nilpotency_index(l: LieAlgebra) -> int:
    """The minimal m with l^(m+2) = 0 (so m = 0 for abelian algebras): the one
    decision of nilpotency, raising :class:`NotNilpotentError` on any other l."""
    series = lower_central_series(l)
    if series[-1].dim:
        raise NotNilpotentError("algebra is not nilpotent")
    return len(series) - 2  # series[-1] = l^(m+2) = 0


def direct_sum(l1: LieAlgebra, l2: LieAlgebra) -> LieAlgebra:
    """Direct sum of Lie algebras; labels are prefixed to stay unique."""
    n1 = l1.dim
    rows = dict(l1._rows)  # l1's rows shared, l2's shifted by dim l1
    rows.update((i + n1, {j + n1: {t + n1: c for t, c in p.items()} for j, p in row.items()})
                for i, row in l2._rows.items())
    labels = tuple("1.%s" % s for s in l1.labels) + tuple("2.%s" % s for s in l2.labels)
    return LieAlgebra._of(n1 + l2.dim, rows, labels)
