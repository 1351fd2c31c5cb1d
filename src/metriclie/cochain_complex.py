"""Alternating cochains on a Lie algebra with values in an orthogonal module.

The module is trivial, as the module of a quadratic extension of a nilpotent
metric Lie algebra always is (Kath-Olbrich): a vector space with a
nondegenerate symmetric form on which the algebra acts by zero.  Cochains
are sparse: only strictly increasing index tuples are stored, and only with
nonzero values, each value as the package's one sparse row ``{t: c}``.  The
differential follows the convention

    (d w)(x_0, ..., x_p) = sum_{i<j} (-1)^(i+j) w([x_i, x_j], ..., ^i, ..., ^j, ...),

and the scalar pairing of two module valued cochains is the plain shuffle sum

    <c1 ^ c2>(x_1, ..., x_{p+q}) = sum_{(p,q)-shuffles s} sgn(s)
        <c1(x_{s(1)}, ..., x_{s(p)}), c2(x_{s(p+1)}, ..., x_{s(p+q)})>

with no factorial normalization.

The kernels visit stored entries only: the differential of ``c`` costs
O(stored keys x p x brackets per target), the wedge of ``c1`` and ``c2``
O(|c1| |c2|) pairings of stored rows, and the pullback of ``c`` one term per
stored key and choice of stored entries of S on it in distinct columns.
They read and write the stored rows: every sum of rows is an ``_axpy``, and
every matrix-vector product a sum of sparse rows through ``_combine``.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exact_linalg import (
    Matrix,
    Scalar,
    Vector,
    _Record,
    _axpy,
    _canon,
    _combine,
    _dense,
    _reduce,
    _row_of,
    rank,
)
from .lie_core import LieAlgebra, MathError

_Row = dict[int, Scalar]
_Value = Sequence[int | str | Scalar] | Mapping[int, int | str | Scalar]


class OrthogonalModule(_Record):
    """A vector space with a nondegenerate symmetric form; any other form
    raises :class:`~metriclie.lie_core.MathError`."""

    __slots__ = _fields = ("gram",)
    gram: Matrix

    def __init__(self, gram: Matrix) -> None:
        if not gram.is_symmetric():
            raise MathError("module form must be symmetric")
        if rank(gram) != gram.rows:
            raise MathError("module form must be nondegenerate")
        _Record.__init__(self, gram)

    @property
    def dim(self) -> int:
        return self.gram.rows


def sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort an index tuple, returning the permutation sign, or None on a repeat."""
    idx = list(indices)
    sign = 1
    # insertion sort; tuples here have length <= 6
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


class Cochain(_Record):
    """A sparse alternating form with vector values.

    ``n`` is the dimension of the underlying algebra, ``value_dim`` the length
    of each value, and ``scalar`` marks forms with values in the ground field
    rather than in a module (relevant for serialization and pullbacks).
    The one store: ``rows[key]`` is the value on a strictly increasing key
    as a sparse row ``{t: c}`` of canonical nonzero scalars (shared, only
    read); a key with a zero value is not stored.  The constructor takes
    each value as a dense sequence of ``value_dim`` scalars or as a sparse
    map ``{t: c}`` and converts it through :func:`_row_of`.  ``values`` is
    a dense view that no module of the package reads; the files are written
    from ``rows``.  Cochains are immutable: ``rows`` is a read-only mapping
    of its own, and a copy or an unpickled cochain gets a fresh one.
    """

    __slots__ = _fields = ("n", "degree", "value_dim", "scalar", "rows")
    n: int
    degree: int
    value_dim: int
    scalar: bool
    rows: Mapping[tuple[int, ...], _Row]

    def __init__(self, n: int, degree: int, value_dim: int, scalar: bool = False,
                 values: Mapping[tuple[int, ...], _Value] | None = None) -> None:
        if degree < 0:
            raise ValueError("negative degree")
        if scalar and value_dim != 1:
            raise ValueError("scalar cochains carry single component values")
        rows: dict[tuple[int, ...], _Row] = {}
        for key, value in (values or {}).items():
            row = _stored_row(key, value, n, degree, value_dim)
            if row:
                rows[key] = row
        _Record.__init__(self, n, degree, value_dim, scalar, MappingProxyType(rows))

    @staticmethod
    def _of(n: int, degree: int, value_dim: int, scalar: bool, rows: dict) -> "Cochain":
        """The cochain of ``rows`` as given, unchecked: the kernels sum
        canonical rows without zeros with ``_axpy``, on valid keys."""
        c = Cochain.__new__(Cochain)
        _Record.__init__(c, n, degree, value_dim, scalar, MappingProxyType(rows))
        return c

    def __reduce__(self) -> tuple:
        # a read-only mapping cannot be pickled; the constructor wraps a fresh one
        return Cochain, (self.n, self.degree, self.value_dim, self.scalar, dict(self.rows))

    def __hash__(self) -> int:
        rows = frozenset([(key, frozenset(row.items())) for key, row in self.rows.items()])
        return hash((self.n, self.degree, self.value_dim, self.scalar, rows))

    @property
    def values(self) -> Mapping[tuple[int, ...], Vector]:
        """Each stored value as a dense tuple of ``value_dim`` scalars (a read-only view)."""
        dim = self.value_dim
        return MappingProxyType({key: _dense(row, dim) for key, row in self.rows.items()})

    @staticmethod
    def zero(n: int, degree: int, value_dim: int, scalar: bool = False) -> "Cochain":
        return Cochain(n, degree, value_dim, scalar, {})

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.n, self.degree, self.value_dim, self.scalar) != (
                other.n, other.degree, other.value_dim, other.scalar):
            raise ValueError("cochain shape mismatch")
        return self._summed([(key, 1, row) for c in (self, other) for key, row in c.rows.items()])

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "Cochain":
        c = _canon(c)
        return self._summed([(key, c, row) for key, row in self.rows.items()] if c else [])

    def _summed(self, terms: Iterable[tuple[tuple[int, ...], Scalar, _Row]]) -> "Cochain":
        """The cochain of this shape whose value on each key is the sum of
        f * row over the ``terms`` (key, nonzero f, row) on it; a key whose sum
        vanishes is dropped, and the keys keep the order they first appear in."""
        rows: dict[tuple[int, ...], _Row] = {}
        for key, f, row in terms:
            _axpy(rows.setdefault(key, {}), f, row, -1)
        rows = {key: row for key, row in rows.items() if row}
        return Cochain._of(self.n, self.degree, self.value_dim, self.scalar, rows)

    def is_zero(self) -> bool:
        return not self.rows


def _stored_row(key: tuple[int, ...], value: _Value, n: int, degree: int, value_dim: int) -> _Row:
    """The row stored for ``value`` on ``key``, checked against the shape:
    the key here, the value by :func:`_row_of`."""
    if len(key) != degree:
        raise ValueError("key %s has wrong length for degree %d" % (key, degree))
    if any(not (0 <= i < n) for i in key):
        raise ValueError("key %s out of range" % (key,))
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError("key %s is not strictly increasing" % (key,))
    return _row_of(value, value_dim, "value for %s", key)


def cochain_from_terms(n: int, degree: int, value_dim: int,
                       terms: Iterable[tuple[Sequence[int], _Value]],
                       scalar: bool = False) -> Cochain:
    """Build a cochain from (indices, value) terms, each value dense or sparse
    as in :class:`Cochain`; indices may be unsorted and the values of terms
    on the same key add up.  A repeated index is an error."""
    summands: list[tuple[tuple[int, ...], Scalar, _Row]] = []
    for indices, value in terms:
        sorted_sign = sort_with_sign(indices)
        if sorted_sign is None:
            raise ValueError("the term on %s has a repeated index" % (tuple(indices),))
        key, sign = sorted_sign
        summands.append((key, sign, _stored_row(key, value, n, degree, value_dim)))
    return Cochain.zero(n, degree, value_dim, scalar)._summed(summands)


def differential(l: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential with trivial coefficients.

    Runs over the stored keys of ``c``: a key with value ``v`` and a slot
    holding the target ``e_t`` feed ``+-w_t v`` into every key ``rest + {i, j}``
    for which ``w = [e_i, e_j]`` has a nonzero ``e_t`` component.
    """
    if c.n != l.dim:
        raise ValueError("cochain does not live on this algebra")
    return _differential(c, _bracket_targets(l) if c.rows else {})


def _bracket_targets(l: LieAlgebra) -> dict[int, list[tuple[int, int, Scalar]]]:
    """For each e_t, the stored brackets [e_i, e_j] (i < j) with a nonzero
    e_t component x, as ``(i, j, x)``."""
    hits: dict[int, list[tuple[int, int, Scalar]]] = {}
    for i, j, p in l._upper():
        for t, x in p.items():
            hits.setdefault(t, []).append((i, j, x))
    return hits


def _differential(c: Cochain, hits: dict[int, list[tuple[int, int, Scalar]]]) -> Cochain:
    """d c, given the :func:`_bracket_targets` of the algebra of ``c``.  Each
    output row is summed from its first term, and a key whose sum vanishes
    is dropped."""
    sums: dict[tuple[int, ...], _Row] = {}
    for key, v in c.rows.items():
        for s, t in enumerate(key):
            rest = key[:s] + key[s + 1 :]
            for i, j, x in hits.get(t, ()):
                if i in rest or j in rest:
                    continue
                # c(e_t, e_rest...) = (-1)^s v, and i, j land in slots a, b + 1
                a, b = bisect(rest, i), bisect(rest, j)
                coeff = -x if (s + a + b + 1) % 2 else x
                out = rest[:a] + (i,) + rest[a:b] + (j,) + rest[b:]
                _axpy(sums.setdefault(out, {}), coeff, v, -1)
    rows = {key: sums[key] for key in sorted(sums) if sums[key]}
    return Cochain._of(c.n, c.degree + 1, c.value_dim, c.scalar, rows)


def wedge_pair(module: OrthogonalModule, c1: Cochain, c2: Cochain) -> Cochain:
    """Scalar valued wedge of two module valued cochains via the module form.

    Runs over the pairs of stored keys with disjoint supports; each right
    row is multiplied by the form once.
    """
    if c1.n != c2.n:
        raise ValueError("cochains live on different algebras")
    if c1.value_dim != module.dim or c2.value_dim != module.dim:
        raise ValueError("cochain values do not match the module")
    n = c1.n
    out_degree = c1.degree + c2.degree
    if out_degree > n or not c1.rows or not c2.rows:
        return Cochain.zero(n, out_degree, 1, scalar=True)
    gram = module.gram.nonzero_rows.__getitem__  # also its columns: the form is symmetric
    right = [(k2, _combine(v, gram)) for k2, v in c2.rows.items()]
    sums: dict[tuple[int, ...], Scalar] = {}
    for k1, u in c1.rows.items():
        for k2, gv in right:
            sorted_sign = sort_with_sign(k1 + k2)
            if sorted_sign is not None:
                _add_pairing(sums, *sorted_sign, u, gv)
    return _scalar_form(n, out_degree, sums)


def _add_pairing(sums: dict, key: tuple[int, ...], sign: int, u: _Row, gv: _Row) -> None:
    """sums[key] += sign * sum of u_t (G v)_t over the stored entries of the
    sparse ``u`` and ``gv`` = G v, one nonzero product at a time; a key whose
    sum vanishes is dropped, so no addition has a zero operand.  The sums
    need not be canonical: :func:`_scalar_form` converts them."""
    for t, x in u.items():
        y = gv.get(t)
        if y is not None:
            term = x * y if sign == 1 else -(x * y)
            total = sums[key] + term if key in sums else term
            if total:
                sums[key] = total
            else:
                del sums[key]


def _scalar_form(n: int, degree: int, sums: dict[tuple[int, ...], Scalar]) -> Cochain:
    """The scalar cochain with the nonzero values ``sums``, made canonical, on sorted keys."""
    return Cochain._of(n, degree, 1, True, {key: {0: _canon(sums[key])} for key in sorted(sums)})


def _basis_enumeration(n: int, degree: int, value_dim: int) -> list[tuple[tuple[int, ...], int]]:
    if not value_dim:
        return []  # C^p(l, 0) = 0: no index tuple is walked
    # combinations() copies its pool of n indices even for the one key of degree 0
    keys = combinations(range(n), degree) if degree else [()]
    return [(key, t) for key in keys for t in range(value_dim)]


def _differential_columns(
    l: LieAlgebra, module: OrthogonalModule | None, p: int
) -> Iterator[dict[tuple[tuple[int, ...], int], Scalar]]:
    """d_p of each standard basis cochain of C^p, in order, as a sparse column
    keyed by the basis cochains ``(key, s)`` of C^(p+1)."""
    value_dim = 1 if module is None else module.dim
    hits = _bracket_targets(l)
    for key, t in _basis_enumeration(l.dim, p, value_dim):
        unit = Cochain._of(l.dim, p, value_dim, module is None, {key: {t: 1}})
        rows = _differential(unit, hits).rows
        yield {(out_key, s): x for out_key, row in rows.items() for s, x in row.items()}


def differential_matrix(l: LieAlgebra, module: OrthogonalModule | None, p: int) -> Matrix:
    """Matrix of d: C^p -> C^(p+1) over the standard sparse bases."""
    if p < 0:
        raise ValueError("negative degree")
    value_dim = 1 if module is None else module.dim
    width = comb(l.dim, p) * value_dim
    if p >= l.dim:
        return Matrix.zero(0, width)  # C^(p+1) = 0; nothing enumerated
    index = {bk: r for r, bk in enumerate(_basis_enumeration(l.dim, p + 1, value_dim))}
    rows: list[dict[int, Scalar]] = [{} for _ in index]
    for c, column in enumerate(_differential_columns(l, module, p)):
        for bk, x in column.items():
            rows[index[bk]][c] = x
    return Matrix(width, tuple(rows))


def cohomology_dim(l: LieAlgebra, module: OrthogonalModule | None, p: int) -> int:
    """dim H^p(l, module) = dim ker d_p - rank d_(p-1), each rank taken on the
    sparse columns of d as rows (rank d = rank d^T), without a matrix of d."""
    if p < 0:
        raise ValueError("negative degree")
    if p > l.dim:
        return 0  # C^p = 0; answered before any p-tuple is enumerated
    value_dim = 1 if module is None else module.dim
    dim_cp = comb(l.dim, p) * value_dim
    rank_dp = len(_reduce(_differential_columns(l, module, p)))
    rank_prev = len(_reduce(_differential_columns(l, module, p - 1))) if p > 0 else 0
    return dim_cp - rank_dp - rank_prev


class Isomap(NamedTuple):
    """A pair (S, U): S maps the source algebra into the target algebra and U
    maps target module values back to source module values."""

    s: Matrix
    u: Matrix | None = None


def is_lie_homomorphism(s: Matrix, source: LieAlgebra, target: LieAlgebra) -> bool:
    """Whether S [e_i, e_j]_source = [S e_i, S e_j]_target on all basis pairs
    i < j.  S e_i is row i of S^T, and both sides are sums of sparse rows:
    [S e_i, S e_j] is the sum of S_ai [e_a, S e_j] over the entries of S e_i."""
    if s.rows != target.dim or s.cols != source.dim:
        raise ValueError("homomorphism matrix has wrong shape")
    images = s.transpose().nonzero_rows
    for i in range(source.dim):
        row_i = source.row(i)
        for j in range(i + 1, source.dim):
            lhs = _combine(row_i.get(j, {}), images.__getitem__)
            rhs = _combine(images[i], lambda a: _combine(images[j], target.row(a).get))
            if lhs != rhs:
                return False
    return True


def is_isometry(u: Matrix, source_gram: Matrix, target_gram: Matrix) -> bool:
    """Whether U^T G_source U = G_target (U maps target values to source)."""
    if u.rows != source_gram.rows or u.cols != target_gram.rows:
        raise ValueError("isometry matrix has wrong shape")
    return (u.transpose() @ source_gram @ u) == target_gram


def pullback(iso: Isomap, c: Cochain) -> Cochain:
    """((S, U)* c)(x_1, ..., x_p) = U(c(S x_1, ..., S x_p)).

    For scalar cochains U is ignored; for module valued cochains it is
    required.  Each stored key (k_1, ..., k_p) of ``c`` with value v is
    expanded through the rows k_r of S: every choice of nonzero S[k_r, j_r]
    with distinct j_r adds sign * prod S[k_r, j_r] * (U v) to the sorted key
    of (j_1, ..., j_p); a choice with a repeated j would add nothing, and
    :func:`_distinct_choices` builds none.
    """
    if c.n != iso.s.rows:
        raise ValueError("cochain does not live on the target algebra")
    n1 = iso.s.cols
    if c.scalar:
        out_dim = 1
    else:
        if iso.u is None:
            raise ValueError("module valued pullback needs a value map")
        if iso.u.cols != c.value_dim:
            raise ValueError("value map does not match the cochain values")
        out_dim = iso.u.rows
        u_columns = iso.u.transpose().nonzero_rows
    s_rows = iso.s.nonzero_rows
    sums: dict[tuple[int, ...], _Row] = {}
    for key, v in c.rows.items():
        uv = v if c.scalar else _combine(v, u_columns.__getitem__)
        if not uv:
            continue
        for columns, f in _distinct_choices([s_rows[k] for k in key]):
            out, sign = sort_with_sign(columns)
            _axpy(sums.setdefault(out, {}), f if sign == 1 else -f, uv, -1)
    rows = {key: sums[key] for key in sorted(sums) if sums[key]}
    return Cochain._of(n1, c.degree, out_dim, c.scalar, rows)


def _distinct_choices(rows: list[dict[int, Scalar]]) -> list[tuple[list[int], Scalar]]:
    """Every choice of one stored entry x_r at column j_r from each sparse row
    in ``rows``, with no column chosen twice, as ``([j_1, ..., j_p], prod x_r)``
    in lexicographic order.  A partial choice is extended only by columns it
    has not taken, so no choice with a repeated column is ever built."""
    choices: list[tuple[list[int], Scalar]] = [([], 1)]
    for row in rows:
        choices = [
            (cols + [j], f * x) for cols, f in choices for j, x in row.items() if j not in cols
        ]
    return choices
