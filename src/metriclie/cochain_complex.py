"""Alternating cochains on a Lie algebra with values in an orthogonal module.

The module is trivial, as the module of a quadratic extension of a nilpotent
metric Lie algebra always is (Kath-Olbrich): a vector space with a
nondegenerate symmetric form on which the algebra acts by zero.  Cochains
are sparse: only strictly increasing index tuples are stored, and only with
nonzero values.  The differential follows the convention

    (d w)(x_0, ..., x_p) = sum_{i<j} (-1)^(i+j) w([x_i, x_j], ..., ^i, ..., ^j, ...),

and the scalar pairing of two module valued cochains is the plain shuffle sum

    <c1 ^ c2>(x_1, ..., x_{p+q}) = sum_{(p,q)-shuffles s} sgn(s)
        <c1(x_{s(1)}, ..., x_{s(p)}), c2(x_{s(p+1)}, ..., x_{s(p+q)})>

with no factorial normalization.

The kernels visit stored entries only: the differential of ``c`` costs
O(stored keys x p x brackets per target), the wedge of ``c1`` and ``c2``
O(|c1| |c2| m) for values in an ``m``-dimensional module, and the pullback
of ``c`` one term per stored key and choice of stored entries of S on it
in distinct columns.
Every matrix-vector product is a sum of sparse rows through ``_combine``.
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
    _is_canon_vector,
    _reduce,
    rank,
    unit_vector,
    vec_add,
    vec_scale,
    vector,
)
from .lie_core import LieAlgebra, MathError


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
    of each stored value, and ``scalar`` marks forms with values in the ground
    field rather than in a module (relevant for serialization and pullbacks).
    Keys are strictly increasing tuples; zero values are never stored, and a
    value that is not a tuple of canonical scalars is converted to one.
    Cochains are immutable: ``values`` is a read-only mapping of its own
    (``None`` stands for no values), and a copy or an unpickled cochain gets
    a fresh one.
    """

    __slots__ = _fields = ("n", "degree", "value_dim", "scalar", "values")
    n: int
    degree: int
    value_dim: int
    scalar: bool
    values: Mapping[tuple[int, ...], Vector]

    def __init__(
        self,
        n: int,
        degree: int,
        value_dim: int,
        scalar: bool = False,
        values: Mapping[tuple[int, ...], Vector] | None = None,
    ) -> None:
        if degree < 0:
            raise ValueError("negative degree")
        if scalar and value_dim != 1:
            raise ValueError("scalar cochains carry single component values")
        clean: dict[tuple[int, ...], Vector] = {}
        for key, value in (values or {}).items():
            if len(key) != degree:
                raise ValueError("key %s has wrong length for degree %d" % (key, degree))
            if any(not (0 <= i < n) for i in key):
                raise ValueError("key %s out of range" % (key,))
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError("key %s is not strictly increasing" % (key,))
            if not _is_canon_vector(value):
                value = vector(value)
            if len(value) != value_dim:
                raise ValueError("value for %s has wrong length" % (key,))
            if any(value):
                clean[key] = value
        _Record.__init__(self, n, degree, value_dim, scalar, MappingProxyType(clean))

    def __reduce__(self) -> tuple:
        # a read-only mapping cannot be pickled; the constructor wraps a fresh one
        return Cochain, (self.n, self.degree, self.value_dim, self.scalar, dict(self.values))

    def __hash__(self) -> int:
        return hash(
            (self.n, self.degree, self.value_dim, self.scalar, frozenset(self.values.items()))
        )

    @staticmethod
    def zero(n: int, degree: int, value_dim: int, scalar: bool = False) -> "Cochain":
        return Cochain(n, degree, value_dim, scalar, {})

    def _compat(self, other: "Cochain") -> None:
        if (self.n, self.degree, self.value_dim, self.scalar) != (
            other.n,
            other.degree,
            other.value_dim,
            other.scalar,
        ):
            raise ValueError("cochain shape mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        values = dict(self.values)
        for key, v in other.values.items():
            values[key] = vec_add(values[key], v) if key in values else v
        return Cochain(self.n, self.degree, self.value_dim, self.scalar, values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "Cochain":
        c = _canon(c)
        if not c:
            return Cochain.zero(self.n, self.degree, self.value_dim, self.scalar)
        return Cochain(
            self.n,
            self.degree,
            self.value_dim,
            self.scalar,
            {k: vec_scale(c, v) for k, v in self.values.items()},
        )

    def is_zero(self) -> bool:
        return not self.values


def cochain_from_terms(
    n: int,
    degree: int,
    value_dim: int,
    terms: Iterable[tuple[Sequence[int], Sequence[int | str | Scalar]]],
    scalar: bool = False,
) -> Cochain:
    """Build a cochain from (indices, value) terms; indices may be unsorted and
    the values of terms on the same key add up.  A repeated index is an error."""
    values: dict[tuple[int, ...], Vector] = {}
    for indices, value in terms:
        sorted_sign = sort_with_sign(indices)
        if sorted_sign is None:
            raise ValueError("the term on %s has a repeated index" % (tuple(indices),))
        key, sign = sorted_sign
        v = vector(value)
        if sign == -1:
            v = vec_scale(-1, v)
        values[key] = vec_add(values[key], v) if key in values else v
    return Cochain(n, degree, value_dim, scalar, values)


def differential(l: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential with trivial coefficients.

    Runs over the stored keys of ``c``: a key with value ``v`` and a slot
    holding the target ``e_t`` feed ``+-w_t v`` into every key ``rest + {i, j}``
    for which ``w = [e_i, e_j]`` has a nonzero ``e_t`` component.
    """
    if c.n != l.dim:
        raise ValueError("cochain does not live on this algebra")
    return _differential(c, _bracket_targets(l) if c.values else {})


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
    output value is summed as a sparse row from its first term, and a key
    whose sum vanishes is dropped."""
    out_degree = c.degree + 1
    sums: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for key, value in c.values.items():
        v = {k: y for k, y in enumerate(value) if y}
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
    values = {key: _dense(sums[key], c.value_dim) for key in sorted(sums) if sums[key]}
    return Cochain(c.n, out_degree, c.value_dim, c.scalar, values)


def wedge_pair(module: OrthogonalModule, c1: Cochain, c2: Cochain) -> Cochain:
    """Scalar valued wedge of two module valued cochains via the module form.

    Runs over the pairs of stored keys with disjoint supports; each right
    value is multiplied by the form once.
    """
    if c1.n != c2.n:
        raise ValueError("cochains live on different algebras")
    if c1.value_dim != module.dim or c2.value_dim != module.dim:
        raise ValueError("cochain values do not match the module")
    n = c1.n
    out_degree = c1.degree + c2.degree
    if out_degree > n or not c1.values or not c2.values:
        return Cochain.zero(n, out_degree, 1, scalar=True)
    right = [(k2, _form_image(module, v)) for k2, v in c2.values.items()]
    sums: dict[tuple[int, ...], Scalar] = {}
    for k1, u in c1.values.items():
        for k2, gv in right:
            sorted_sign = sort_with_sign(k1 + k2)
            if sorted_sign is not None:
                _add_pairing(sums, *sorted_sign, u, gv)
    return Cochain(n, out_degree, 1, True, {key: (sums[key],) for key in sorted(sums)})


def _form_image(module: OrthogonalModule, v: Vector) -> dict[int, Scalar]:
    """G v as a sparse row: the sum of v_t times row t of the symmetric form G."""
    return _combine({t: y for t, y in enumerate(v) if y}, module.gram.nonzero_rows.__getitem__)


def _add_pairing(
    sums: dict, key: tuple[int, ...], sign: int, u: Vector, gv: dict[int, Scalar]
) -> None:
    """sums[key] += sign * sum of u_t (G v)_t over the sparse ``gv`` = G v, one
    nonzero product at a time; a key whose sum vanishes is dropped, so no
    addition has a zero operand.  The sums need not be canonical: the
    :class:`Cochain` made of them converts them."""
    for t, y in gv.items():
        x = u[t]
        if x:
            term = x * y if sign == 1 else -(x * y)
            total = sums[key] + term if key in sums else term
            if total:
                sums[key] = total
            else:
                del sums[key]


def _basis_enumeration(n: int, degree: int, value_dim: int) -> list[tuple[tuple[int, ...], int]]:
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
        unit = Cochain(l.dim, p, value_dim, module is None, {key: unit_vector(value_dim, t)})
        values = _differential(unit, hits).values
        yield {(out_key, s): x for out_key, v in values.items() for s, x in enumerate(v) if x}


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
    sums: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for key, value in c.values.items():
        v = {t: y for t, y in enumerate(value) if y}
        uv = v if c.scalar else _combine(v, u_columns.__getitem__)
        if not uv:
            continue
        for columns, f in _distinct_choices([s_rows[k] for k in key]):
            out, sign = sort_with_sign(columns)
            _axpy(sums.setdefault(out, {}), f if sign == 1 else -f, uv, -1)
    values = {key: _dense(sums[key], out_dim) for key in sorted(sums) if sums[key]}
    return Cochain(n1, c.degree, out_dim, c.scalar, values)


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
