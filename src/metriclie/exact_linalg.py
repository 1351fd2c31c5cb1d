"""Exact rational linear algebra primitives.

A scalar is stored canonically: an ``int`` when integral, else a
:class:`fractions.Fraction` with denominator > 1 (see :func:`_canon`; every
division is :func:`_quo`).  The entries here are almost all small integers,
and an int product costs a hundredth of a Fraction one; equal values compare
and hash equal in either type.  Vectors are tuples of scalars.  The one sparse row
format is the ``{column: nonzero entry}`` map: a matrix stores its rows so,
and its dense rows are a derived view.  :func:`_combine` is the one
contraction: every sum c_k * row_k of sparse rows outside the eliminations,
a matrix times a vector and the matrix product among them, goes through it;
every restricted form is B G B^T through that product, and
every elimination runs over copies of the sparse rows, eliminating a new
pivot only from the pivot rows that can hold its column.  Row reduction
returns the reduced row echelon form, which is unique for a given row space,
so ranks, kernels, solution sets and the echelon rows of each
:class:`Subspace` do not depend on the order in which rows are eliminated
and are reproducible bit for bit.  The pivot order does not matter for
signatures either: inertia is additive over Schur complements (Haynsworth
1968), so every sequence of nonzero pivots counts the same signature.  No
floating point appears anywhere in this package.

Hot-path tuples are built from lists, never from generators.  A tuple built
from a generator gets its size by a resize, which bypasses CPython's tuple
free lists, but is freed into them (up to 2,000 per size below 20); only a
full collection empties them, so code that triggers none piles up megabytes.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

Scalar = int | Fraction  # canonical: an int when integral, else denominator > 1
Vector = tuple[Scalar, ...]


def _canon(x: int | str | Fraction) -> Scalar:
    """``x`` as a canonical scalar; a ``p/q`` string or a float is read exactly."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _is_canon_vector(v: object) -> bool:
    """Whether ``v`` is a tuple of canonical scalars."""
    return type(v) is tuple and all(
        [type(x) is int or type(x) is Fraction and x.denominator > 1 for x in v])


def _quo(x: Scalar, y: Scalar) -> Scalar:
    """The exact quotient x / y as a canonical scalar.  It is the one division
    in the package: a bare ``/`` of two ints gives a float."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _canon(x / y)


def _sum(terms: list[Scalar]) -> Scalar:
    """The canonical sum of ``terms``, started at the first one (0 for none)."""
    return _canon(sum(terms[1:], terms[0])) if terms else 0


def scalar(value: int | str | Fraction) -> Scalar:
    """Coerce an int, a ``p/q`` string or a Fraction to a canonical scalar."""
    return _canon(value)


def vector(values: Iterable[int | str | Fraction]) -> Vector:
    return tuple([_canon(v) for v in values])


def zero_vector(n: int) -> Vector:
    return (0,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple([1 if k == i else 0 for k in range(n)])


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch: %d vs %d" % (len(u), len(v)))
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Vector) -> Vector:
    c = _canon(c)
    return tuple([c * a for a in v])


class _Record:
    """Base of the package's immutable records, plain ``__slots__`` classes.

    A subclass names its constructor arguments, in order, in ``_fields``,
    each stored in a slot of the same name.  :meth:`__init__` writes each
    slot once through its descriptor (``_setters``), past the refusing
    ``__setattr__``; a validating subclass ends its ``__init__`` by calling
    it.  Records compare, hash and print by class and the values of
    ``_compared_fields`` (``_fields`` unless the class names fewer), read by
    one ``operator.attrgetter``, ``_compared``; a record whose fields hold
    dicts defines ``__hash__`` itself.  These generic forms cost more than
    hand-written slot access (a ``Matrix`` is built in 0.78 µs against 0.45
    and compared in 0.40 against 0.18), but with hand-written records no
    record's construction or comparison took over 1.2% of any benchmark
    workload's self time under cProfile.  A copy or an unpickled record is
    built again by the constructor from ``_fields``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared_fields: tuple[str, ...]
    _compared: Callable[["_Record"], object]
    _setters: tuple[Callable[["_Record", object], None], ...]

    def __init_subclass__(cls) -> None:
        if "_compared_fields" not in cls.__dict__:
            cls._compared_fields = cls._fields
        cls._compared = attrgetter(*cls._compared_fields)
        cls._setters = tuple([getattr(cls, f).__set__ for f in cls._fields])

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._setters):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(self._setters), len(values)))
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(["%s=%r" % (f, getattr(self, f)) for f in self._compared_fields])
        return "%s(%s)" % (type(self).__name__, fields)

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, f) for f in self._fields])


class Matrix(_Record):
    """Immutable matrix with exact rational entries, stored as its sparse rows.

    ``nonzero_rows`` holds each row as ``{column: nonzero scalar}`` (shared,
    only read); ``rows`` is their number.  The constructor keeps the maps as
    given, so none may hold a zero, a non-canonical scalar or a column outside
    ``0..cols-1``: equal matrices then store equal maps.  ``from_rows``
    coerces dense rows.
    """

    __slots__ = _fields = ("cols", "nonzero_rows")
    cols: int
    nonzero_rows: tuple[dict[int, Scalar], ...]

    def __init__(self, cols: int, nonzero_rows: tuple[dict[int, Scalar], ...]) -> None:
        if cols < 0:
            raise ValueError("negative matrix dimensions")
        _Record.__init__(self, cols, nonzero_rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]], cols: int | None = None) -> "Matrix":
        """The matrix of dense rows, each entry made canonical; zeros are not stored."""
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else cols if cols is not None else 0
        if cols is not None and cols != width:
            raise ValueError("row width %d does not match cols=%d" % (width, cols))
        sparse = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows in matrix literal")
            dense = [_canon(x) for x in r]
            sparse.append({j: x for j, x in enumerate(dense) if x})
        return Matrix(width, tuple(sparse))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.diagonal([1] * n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        if rows < 0:
            raise ValueError("negative matrix dimensions")
        return Matrix(cols, tuple([{} for _ in range(rows)]))

    @staticmethod
    def diagonal(values: Sequence[int | str | Fraction]) -> "Matrix":
        vals = [_canon(v) for v in values]
        return Matrix(len(vals), tuple([{i: x} if x else {} for i, x in enumerate(vals)]))

    def __hash__(self) -> int:
        # the rows are dicts; Subspace shares this hash of (width, sparse rows)
        n, rows = self._compared(self)
        return hash((n, tuple([frozenset(row.items()) for row in rows])))

    @property
    def rows(self) -> int:
        return len(self.nonzero_rows)

    def row(self, i: int) -> Vector:
        return _dense(self.nonzero_rows[i], self.cols)

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        out: list[dict[int, Scalar]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows):
            for j, x in row.items():
                out[j][i] = x
        return Matrix(self.rows, tuple(out))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over the stored entries of both factors."""
        if self.cols != other.rows:
            raise ValueError("matrix product shape mismatch")
        return Matrix(other.cols, tuple([_combine(row, other.nonzero_rows.__getitem__)
                                         for row in self.nonzero_rows]))

    def is_symmetric(self) -> bool:
        # dict equality tries identity before __eq__, so shared entries compare at C speed
        return self.rows == self.cols and self.transpose() == self


def _reduce(rows: Iterable[dict[int, Scalar]]) -> list[tuple[int, dict[int, Scalar]]]:
    """The nonzero rows of the reduced row echelon form of the span of ``rows``.

    Rows are sparse maps ``{column: nonzero entry}``; they are consumed (the
    maps are modified in place).  Each incoming row is reduced by the pivot
    rows found so far, normalized at its first nonzero column and subtracted
    from the earlier pivot rows that hold that column, so the pivot rows stay
    reduced against each other and only stored entries are touched.  The
    columns the pivot rows have ever held are kept as a set, and a new pivot
    column outside it is eliminated from no row: a run of rows that share no
    column costs O(1) per row.  Returns ``(pivot, row)`` pairs sorted by
    pivot column, each row with a 1 at its pivot.  Any totally ordered column
    keys work, not only integers.
    """
    pivots: dict[int, dict[int, Scalar]] = {}
    held: set[int] = set()  # a superset of the columns the pivot rows hold
    for row in rows:
        for p in [c for c in row if c in pivots]:
            _axpy(row, -row.pop(p), pivots[p], p)
        if not row:
            continue
        c = min(row)
        pv = row[c]
        if pv != 1:
            row = {j: _quo(x, pv) for j, x in row.items()}
        if c in held:
            for other in pivots.values():
                f = other.pop(c, None)
                if f is not None:
                    _axpy(other, -f, row, c)
        held.update(row)
        pivots[c] = row
    return sorted(pivots.items())


def _axpy(target: dict[int, Scalar], f: Scalar, source: dict[int, Scalar], skip: int) -> None:
    """target += f * source on every column but ``skip``, dropping zeros and
    keeping each entry canonical."""
    for j, x in source.items():
        if j != skip:
            y = target.get(j)
            y = f * x if y is None else y + f * x
            if type(y) is not int and y.denominator == 1:
                y = y.numerator
            if y:
                target[j] = y
            else:
                del target[j]  # a product of nonzeros is nonzero, so j was held


def _combine(
    coeffs: Mapping[int, Scalar], row_of: Callable[[int], Mapping[int, Scalar] | None]
) -> dict[int, Scalar]:
    """The sum of c_k * row_of(k) over the sparse row ``coeffs`` {k: nonzero
    c_k}, as a fresh sparse row without zeros.  ``row_of(k)`` is a sparse row, or
    None for a zero one (so ``table.get`` serves); no input is modified."""
    out: dict[int, Scalar] = {}
    for k, c in coeffs.items():
        row = row_of(k)
        if row:
            _axpy(out, c, row, -1)
    return out


def _sparse_rows(m: Matrix) -> list[dict[int, Scalar]]:
    """Fresh copies of ``m.nonzero_rows``, for an elimination to consume."""
    return [dict(row) for row in m.nonzero_rows]


def _dense(row: dict[int, Scalar], length: int) -> Vector:
    out = [0] * length
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def rank(m: Matrix) -> int:
    return len(_reduce(_sparse_rows(m)))


def kernel_basis(m: Matrix) -> list[Vector]:
    """Deterministic basis of the right kernel of ``m``.

    One vector per free column of the reduced echelon form: the free
    coordinate is set to 1, pivot coordinates are filled by back substitution,
    remaining free coordinates are 0.
    """
    return [_dense(v, m.cols) for v in _kernel(_reduce(_sparse_rows(m)), m.cols)]


def _kernel(reduced: list[tuple[int, dict[int, Scalar]]], cols: int) -> list[dict[int, Scalar]]:
    """The kernel basis of :func:`kernel_basis` as sparse rows, read off the
    first ``cols`` columns of reduced rows whose pivots all lie among them."""
    pivot_set = {p for p, _ in reduced}
    basis = {f: {f: 1} for f in range(cols) if f not in pivot_set}
    for p, row in reduced:
        for j, x in row.items():
            if j != p and j < cols:
                basis[j][p] = -x
    return list(basis.values())


def solve_affine(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """Solve ``a x = b`` exactly.

    Returns ``(particular, kernel)`` where the particular solution sets all
    free variables to zero, or ``None`` when the system is inconsistent.
    One elimination serves both: the left block of the reduced echelon form
    of ``[a | b]`` is that of ``a``.
    """
    if len(b) != a.rows:
        raise ValueError("right hand side length mismatch")
    rows = _sparse_rows(a)
    for row, x in zip(rows, b):
        if x:
            row[a.cols] = _canon(x)
    reduced = _reduce(rows)
    if reduced and reduced[-1][0] == a.cols:
        return None
    particular = [0] * a.cols
    for p, row in reduced:
        particular[p] = row.get(a.cols, 0)
    return tuple(particular), [_dense(v, a.cols) for v in _kernel(reduced, a.cols)]


class Signature(NamedTuple):
    """Inertia of a symmetric bilinear form: (negative, positive, null)."""

    neg: int
    pos: int
    null: int

    @property
    def dim(self) -> int:
        return self.neg + self.pos + self.null

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.neg, self.pos, self.null)


def signature_of(gram: Matrix) -> Signature:
    """Signature of a symmetric matrix by symmetric elimination on sparse rows.

    A remaining index k with a nonzero diagonal entry d counts by the sign of
    d, and the rest is replaced by its Schur complement
    a_ij - a_ik a_kj / d.  When every remaining diagonal entry vanishes, a
    nonzero entry b = a_kp is a 2x2 pivot [[0, b], [b, 0]]: it counts one
    negative and one positive direction, and the rest becomes
    a_ij - (a_ik a_pj + a_ip a_kj) / b.  Indices whose rows become zero are
    null directions.
    """
    if not gram.is_symmetric():
        raise ValueError("signature_of requires a symmetric matrix")
    rows = {i: row for i, row in enumerate(_sparse_rows(gram)) if row}
    neg = pos = 0
    while rows:
        k = next((i for i, row in rows.items() if i in row), None)
        if k is not None:
            pivot = rows.pop(k)
            d = pivot.pop(k)
            neg, pos = (neg, pos + 1) if d > 0 else (neg + 1, pos)
            updates = [(i, -_quo(x, d), pivot) for i, x in pivot.items()]
            pivots = (k,)
        else:
            k, row_k = next(iter(rows.items()))
            p = min(row_k)
            row_p = rows.pop(p)
            b = row_k.pop(p)
            del rows[k], row_p[k]
            neg, pos = neg + 1, pos + 1
            updates = [(i, -_quo(x, b), row_p) for i, x in row_k.items()]
            updates += [(i, -_quo(x, b), row_k) for i, x in row_p.items()]
            pivots = (k, p)
        for i, f, source in updates:
            row = rows[i]
            for c in pivots:
                row.pop(c, None)
            _axpy(row, f, source, k)  # no source holds a pivot column
        for i in {i for i, _, _ in updates}:
            if not rows[i]:
                del rows[i]  # a null direction
    return Signature(neg=neg, pos=pos, null=gram.rows - neg - pos)


class Subspace(_Record):
    """A subspace of Q^n, stored as the rows :func:`_reduce` returns for it.

    ``rows`` are the reduced echelon rows of the span as sparse ``{column:
    entry}`` maps, sorted by pivot.  They are unique, so two subspaces are
    equal exactly when they span the same space.  They are shared: callers
    hand copies of them to :func:`_reduce`, which consumes its input.  The
    slot ``_pivots`` holds their pivot columns once :meth:`coords` needs them.
    """

    _fields = ("ambient_dim", "rows")
    __slots__ = _fields + ("_pivots",)
    ambient_dim: int
    rows: tuple[dict[int, Scalar], ...]

    __hash__ = Matrix.__hash__

    @staticmethod
    def of_rows(ambient_dim: int, rows: Iterable[dict[int, Scalar]]) -> "Subspace":
        """The span of sparse rows ``{column: nonzero entry}``; the rows are consumed."""
        return Subspace(ambient_dim, tuple([row for _, row in _reduce(rows)]))

    @staticmethod
    def kernel(ambient_dim: int, rows: Iterable[dict[int, Scalar]]) -> "Subspace":
        """The common kernel of sparse rows over columns ``0..ambient_dim-1``;
        the rows are consumed."""
        return Subspace.of_rows(ambient_dim, _kernel(_reduce(rows), ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple([{i: 1} for i in range(ambient_dim)]))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coords(self, v: dict[int, Scalar]) -> Vector | None:
        """Coordinates of the sparse row ``v`` (only read) in the echelon rows:
        its entries at their pivots, or None when a residual is left after
        subtracting the rows times them."""
        try:
            pivots = self._pivots
        except AttributeError:
            pivots = tuple([min(row) for row in self.rows])
            object.__setattr__(self, "_pivots", pivots)
        residual = dict(v)
        coeffs = []
        for p, row in zip(pivots, self.rows):
            c = residual.pop(p, 0)
            if c:
                _axpy(residual, -c, row, p)
            coeffs.append(c)
        return None if residual else tuple(coeffs)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        # Zassenhaus: reduce [u | u] for u in self and [w | 0] for w in other;
        # the reduced rows with a pivot in the right half are [0 | v], and
        # their v are the reduced echelon rows of the intersection.
        n = self.ambient_dim
        rows = [{**u, **{j + n: x for j, x in u.items()}} for u in self.rows]
        rows += (dict(w) for w in other.rows)
        right = (row for p, row in _reduce(rows) if p >= n)
        return Subspace(n, tuple([{j - n: x for j, x in row.items()} for row in right]))

    def form(self, gram: Matrix) -> Matrix:
        """The restriction of the form ``gram`` to this subspace: B G B^T for
        the echelon basis B, by the sparse product."""
        b = Matrix(self.ambient_dim, self.rows)
        return b @ gram @ b.transpose()

    def is_nondegenerate(self, gram: Matrix) -> bool:
        """Whether the restriction of ``gram`` is nondegenerate; the zero
        subspace counts as nondegenerate."""
        return rank(self.form(gram)) == self.dim
