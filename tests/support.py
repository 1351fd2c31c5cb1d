"""Shared fixtures and randomized helpers for the test suite.

The three `*_dim_*_step` algebras are small nilpotent algebras whose
differentials were expanded by hand, and `pinned_expansion_failures`
replays all of those identities on seeded random cochains.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from metriclie import lie_core
from metriclie.catalog import (
    BASE_BUILDERS,
    ENTRIES,
    base_algebra,
    instantiate,
    module_for_tag,
    orthonormal_module,
)
from metriclie.cochain_complex import (
    Cochain,
    Isomap,
    OrthogonalModule,
    differential,
    differential_matrix,
    wedge_pair,
)
from metriclie.double_construction import Fingerprint, MetricLieAlgebra, build_double
from metriclie.exact_linalg import (
    Matrix,
    Signature,
    Subspace,
    _combine,
    _dense,
    kernel_basis,
    scalar,
    signature_of,
    solve,
    solve_affine,
    unit_vector,
    vec_add,
)
from metriclie.lie_core import (
    LieAlgebra,
    NotNilpotentError,
    center,
    is_nilpotent,
    lower_central_series,
)
from metriclie.quadratic_cohomology import (
    AdmissibilityReport,
    ConditionKReport,
    ConsistencyError,
    QuadraticCochain,
    QuadraticCocycle,
    zero_cocycle,
)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rational(rg: random.Random, spread: int = 4, den: int = 3) -> Fraction:
    return Fraction(rg.randint(-spread, spread), rg.randint(1, den))


# ---------------------------------------------------------------------------
# fixed algebras with hand-expanded differentials
# ---------------------------------------------------------------------------


def five_dim_three_step() -> LieAlgebra:
    """[X1,X2]=Z, [X1,Z]=Y, [X2,X3]=Y on the basis (X1,X2,X3,Z,Y)."""
    return LieAlgebra(
        5,
        {
            (0, 1): unit_vector(5, 3),
            (0, 3): unit_vector(5, 4),
            (1, 2): unit_vector(5, 4),
        },
        labels=("X1", "X2", "X3", "Z", "Y"),
    )


def six_dim_two_step() -> LieAlgebra:
    """[X1,X2]=Y, [X1,X3]=Z, [X3,X4]=Z on the basis (X1..X4,Y,Z)."""
    return LieAlgebra(
        6,
        {
            (0, 1): unit_vector(6, 4),
            (0, 2): unit_vector(6, 5),
            (2, 3): unit_vector(6, 5),
        },
        labels=("X1", "X2", "X3", "X4", "Y", "Z"),
    )


def seven_dim_two_step() -> LieAlgebra:
    """[X1,X2]=Y, [X1,X3]=Z, [X3,X4]=Y, [X3,X5]=Z on (X1..X5,Y,Z)."""
    return LieAlgebra(
        7,
        {
            (0, 1): unit_vector(7, 5),
            (0, 2): unit_vector(7, 6),
            (2, 3): unit_vector(7, 5),
            (2, 4): unit_vector(7, 6),
        },
        labels=("X1", "X2", "X3", "X4", "X5", "Y", "Z"),
    )


# ---------------------------------------------------------------------------
# random structure constant tables and the catalog algebras
# ---------------------------------------------------------------------------


def random_sparse_table(rg: random.Random, n: int) -> LieAlgebra:
    """A random table: two-step nilpotent (so Jacobi holds) with probability
    1/3, the same plus one arbitrary bracket with probability 1/3, and
    arbitrary sparse brackets otherwise."""
    kind = rg.randrange(3)
    c = rg.randint(1, n - 2)  # the last c basis vectors span the center of a two-step table
    table = {}
    pairs = [(i, j) for i, j in combinations(range(n), 2) if kind == 2 or j < n - c]
    for i, j in rg.sample(pairs, rg.randint(0, len(pairs))):
        support = range(n) if kind == 2 else range(n - c, n)
        table[(i, j)] = tuple(
            rational(rg) if t in support and rg.random() < 0.5 else Fraction(0) for t in range(n)
        )
    if kind == 1:
        i, j = sorted(rg.sample(range(n), 2))
        table[(i, j)] = tuple(rational(rg) for _ in range(n))
    return LieAlgebra(n, table, validate=False)


def catalog_algebras() -> list[LieAlgebra]:
    """Every catalog base algebra and the double of every catalog entry."""
    algebras = [base_algebra(name) for name in sorted(BASE_BUILDERS)]
    for entry in ENTRIES:
        params = {name: Fraction(1) for name in entry.params}
        algebras.append(build_double(instantiate(entry, params)).algebra)
    return algebras


def random_unimodular_basis_change(rg: random.Random, l, steps: int):
    """``l`` in the basis f_i = sum_a P[i][a] e_a, for P a product of ``steps``
    random integral row additions (f_b += c f_a, c = +-1), so P and P^-1 are
    integral and the new structure constants are too.  The table is built
    with ``validate=False``, so its Jacobi verdict is not known in advance.
    A :class:`MetricLieAlgebra` comes back as one, its form G mapped to
    P G P^T (<f_i, f_j> summed over the nonzero entries of G)."""
    if isinstance(l, MetricLieAlgebra):
        metric, l = l, l.algebra
    else:
        metric = None
    n = l.dim
    p = [[int(a == b) for b in range(n)] for a in range(n)]
    q = [row[:] for row in p]  # P^-1: each step subtracts c * column b from column a
    for _ in range(steps if n > 1 else 0):
        a, b = rg.sample(range(n), 2)
        c = rg.choice((-1, 1))
        p[b] = [x + c * y for x, y in zip(p[b], p[a])]
        for row in q:
            row[a] -= c * row[b]
    assert all(sum(p[i][k] * q[k][j] for k in range(n)) == (i == j) for i in range(n) for j in range(n))
    table = {}
    for i, j in combinations(range(n), 2):
        v = [0] * n  # [f_i, f_j] in the e basis, summed over the stored [e_a, e_b]
        for a, x in enumerate(p[i]):
            for b, row in l.row(a).items() if x else ():
                for t, z in row.items():
                    v[t] += x * p[j][b] * z
        # its f-coordinates are v P^-1
        table[(i, j)] = tuple(sum(v[a] * q[a][t] for a in range(n) if v[a]) for t in range(n))
    changed = LieAlgebra(n, table, labels=l.labels, validate=False)
    if metric is None:
        return changed
    rows = metric.gram.nonzero_rows
    gram = [[sum(p[i][a] * x * p[j][b] for a, row in enumerate(rows) for b, x in row.items())
             for j in range(n)] for i in range(n)]
    return MetricLieAlgebra(changed, Matrix.from_rows(gram, cols=n))


def direct_fingerprint(g: MetricLieAlgebra) -> Fingerprint:
    """The fingerprint from its definitions: the center as the kernel of ad
    (``lie_core.center``) and each signature by its own elimination, l^2's
    of the form restricted to it."""
    series = lower_central_series(g.algebra)
    derived = series[1] if len(series) > 1 else series[0]  # the zero algebra's l^2
    z = center(g.algebra)
    return Fingerprint(
        dim=g.algebra.dim,
        signature=signature_of(g.gram),
        series_dims=tuple(s.dim for s in series),
        center_dim=z.dim,
        center_signature=signature_of(z.form(g.gram)),
        derived_signature=signature_of(derived.form(g.gram)),
    )


def direct_series(l: LieAlgebra) -> tuple[Subspace, ...]:
    """The lower central series by the direct loop: each term the span of
    [e_i, w] over every e_i and every row w of the term before, up to the
    zero term or a repeated one."""
    everything, chain = set(range(l.dim)), [Subspace.full(l.dim)]
    while chain[-1].dim:
        chain.append(lie_core._bracket_span(l, everything, chain[-1]))
        if chain[-1].dim == chain[-2].dim:
            break
    return tuple(chain)


def scale_doubles() -> dict[str, MetricLieAlgebra]:
    """The doubles of the benchmark's scale workload: the zero cocycle on
    h_15 ([X_i, Y_i] = Z) and on the standard filiform algebra of dimension
    12 ([X1, X_i] = X_(i+1)), with the module diag(1, 1)."""
    h15 = LieAlgebra(15, {(i, 7 + i): unit_vector(15, 14) for i in range(7)})
    module = orthonormal_module([1, 1])
    return {
        "T*h_15": build_double(zero_cocycle(h15, module)),
        "T*fil_12": build_double(zero_cocycle(standard_filiform(12), module)),
    }


@cache
def filiform_double(n: int) -> MetricLieAlgebra:
    """The double of the zero cocycle on the standard filiform algebra of
    dimension ``n`` with the module diag(1, -1), built once per ``n``."""
    return build_double(zero_cocycle(standard_filiform(n), orthonormal_module([1, -1])))


def standard_filiform(n: int) -> LieAlgebra:
    """The standard filiform algebra [X1, X_i] = X_(i+1), 1 < i < n, of class
    n - 1 = dim l^2 + 1, the most a nilpotent algebra allows."""
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def sorted_invariance_failure(g: MetricLieAlgebra) -> str:
    """The sparse invariance scan that sorts the stored pairs of every e_i,
    i in range(dim), before it tests them: the reference for the first
    failing triple of ``double_construction._invariance_failure``."""
    support = g.gram.nonzero_rows
    for i in range(g.algebra.dim):
        pairing = {k: _combine(p, support.__getitem__) for k, p in g.algebra.row(i).items()}
        for j, k in sorted({(min(j, k), max(j, k)) for k, p in pairing.items() for j in p}):
            if pairing.get(k, {}).get(j, 0) + pairing.get(j, {}).get(k, 0) != 0:
                return "fails at triple %s" % g.algebra.named((i, j, k))
    return ""


# ---------------------------------------------------------------------------
# random cochains and cocycles
# ---------------------------------------------------------------------------


def random_cochain(
    rg: random.Random,
    n: int,
    degree: int,
    value_dim: int,
    scalar: bool = False,
    density: float = 0.6,
) -> Cochain:
    values = {}
    for key in combinations(range(n), degree):
        if rg.random() > density:
            continue
        value = tuple(rational(rg) for _ in range(value_dim))
        if any(value):
            values[key] = value
    return Cochain(n, degree, value_dim, scalar, values)


def random_quadratic_cochain(
    rg: random.Random, algebra: LieAlgebra, module: OrthogonalModule
) -> QuadraticCochain:
    tau = random_cochain(rg, algebra.dim, 1, module.dim)
    sigma = random_cochain(rg, algebra.dim, 2, 1, scalar=True)
    return QuadraticCochain(algebra, module, tau, sigma)


def _vectorize(c: Cochain) -> tuple[Fraction, ...]:
    out = []
    values = dense_values(c)
    for key in combinations(range(c.n), c.degree):
        value = values.get(key)
        for t in range(c.value_dim):
            out.append(value[t] if value is not None else Fraction(0))
    return tuple(out)


def _cochain_from_vector(
    vec, n: int, degree: int, value_dim: int, scalar: bool
) -> Cochain:
    values = {}
    pos = 0
    for key in combinations(range(n), degree):
        value = tuple(vec[pos : pos + value_dim])
        pos += value_dim
        if any(value):
            values[key] = value
    return Cochain(n, degree, value_dim, scalar, values)


def _random_span_element(rg: random.Random, basis, length: int):
    # One draw per basis vector, in order; only nonzero entries are summed.
    coeffs = [rational(rg) for _ in basis]
    return dense_combination(coeffs, basis.__getitem__, length)


def random_valid_cocycle(
    rg: random.Random,
    algebra: LieAlgebra,
    module: OrthogonalModule,
    tries: int = 60,
) -> QuadraticCocycle | None:
    """Sample (alpha, gamma) satisfying both cocycle conditions, or None."""
    from metriclie.quadratic_cohomology import half_wedge_square

    d2 = differential_matrix(algebra, module, 2)
    closed = kernel_basis(d2)
    d3 = differential_matrix(algebra, None, 3)
    for _ in range(tries):
        total = _random_span_element(rg, closed, d2.cols)
        alpha = _cochain_from_vector(total, algebra.dim, 2, module.dim, False)
        rhs = _vectorize(half_wedge_square(module, alpha))
        solution = solve_affine(d3, rhs)
        if solution is None:
            continue
        particular, _ = solution
        gamma = _cochain_from_vector(particular, algebra.dim, 3, 1, True)
        return QuadraticCocycle(algebra, module, alpha, gamma)
    return None


def random_full_module(rg: random.Random, m: int) -> OrthogonalModule:
    """A nondegenerate module form G = P D P^T, P unitriangular and D diagonal
    with random nonzero rationals, drawn again until some <A_s, A_t>, s != t,
    is nonzero (for m >= 2)."""
    while True:
        p = [[Fraction(int(i == j)) if j >= i else rational(rg) for j in range(m)]
             for i in range(m)]
        d = [rational(rg) or Fraction(1) for _ in range(m)]
        grid = [[sum(p[i][k] * d[k] * p[j][k] for k in range(m)) for j in range(m)]
                for i in range(m)]
        if m < 2 or any(grid[i][j] for i in range(m) for j in range(m) if i != j):
            return OrthogonalModule(Matrix.from_rows(grid, cols=m))


def full_module_cocycles(seed: int = 37) -> list[QuadraticCocycle]:
    """Seeded :func:`random_valid_cocycle` draws on R2, R3, h1, h1R and g41 over
    :func:`random_full_module` forms of dimension 2 and 3, two per pair, each
    gamma plus a random closed 3-form; the draws with no solvable gamma are
    left out."""
    rg = rng(seed)
    out = []
    for base in ("R2", "R3", "h1", "h1R", "g41"):
        l = base_algebra(base)
        closed = kernel_basis(differential_matrix(l, None, 3))
        for m in (2, 3, 2, 3):
            z = random_valid_cocycle(rg, l, random_full_module(rg, m))
            if z is not None:
                shift = _random_span_element(rg, closed, len(_vectorize(z.gamma)))
                gamma = vec_add(_vectorize(z.gamma), shift)
                out.append(QuadraticCocycle(l, z.module, z.alpha,
                                            _cochain_from_vector(gamma, l.dim, 3, 1, True)))
    return out


REJECTION_TAGS = ("r01", "r10", "r11", "r02", "r11w", "r21", "r03", "r22w")


def rejection_study_cocycles() -> list[QuadraticCocycle]:
    """The 50 solvable tries of the criterion-4 rejection study (seed 2026)
    on ``five_dim_three_step``, the module tags taken in turn."""
    l = five_dim_three_step()
    rg = rng(2026)
    out = []
    while len(out) < 50:
        z = random_valid_cocycle(rg, l, module_for_tag(REJECTION_TAGS[len(out) % len(REJECTION_TAGS)]))
        if z is not None:
            out.append(z)
    return out


def catalog_pairs() -> list[tuple[str, LieAlgebra, OrthogonalModule | None]]:
    """Distinct (base algebra, coefficient module) pairs from the catalog."""
    seen = []
    out = []
    for entry in ENTRIES:
        key = (entry.base, entry.module_tag)
        if key in seen:
            continue
        seen.append(key)
        module = None if entry.module_tag == "none" else module_for_tag(entry.module_tag)
        out.append((f"{entry.base}/{entry.module_tag}", base_algebra(entry.base), module))
    return out


# ---------------------------------------------------------------------------
# dense views of the stored rows (the package keeps none)
# ---------------------------------------------------------------------------


def dense_vector(values) -> tuple:
    """``values`` as a tuple of canonical scalars."""
    return tuple([scalar(v) for v in values])


def dense_brackets(l: LieAlgebra) -> dict[tuple[int, int], tuple]:
    """The stored [e_i, e_j], i < j, as dense vectors, in the store's order."""
    return {(i, j): _dense(p, l.dim) for i, j, p in l._upper()}


def dense_grid(m: Matrix) -> list[list]:
    """The rows of ``m`` as plain lists of its ``cols`` entries."""
    return [list(_dense(row, m.cols)) for row in m.nonzero_rows]


def dense_matrix_row(m: Matrix, i: int) -> tuple:
    """Row ``i`` of ``m`` as a dense vector."""
    return _dense(m.nonzero_rows[i], m.cols)


def dense_values(c: Cochain) -> dict[tuple[int, ...], tuple]:
    """Each stored value of ``c`` as a dense vector of ``value_dim`` entries."""
    return {key: _dense(row, c.value_dim) for key, row in c.rows.items()}


# ---------------------------------------------------------------------------
# dense reference kernels: every basis tuple, every slot split
# ---------------------------------------------------------------------------


def dense_combination(coeffs, term, length: int) -> tuple[Fraction, ...]:
    """The sum of c_k * term(k) over the nonzero c_k of a dense sequence or a
    sparse row ``{k: c_k}``, as a dense vector of ``length``."""
    out = [Fraction(0)] * length
    for k, c in coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs):
        if c:
            for t, x in enumerate(term(k)):
                if x:
                    out[t] += c * x
    return tuple(out)


def alternating_value(c: Cochain, indices) -> tuple[Fraction, ...]:
    """The value of ``c`` on basis vectors in any order, by sorting them, as
    a dense vector made of the one stored row it reads."""
    key = tuple(sorted(indices))
    row = c.rows.get(key) if len(set(key)) == len(key) else None
    if row is None:
        return (Fraction(0),) * c.value_dim
    v = tuple(row.get(t, Fraction(0)) for t in range(c.value_dim))
    inversions = sum(a > b for a, b in combinations(indices, 2))
    return v if inversions % 2 == 0 else _neg(v)


def dense_ad(l: LieAlgebra, i: int, w) -> tuple[Fraction, ...]:
    """[e_i, w] from :func:`dense_bracket`."""
    return dense_bracket(l, unit_vector(l.dim, i), w)


@cache
def dense_table(l: LieAlgebra) -> tuple[tuple[int, int, tuple], ...]:
    """:func:`dense_brackets` as ``(i, j, [e_i, e_j])``, built once per algebra."""
    return tuple([(i, j, v) for (i, j), v in dense_brackets(l).items()])


def dense_bracket(l: LieAlgebra, x, y) -> tuple[Fraction, ...]:
    """[x, y] summed over every stored bracket, c_ij = x_i y_j - x_j y_i,
    entry by entry on dense vectors."""
    out = [0] * l.dim
    for i, j, v in dense_table(l):
        c = x[i] * y[j] - x[j] * y[i]
        if c != 0:
            for t, a in enumerate(v):
                if a:
                    out[t] += c * a
    return tuple(out)


def dense_basis_bracket(l: LieAlgebra, i: int, j: int) -> tuple:
    """[e_i, e_j] for any basis indices, as a dense vector read off ``l.row(i)``."""
    return _dense(l.row(i).get(j, {}), l.dim)


def dense_apply(m: Matrix, v) -> tuple[Fraction, ...]:
    """M v summed over every entry of M."""
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in dense_grid(m))


def dense_evaluate(c: Cochain, args) -> tuple[Fraction, ...]:
    """``c`` on arbitrary coordinate vectors: each stored value weighted by the
    minor of the arguments on its key (:func:`dense_det`; 1 in degree 0)."""
    if len(args) != c.degree:
        raise ValueError("expected %d arguments" % c.degree)
    total = (Fraction(0),) * c.value_dim
    for key, v in dense_values(c).items():
        minor = dense_det(Matrix.from_rows([[a[r] for a in args] for r in key], cols=c.degree))
        total = vec_add(total, tuple(minor * x for x in v))
    return total


def dense_pullback(iso: Isomap, c: Cochain) -> Cochain:
    """(S, U)* c by evaluation: ``c`` on the columns of S for every increasing
    tuple of source basis vectors, by minors, then U applied unless ``c`` is
    scalar."""
    n1 = iso.s.cols
    columns = plain_transpose(dense_grid(iso.s), n1)
    values = {}
    for key in combinations(range(n1), c.degree):
        v = dense_evaluate(c, [columns[t] for t in key])
        if not c.scalar:
            v = dense_apply(iso.u, v)
        if any(v):
            values[key] = v
    return Cochain(n1, c.degree, 1 if c.scalar else iso.u.rows, c.scalar, values)


def dense_is_lie_homomorphism(s: Matrix, source: LieAlgebra, target: LieAlgebra) -> bool:
    """Whether S [e_i, e_j] = [S e_i, S e_j] for all i < j, with the columns of
    S as dense vectors and the right side from :func:`dense_bracket`."""
    columns = plain_transpose(dense_grid(s), s.cols)
    return all(
        dense_apply(s, dense_basis_bracket(source, i, j))
        == dense_bracket(target, columns[i], columns[j])
        for i, j in combinations(range(source.dim), 2)
    )


def dense_differential(l: LieAlgebra, c: Cochain) -> Cochain:
    """The differential evaluated on every increasing (p+1)-tuple of basis vectors."""
    out_degree = c.degree + 1
    values = {}
    for key in combinations(range(l.dim), out_degree):
        total = (Fraction(0),) * c.value_dim
        for a in range(out_degree):
            for b in range(a + 1, out_degree):
                w = dense_basis_bracket(l, key[a], key[b])
                rest = key[:a] + key[a + 1 : b] + key[b + 1 :]
                term = dense_combination(w, lambda k: alternating_value(c, (k,) + rest), c.value_dim)
                if (a + b) % 2:
                    term = _neg(term)
                total = vec_add(total, term)
        if any(total):
            values[key] = total
    return Cochain(l.dim, out_degree, c.value_dim, c.scalar, values)


def dense_pairing(gram: Matrix, u, v) -> Fraction:
    """<u, v> summed over every entry of the Gram matrix."""
    grid = dense_grid(gram)
    entries = (u[i] * grid[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))
    return sum(entries, Fraction(0))


def dense_double(z: QuadraticCocycle) -> tuple[dict[tuple[int, int], tuple], list[list]]:
    """The brackets [e_a, e_b], a < b, as dense vectors, and the Gram grid of the
    double of ``z``, entry by entry from the formulas of ``double_construction``
    on the basis (sigma^1..n, A_1..m, X_1..n):

        [X_i, X_j] = gamma(X_i, X_j, .) + alpha(X_i, X_j) + [X_i, X_j]_l,
        [sigma^t, X_i] = -ad*(X_i) sigma^t, whose sigma^k entry is [X_i, X_k]_t,
        [A_s, X_i] = <A_s, alpha(X_i, .)>, summed over every entry of the module form,

    every other bracket zero, and <A_s, A_u>_a and sigma^i(X_i) = 1 as the form."""
    l, n, m = z.algebra, z.algebra.dim, z.module.dim
    dim, x_off = 2 * n + m, n + m
    module = dense_grid(z.module.gram)
    brackets = {key: (Fraction(0),) * dim for key in combinations(range(dim), 2)}
    for i, j in combinations(range(n), 2):
        sigma = tuple(alternating_value(z.gamma, (i, j, k))[0] for k in range(n))
        brackets[(x_off + i, x_off + j)] = (
            sigma + alternating_value(z.alpha, (i, j)) + dense_basis_bracket(l, i, j))
    tail = (Fraction(0),) * (m + n)  # the a and l blocks of [sigma^t, X_i] and [A_s, X_i]
    for i in range(n):
        for t in range(n):
            brackets[(t, x_off + i)] = tuple(
                dense_basis_bracket(l, i, k)[t] for k in range(n)) + tail
        for s in range(m):
            brackets[(n + s, x_off + i)] = tuple(
                sum((module[s][u] * alternating_value(z.alpha, (i, k))[u] for u in range(m)),
                    Fraction(0))
                for k in range(n)) + tail
    grid = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        grid[i][x_off + i] = grid[x_off + i][i] = Fraction(1)
    for s in range(m):
        grid[n + s][n:x_off] = module[s]
    return brackets, grid


def dense_wedge_pair(module: OrthogonalModule, c1: Cochain, c2: Cochain) -> Cochain:
    """The wedge pairing summed over every (p, q)-split of every increasing tuple."""
    p, q = c1.degree, c2.degree
    values1, values2 = dense_values(c1), dense_values(c2)
    values = {}
    for key in combinations(range(c1.n), p + q):
        total = Fraction(0)
        for positions in combinations(range(p + q), p):
            u = values1.get(tuple(key[s] for s in positions))
            v = values2.get(tuple(key[s] for s in range(p + q) if s not in positions))
            if u is None or v is None:
                continue
            sign = -1 if sum(positions) % 2 != (p * (p - 1) // 2) % 2 else 1
            total += sign * dense_pairing(module.gram, u, v)
        if total != 0:
            values[key] = (total,)
    return Cochain(c1.n, p + q, 1, True, values)


def dense_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form by a dense column scan: for each column, left
    to right, the first remaining row with a nonzero entry becomes the pivot."""
    rows = dense_grid(m)
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [Fraction(x) / pv for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix.from_rows(rows, cols=m.cols), tuple(pivots)


def dense_kernel(m: Matrix) -> list[tuple[Fraction, ...]]:
    """One kernel vector per free column of ``dense_rref(m)``."""
    reduced, pivots = dense_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -dense_matrix_row(reduced, r)[f]
        basis.append(tuple(v))
    return basis


def dense_solve_affine(a: Matrix, b) -> tuple[tuple[Fraction, ...], list] | None:
    """Particular solution (free variables 0) and kernel, from ``dense_rref(a)``
    and ``dense_rref([a | b])``; None when the system is inconsistent."""
    augmented = Matrix.from_rows([row + [b[i]] for i, row in enumerate(dense_grid(a))], cols=a.cols + 1)
    reduced, pivots = dense_rref(augmented)
    if a.cols in pivots:
        return None
    particular = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        particular[p] = dense_matrix_row(reduced, r)[a.cols]
    return tuple(particular), dense_kernel(a)


def dense_det(m: Matrix) -> Fraction:
    """Determinant by dense Gaussian elimination: for each column, the first
    remaining row with a nonzero entry becomes the pivot."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = dense_grid(m)
    n = m.rows
    sign = Fraction(1)
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pv = rows[c][c]
        result *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = Fraction(rows[i][c]) / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * result


def dense_signature_of(gram: Matrix) -> Signature:
    """Signature by dense congruence diagonalization.

    When a diagonal pivot vanishes, a later index with a nonzero diagonal
    entry and a nonzero coupling is swapped in; if there is none, the partner
    row and column of a nonzero off-diagonal entry are added, which produces
    a nonzero pivot.
    """
    if not gram.is_symmetric():
        raise ValueError("signature_of requires a symmetric matrix")
    n = gram.rows
    rows = dense_grid(gram)

    def add_row_col(dst: int, src: int) -> None:
        rows[dst] = [a + b for a, b in zip(rows[dst], rows[src])]
        for i in range(n):
            rows[i][dst] += rows[i][src]

    def swap_row_col(i: int, j: int) -> None:
        rows[i], rows[j] = rows[j], rows[i]
        for r in rows:
            r[i], r[j] = r[j], r[i]

    neg = pos = 0
    for k in range(n):
        if rows[k][k] == 0:
            partner = None
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    partner = i
                    break
            if partner is None:
                continue  # null direction
            swapped = False
            for i in range(k + 1, n):
                if rows[i][i] != 0 and rows[i][k] != 0:
                    swap_row_col(k, i)
                    swapped = True
                    break
            if not swapped:
                # both diagonal entries vanish, so the sum picks up 2 * rows[partner][k]
                add_row_col(k, partner)
        pv = rows[k][k]
        if pv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if rows[i][k] != 0:
                f = Fraction(rows[i][k]) / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
                for j in range(n):
                    rows[j][i] -= f * rows[j][k]
    return Signature(neg=neg, pos=pos, null=n - neg - pos)


def random_symmetric_case(rg: random.Random) -> tuple[str, Matrix]:
    """The matrix of :func:`random_symmetric_grid`, with its kind."""
    kind, grid = random_symmetric_grid(rg)
    return kind, Matrix.from_rows(grid, cols=len(grid))


def random_symmetric_grid(rg: random.Random) -> tuple[str, list[list[Fraction]]]:
    """A random symmetric plain-list grid whose diagonal is mostly zero, with its kind:
    ``empty`` (0 x 0), ``witt`` (hyperbolic planes, definite and null lines,
    permuted), ``coupled`` (zero diagonal with sparse couplings), ``image``
    (S^T B S for a rank-deficient block form B and a random, possibly
    singular S) or ``sparse`` (rare diagonal entries)."""
    kind = rg.choice(("empty", "witt", "coupled", "image", "sparse"))
    if kind == "empty":
        return kind, []
    n = rg.randint(1, 9)

    def nonzero() -> Fraction:
        return rational(rg, 4, 3) or Fraction(1)

    grid = [[Fraction(0)] * n for _ in range(n)]
    if kind in ("witt", "image"):
        # blocks [[0, b], [b, 0]], [[a]] and [[0]] on consecutive indices
        i = 0
        while i < n:
            roll = rg.random()
            if roll < 0.5 and i + 1 < n:
                grid[i][i + 1] = grid[i + 1][i] = nonzero()
                i += 2
                continue
            if roll < 0.75:
                grid[i][i] = nonzero()
            i += 1
        if kind == "witt":
            perm = list(range(n))
            rg.shuffle(perm)
            grid = [[grid[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        else:
            s = [[rational(rg) if rg.random() < 0.4 else Fraction(0) for _ in range(n)]
                 for _ in range(n)]
            grid = plain_product(plain_product(plain_transpose(s, n), grid, n), s, n)
    else:
        density = rg.choice((0.15, 0.4, 0.8))
        for i in range(n):
            for j in range(i + 1, n):
                if rg.random() < density:
                    grid[i][j] = grid[j][i] = nonzero()
            if kind == "sparse" and rg.random() < 0.15:
                grid[i][i] = nonzero()
    return kind, grid


def random_square_case(rg: random.Random) -> Matrix:
    """The matrix of :func:`random_square_grid`."""
    grid = random_square_grid(rg)
    return Matrix.from_rows(grid, cols=len(grid))


def random_square_grid(rg: random.Random) -> list[list[Fraction]]:
    """A random square plain-list grid for the determinant, singular about half
    of the time (a zero row, a repeated or scaled row, or a low-rank product)."""
    n = rg.randint(0, 8)
    density = rg.choice((0.2, 0.5, 0.9))
    grid = [[rational(rg, 5, 4) if rg.random() < density else Fraction(0) for _ in range(n)]
            for _ in range(n)]
    roll = rg.random()
    if n and roll < 0.15:
        grid[rg.randrange(n)] = [Fraction(0)] * n
    elif n > 1 and roll < 0.35:
        i, j = rg.sample(range(n), 2)
        grid[i] = [rational(rg, 3, 2) * x for x in grid[j]]
    elif n > 1 and roll < 0.5:
        k = rg.randint(0, n - 1)
        left = [[rational(rg) for _ in range(k)] for _ in range(n)]
        right = [[rational(rg) for _ in range(n)] for _ in range(k)]
        grid = plain_product(left, right, n)
    return grid


def random_elimination_case(rg: random.Random) -> Matrix:
    """A random matrix for the elimination: 0 x n, n x 0, tall, wide or square;
    sparse or dense; with zero rows, duplicate (or scaled) rows, non-unit
    pivots and rank-deficient blocks."""
    shape = rg.randrange(8)
    if shape == 0:
        rows, cols = 0, rg.randint(0, 6)
    elif shape == 1:
        rows, cols = rg.randint(1, 6), 0
    else:
        rows, cols = rg.randint(1, 9), rg.randint(1, 9)
    density = rg.choice((0.15, 0.4, 0.8))

    def entry():
        return rational(rg, 5, 4) if rg.random() < density else Fraction(0)

    if rows and cols and rg.random() < 0.35:
        # a rank-deficient block (a product through k < min(rows, cols)) inside zeros
        k = rg.randint(0, min(rows, cols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(k)]
        grid = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
                for i in range(rows)]
        c0 = rg.randrange(cols)
        for row in grid:
            for j in range(c0):
                row[j] = Fraction(0)
    else:
        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rg.random()
        if roll < 0.1:
            grid[i] = [Fraction(0)] * cols
        elif roll < 0.25 and i:
            factor = rg.choice((Fraction(1), Fraction(-1), rational(rg, 3, 2) or Fraction(2)))
            grid[i] = [factor * x for x in grid[rg.randrange(i)]]
    return Matrix.from_rows(grid, cols=cols)


# ---------------------------------------------------------------------------
# dense reference admissibility: one dense (A_k) system per stage, and the
# intersection as the kernel of the block matrix [B^T | -C^T]
# ---------------------------------------------------------------------------


def sparse_row(v) -> dict:
    """The nonzero entries ``{j: v[j]}`` of a dense vector."""
    return {j: x for j, x in enumerate(v) if x}


def dense_nonzero_rows(grid) -> tuple[dict, ...]:
    """The nonzero entries of each row of a plain-list grid, by a scan of every entry."""
    return tuple({j: x for j, x in enumerate(row) if x != 0} for row in grid)


def is_canonical(x) -> bool:
    """Whether ``x`` is a canonical scalar: an int, or a Fraction whose
    denominator is not 1 (never a float, never an integral Fraction)."""
    return type(x) is int or type(x) is Fraction and x.denominator > 1


def stored_contract_violations(m: Matrix) -> list:
    """Where ``m`` breaks the contract of the raw ``Matrix`` constructor: rows
    as a tuple of dicts, keys in ``0..cols-1``, values canonical and nonzero:
    a nonzero int, or a Fraction with denominator > 1."""
    bad = [] if type(m.nonzero_rows) is tuple else [("rows", type(m.nonzero_rows))]
    for i, row in enumerate(m.nonzero_rows):
        if type(row) is not dict:
            bad.append((i, type(row)))
            continue
        bad += [(i, j, x) for j, x in row.items()
                if not (type(j) is int and 0 <= j < m.cols and is_canonical(x) and x)]
    return bad


def plain_product(a, b, cols: int) -> list[list[Fraction]]:
    """The product of plain-list grids ``a`` and ``b``, ``b`` with ``cols``
    columns, summed over every entry."""
    return [[sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0)) for j in range(cols)]
            for row in a]


def plain_transpose(a, cols: int) -> list[list[Fraction]]:
    """The transpose of a plain-list grid with ``cols`` columns."""
    return [[row[j] for row in a] for j in range(cols)]


def dense_form(basis, grid) -> list[list[Fraction]]:
    """B G B^T for the dense basis vectors B and a plain-list Gram grid G."""
    b = [list(v) for v in basis]
    return plain_product(plain_product(b, grid, len(grid)), plain_transpose(b, len(grid)), len(b))


def dense_span(n: int, vectors) -> Subspace:
    """The subspace spanned by ``vectors``, its rows read off :func:`dense_rref`."""
    reduced, pivots = dense_rref(Matrix.from_rows(vectors, cols=n))
    rows = dense_grid(reduced)[: len(pivots)]
    return Subspace(n, tuple(sparse_row(row) for row in rows))


def rows_snapshot(*spaces: Subspace):
    """Copy the shared sparse rows of ``spaces`` now; the returned check says
    whether every space still holds exactly those rows."""
    before = [[dict(row) for row in space.rows] for space in spaces]
    return lambda: [list(space.rows) for space in spaces] == before


def dense_basis(space: Subspace) -> tuple[tuple[Fraction, ...], ...]:
    """The echelon rows of ``space`` as dense vectors of its ambient length."""
    return tuple(_dense(row, space.ambient_dim) for row in space.rows)


def shared_rows_snapshot(l: LieAlgebra, gram: Matrix):
    """Copy the bracket rows of ``l`` and the rows of ``gram`` now; the
    returned check says whether both still hold exactly those entries."""
    def copy():
        rows = {i: {j: dict(p) for j, p in l.row(i).items()} for i in range(l.dim)}
        return rows, [dict(row) for row in gram.nonzero_rows]

    before = copy()
    return lambda: copy() == before


def dense_intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """The intersection from the kernel of [B^T | -C^T], B and C the bases."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace(s1.ambient_dim, ())
    n, b1, b2 = s1.ambient_dim, dense_basis(s1), dense_basis(s2)
    entries = []
    for i in range(n):
        row = [b1[u][i] for u in range(s1.dim)]
        row += [-b2[w][i] for w in range(s2.dim)]
        entries.append(row)
    ker = dense_kernel(Matrix.from_rows(entries, cols=s1.dim + s2.dim))
    vectors = [dense_combination(k[: s1.dim], b1.__getitem__, n) for k in ker]
    return dense_span(n, vectors)


def _dense_condition_a(z: QuadraticCocycle, stage: Subspace, series_term: Subspace):
    """(A_k) as the kernel of one dense system in (L0, A0, Z0)."""
    l, module = z.algebra, z.module
    n, m = l.dim, module.dim
    d0 = stage.dim
    d1 = series_term.dim
    stage_basis, series_basis = dense_basis(stage), dense_basis(series_term)
    if d0 == 0:
        return True, None
    rows = []
    for i in range(n):
        # alpha(e_i, L0) = 0, one scalar row per module coordinate
        alpha_cols = [
            dense_combination(b, lambda t: alternating_value(z.alpha, (i, t)), m) for b in stage_basis
        ]
        for t in range(m):
            rows.append([alpha_cols[u][t] for u in range(d0)] + [Fraction(0)] * (m + d1))
        # gamma(e_i, L0, w) + <A0, alpha(e_i, w)> - Z0([e_i, w]) = 0
        for w in series_basis:
            gamma_iw = dense_combination(
                w, lambda t: tuple(alternating_value(z.gamma, (i, s, t))[0] for s in range(n)), n
            )
            support = [(s, y) for s, y in enumerate(gamma_iw) if y]
            row = [sum((b[s] * y for s, y in support), Fraction(0)) for b in stage_basis]
            alpha_iw = dense_combination(w, lambda t: alternating_value(z.alpha, (i, t)), m)
            row += list(dense_apply(module.gram, alpha_iw))
            coords = series_term.coords(sparse_row(dense_ad(l, i, w)))
            if coords is None:
                raise ConsistencyError("bracket left the series term, series data corrupt")
            row += [-coords.get(t, 0) for t in range(d1)]
            rows.append(row)
    for vec in kernel_basis(Matrix.from_rows(rows, cols=d0 + m + d1)):
        head = vec[:d0]
        if any(head):
            l0 = dense_combination(head, stage_basis.__getitem__, n)
            return False, (l0, vec[d0 : d0 + m], vec[d0 + m :])
    return True, None


def _dense_condition_b(z: QuadraticCocycle, series_term: Subspace):
    """(B_k) on the kernel of the bracket pairing l (x) l^(k+1) -> l."""
    l, module = z.algebra, z.module
    n, m = l.dim, module.dim
    d1 = series_term.dim
    series_basis = dense_basis(series_term)
    rows = {}
    for i in range(n):
        for j, w in enumerate(series_basis):
            for t, x in enumerate(dense_ad(l, i, w)):
                if x:
                    rows.setdefault(t, {})[i * d1 + j] = x
    kernel = solve(rows.values(), range(n * d1))[1]
    alpha_on_tensor = [
        dense_combination(w, lambda t: alternating_value(z.alpha, (i, t)), m)
        for i in range(n)
        for w in series_basis
    ]
    images = [
        dense_combination(vec.values(), [alpha_on_tensor[u] for u in vec].__getitem__, m)
        for vec in kernel
    ]
    # the echelon basis B of the image and the rank of B G B^T, all dense
    reduced, pivots = dense_rref(Matrix.from_rows(images, cols=m))
    b = Matrix.from_rows(dense_grid(reduced)[: len(pivots)], cols=m)
    image_dim = len(pivots)
    if len(dense_rref(b @ module.gram @ b.transpose())[1]) == image_dim:
        return True, image_dim, None
    # the kernel tensors, in order, whose image raises the dense rank of those before
    picked, basis = [], []
    for vec, image in zip(kernel, images):
        if len(dense_rref(Matrix.from_rows(basis + [image], cols=m))[1]) > len(basis):
            basis.append(image)
            picked.append(_dense(vec, n * d1))
    witness = tuple(tuple(v[i * d1 : (i + 1) * d1] for i in range(n)) for v in picked)
    return False, image_dim, witness


def dense_check_admissible(z: QuadraticCocycle) -> AdmissibilityReport:
    """(A_k) and (B_k) stage by stage, each condition built on its own, with
    the filtration intersected through :func:`dense_intersect`."""
    l = z.algebra
    if not is_nilpotent(l):
        raise NotNilpotentError("admissibility is defined for nilpotent algebras")
    series = lower_central_series(l)
    z0, top = center(l), [s.dim for s in series].index(0) - 1
    stages = [z0] + [dense_intersect(z0, series[k]) for k in range(1, top + 1)]
    conditions = []
    for k, stage in enumerate(stages):
        a_passed, a_witness = _dense_condition_a(z, stage, series[k])
        b_passed, image_dim, b_witness = _dense_condition_b(z, series[k])
        conditions.append(
            ConditionKReport(k, a_passed, b_passed, image_dim, a_witness, b_witness)
        )
    overall = all(c.a_passed and c.b_passed for c in conditions)
    return AdmissibilityReport(overall=overall, conditions=tuple(conditions))


# ---------------------------------------------------------------------------
# pinned differential expansions
# ---------------------------------------------------------------------------


def _neg(v):
    return tuple(-x for x in v)


def pinned_expansion_failures(seed: int = 2024, rounds: int = 12) -> list[str]:
    """Replay every hand-expanded differential identity on random cochains.

    Returns the names of the identities that fail; an empty list means the
    differential matches all of the hand expansions.
    """
    rg = rng(seed)
    failures: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failures.append(name)

    module = OrthogonalModule(Matrix.identity(2))

    l5 = five_dim_three_step()
    x1, x2, x3, zz, yy = (unit_vector(5, k) for k in range(5))
    for _ in range(rounds):
        a = random_cochain(rg, 5, 2, 2)
        da = differential(l5, a)
        check("dim5.a1", dense_evaluate(da, (x2, x3, zz)) == _neg(dense_evaluate(a, (yy, zz))))
        check(
            "dim5.a2",
            dense_evaluate(da, (x1, x2, x3))
            == _neg(vec_add(dense_evaluate(a, (zz, x3)), dense_evaluate(a, (yy, x1)))),
        )
        check("dim5.a3", dense_evaluate(da, (x1, zz, x2)) == _neg(dense_evaluate(a, (yy, x2))))
        check("dim5.a4", dense_evaluate(da, (x1, zz, x3)) == _neg(dense_evaluate(a, (yy, x3))))
        half = Fraction(dense_evaluate(wedge_pair(module, a, a), (x1, x3, yy, zz))[0]) / 2
        expected = (
            dense_pairing(module.gram, dense_evaluate(a, (x1, x3)), dense_evaluate(a, (yy, zz)))
            + dense_pairing(module.gram, dense_evaluate(a, (x3, yy)), dense_evaluate(a, (x1, zz)))
            + dense_pairing(module.gram, dense_evaluate(a, (yy, x1)), dense_evaluate(a, (x3, zz)))
        )
        check("dim5.half_wedge", half == expected)
        g = random_cochain(rg, 5, 3, 1, scalar=True)
        dg = differential(l5, g)
        check("dim5.dgamma_vanishes", dense_evaluate(dg, (x1, x3, yy, zz)) == (Fraction(0),))

    l7 = seven_dim_two_step()
    x1, x2, x3, x4, x5, yy, zz = (unit_vector(7, k) for k in range(7))
    for _ in range(rounds):
        a = random_cochain(rg, 7, 2, 2)
        da = differential(l7, a)
        check(
            "dim7.a1",
            dense_evaluate(da, (x1, x2, x3))
            == tuple(
                p + q
                for p, q in zip(_neg(dense_evaluate(a, (yy, x3))), dense_evaluate(a, (zz, x2)))
            ),
        )
        check("dim7.a2", dense_evaluate(da, (x2, x3, x4)) == _neg(dense_evaluate(a, (yy, x2))))
        check("dim7.a3", dense_evaluate(da, (x2, x3, x5)) == _neg(dense_evaluate(a, (zz, x2))))
        check(
            "dim7.a4",
            dense_evaluate(da, (x1, x3, x5))
            == _neg(vec_add(dense_evaluate(a, (zz, x5)), dense_evaluate(a, (zz, x1)))),
        )
        check(
            "dim7.a5",
            dense_evaluate(da, (x1, x3, x4))
            == _neg(vec_add(dense_evaluate(a, (zz, x4)), dense_evaluate(a, (yy, x1)))),
        )

    l6 = six_dim_two_step()
    x1, x2, x3, x4, yy, zz = (unit_vector(6, k) for k in range(6))
    for _ in range(rounds):
        a = random_cochain(rg, 6, 2, 2)
        da = differential(l6, a)
        check(
            "dim6.a1",
            dense_evaluate(da, (x1, x2, x3))
            == tuple(
                p + q
                for p, q in zip(_neg(dense_evaluate(a, (yy, x3))), dense_evaluate(a, (zz, x2)))
            ),
        )
        check("dim6.a2", dense_evaluate(da, (x1, x2, x4)) == _neg(dense_evaluate(a, (yy, x4))))
        check(
            "dim6.a3",
            dense_evaluate(da, (x1, x3, x4))
            == _neg(vec_add(dense_evaluate(a, (zz, x4)), dense_evaluate(a, (zz, x1)))),
        )
        check("dim6.a4", dense_evaluate(da, (x2, x3, x4)) == _neg(dense_evaluate(a, (zz, x2))))
        g = random_cochain(rg, 6, 3, 1, scalar=True)
        dg = differential(l6, g)
        check(
            "dim6.g1",
            dense_evaluate(dg, (zz, x1, x2, x3)) == _neg(dense_evaluate(g, (yy, zz, x3))),
        )
        check(
            "dim6.g2",
            dense_evaluate(dg, (zz, x1, x2, x4)) == _neg(dense_evaluate(g, (yy, zz, x4))),
        )
        check(
            "dim6.g3",
            dense_evaluate(dg, (yy, x1, x3, x4))
            == vec_add(dense_evaluate(g, (yy, zz, x4)), dense_evaluate(g, (yy, zz, x1))),
        )
        check(
            "dim6.g4",
            dense_evaluate(dg, (yy, x2, x3, x4)) == dense_evaluate(g, (yy, zz, x2)),
        )

    return failures
