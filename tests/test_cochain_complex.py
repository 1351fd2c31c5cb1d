import ast
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from metriclie import cochain_complex
from metriclie.catalog import (
    FORM_TERMS,
    GAMMA0_TERMS,
    g41,
    g64,
    g64_admissible_cocycle,
    heisenberg_line,
    module_for_tag,
    orthonormal_module,
)
from metriclie.cochain_complex import (
    Cochain,
    Isomap,
    OrthogonalModule,
    cochain_from_terms,
    cohomology_dim,
    differential,
    differential_matrix,
    is_isometry,
    is_lie_homomorphism,
    pullback,
    wedge_pair,
)
from metriclie.exact_linalg import Matrix, Subspace, _dense, rank, unit_vector
from metriclie.lie_core import LieAlgebra, abelian, center, lower_central_series

from support import (
    catalog_algebras,
    dense_apply,
    dense_differential,
    dense_evaluate,
    dense_is_lie_homomorphism,
    dense_pairing,
    dense_pullback,
    dense_wedge_pair,
    five_dim_three_step,
    is_canonical,
    pinned_expansion_failures,
    random_cochain,
    random_sparse_table,
    rational,
    rng,
)

def form_on(terms, module_dim, n=4):
    resolved = []
    for coeff, indices, target in terms:
        value = tuple(
            Fraction(coeff) if t == target else Fraction(0) for t in range(module_dim)
        )
        resolved.append((indices, value))
    return cochain_from_terms(n, 2, module_dim, resolved)


def gamma0(n=4):
    return cochain_from_terms(
        n, 3, 1, [(key, (Fraction(c),)) for c, key in GAMMA0_TERMS], scalar=True
    )


def test_cochain_normalizes_index_order():
    c = cochain_from_terms(4, 2, 1, [((2, 0), (Fraction(5),))], scalar=True)
    assert c.values == {(0, 2): (Fraction(-5),)}
    assert cochain_from_terms(4, 2, 1, [((2, 0), (5,)), ((0, 2), (5,))], scalar=True).is_zero()


def test_cochain_from_terms_rejects_a_repeated_index():
    with pytest.raises(ValueError, match=r"the term on \(1, 1\) has a repeated index"):
        cochain_from_terms(3, 2, 1, [((1, 1), (5,))])


def test_cochain_rejects_bad_keys():
    with pytest.raises(ValueError):
        Cochain(3, 2, 1, True, {(0, 0): (Fraction(1),)})
    with pytest.raises(ValueError):
        Cochain(3, 2, 1, True, {(0, 3): (Fraction(1),)})


def test_evaluate_is_multilinear_alternating():
    rg = rng(3)
    c = random_cochain(rg, 5, 3, 2)
    x = tuple(rational(rg) for _ in range(5))
    y = tuple(rational(rg) for _ in range(5))
    z = tuple(rational(rg) for _ in range(5))
    assert dense_evaluate(c, (x, y, z)) == tuple(-v for v in dense_evaluate(c, (y, x, z)))
    assert dense_evaluate(c, (x, x, z)) == (Fraction(0), Fraction(0))


def test_module_validation_errors():
    with pytest.raises(ValueError):
        OrthogonalModule(Matrix.from_rows([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        OrthogonalModule(Matrix.from_rows([[1, 1], [1, 1]]))


def test_pinned_differential_expansions():
    assert pinned_expansion_failures() == []


def test_every_3_cochain_on_g41_is_closed():
    assert not any(differential_matrix(g41(), None, 3).nonzero_rows)


def test_wedge_square_of_split_cocycle_vanishes():
    z = g64_admissible_cocycle()
    assert wedge_pair(z.module, z.alpha, z.alpha).is_zero()


def test_wedge_square_euclidean_counterexample():
    module = orthonormal_module([1])
    alpha = cochain_from_terms(
        4,
        2,
        1,
        [((0, 1), (Fraction(1),)), ((2, 3), (Fraction(1),))],
    )
    square = wedge_pair(module, alpha, alpha)
    assert square.values == {(0, 1, 2, 3): (Fraction(2),)}


def test_wedge_square_shuffle_expansion():
    rg = rng(23)
    module = orthonormal_module([1, 1, -1])
    gram = module.gram
    for _ in range(8):
        a = random_cochain(rg, 5, 2, 3)
        square = wedge_pair(module, a, a)
        args = tuple(tuple(rational(rg) for _ in range(5)) for _ in range(4))
        x1, x2, x3, x4 = args
        expected = 2 * (
            dense_pairing(gram, dense_evaluate(a, (x1, x2)), dense_evaluate(a, (x3, x4)))
            - dense_pairing(gram, dense_evaluate(a, (x1, x3)), dense_evaluate(a, (x2, x4)))
            + dense_pairing(gram, dense_evaluate(a, (x1, x4)), dense_evaluate(a, (x2, x3)))
        )
        assert dense_evaluate(square, args) == (expected,)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (2, 1)])
def test_wedge_graded_symmetry(p, q):
    rg = rng(100 * p + q)
    module = orthonormal_module([-1, 1])
    for _ in range(6):
        c1 = random_cochain(rg, 4, p, 2)
        c2 = random_cochain(rg, 4, q, 2)
        lhs = wedge_pair(module, c1, c2)
        rhs = wedge_pair(module, c2, c1)
        if (p * q) % 2:
            rhs = rhs.scale(Fraction(-1))
        assert lhs == rhs


def test_wedge_leibniz_rule():
    rg = rng(31)
    l = five_dim_three_step()
    module = orthonormal_module([1, 1])
    for p, q in ((1, 1), (1, 2), (2, 2)):
        for _ in range(5):
            c1 = random_cochain(rg, 5, p, 2)
            c2 = random_cochain(rg, 5, q, 2)
            lhs = differential(l, wedge_pair(module, c1, c2))
            first = wedge_pair(module, differential(l, c1), c2)
            second = wedge_pair(module, c1, differential(l, c2))
            if p % 2:
                second = second.scale(Fraction(-1))
            assert lhs == first + second


def test_wedge_leibniz_rule_with_skew_action():
    # a non-abelian base, so the differentials are nonzero, and the indefinite
    # Witt plane, so the pairing mixes the two value coordinates
    rg = rng(37)
    l = g41()
    module = module_for_tag("r11w")
    for p, q in ((1, 1), (1, 2), (2, 1)):
        for _ in range(10):
            c1 = random_cochain(rg, 4, p, 2)
            c2 = random_cochain(rg, 4, q, 2)
            lhs = differential(l, wedge_pair(module, c1, c2))
            rhs = wedge_pair(module, differential(l, c1), c2) + (
                wedge_pair(module, c1, differential(l, c2)).scale(Fraction(-1) ** p)
            )
            assert lhs == rhs


def test_cohomology_dimensions_known_values():
    assert cohomology_dim(abelian(5), None, 3) == 10
    assert cohomology_dim(abelian(5), None, 0) == 1
    assert cohomology_dim(heisenberg_line(), None, 2) == 4
    for m in (1, 2):
        module = OrthogonalModule(Matrix.identity(m))
        assert cohomology_dim(heisenberg_line(), module, 2) == 4 * m


def test_cohomology_vanishes_above_the_dimension():
    for l in (abelian(0), g41(), heisenberg_line()):
        assert cohomology_dim(l, None, l.dim + 1) == 0
        assert cohomology_dim(l, module_for_tag("r11w"), l.dim + 1) == 0
    assert cohomology_dim(g41(), None, 10**12) == 0


def test_differential_matrix_outside_the_complex_enumerates_nothing():
    start = time.monotonic()
    with pytest.raises(ValueError, match="negative degree"):
        differential_matrix(g64(), None, -1)
    module = module_for_tag("r11w")
    assert differential_matrix(g64(), None, 10**12) == Matrix.zero(0, 0)
    assert differential_matrix(g64(), module, 10**12) == Matrix.zero(0, 0)
    # C^6 of the 6-dimensional g64 is one copy of the values, C^7 is zero
    assert differential_matrix(g64(), None, 6) == Matrix.zero(0, 1)
    assert differential_matrix(g64(), module, 6) == Matrix.zero(0, 2)
    d5 = differential_matrix(g64(), module, 5)
    assert (d5.rows, d5.cols) == (2, 12)
    assert time.monotonic() - start < 1.0


def test_cohomology_dim_builds_no_matrix(monkeypatch):
    cases = [
        (abelian(5), None, 3, 10),
        (abelian(17), None, 3, 680),
        (heisenberg_line(), None, 2, 4),
        (heisenberg_line(), OrthogonalModule(Matrix.identity(2)), 2, 8),
        (g64(), module_for_tag("r11w"), 6, 2),
    ]
    calls = []
    init = Matrix.__init__
    build = cochain_complex.differential_matrix

    def counting_init(self, cols, nonzero_rows):
        calls.append((len(nonzero_rows), cols))
        init(self, cols, nonzero_rows)

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(cochain_complex, "differential_matrix", counting_build)
    for l, module, p, expected in cases:
        assert cohomology_dim(l, module, p) == expected
    assert calls == []


def test_cohomology_invariant_under_basis_permutation():
    # same algebra presented on the reordered basis (X2, X1, Z, Y)
    neg_e2 = tuple(-c for c in unit_vector(4, 2))
    permuted = LieAlgebra(
        4, {(0, 1): neg_e2, (1, 2): unit_vector(4, 3)}
    )
    for p in range(4):
        assert cohomology_dim(permuted, None, p) == cohomology_dim(g41(), None, p)


def scaling_automorphism(c: Fraction) -> Matrix:
    return Matrix.diagonal([c, 1 / c**2, 1 / c, c**2])


@pytest.mark.parametrize("c", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_pullback_normalizes_gamma_scale(c):
    l = heisenberg_line()
    module = orthonormal_module([1, 1])
    s = scaling_automorphism(c)
    assert is_lie_homomorphism(s, l, l)
    iso = Isomap(s, Matrix.identity(2))
    alpha6 = form_on(FORM_TERMS["f6"], 2)
    assert pullback(iso, alpha6) == alpha6
    assert pullback(iso, gamma0().scale(c)) == gamma0()


def test_pullback_s5_pair_normalizes_sixteen():
    l = heisenberg_line()
    s5 = Matrix.diagonal([2, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])
    assert is_lie_homomorphism(s5, l, l)
    iso = Isomap(s5, Matrix.identity(2))
    alpha5 = form_on(FORM_TERMS["f5"], 2)
    assert pullback(iso, alpha5) == alpha5
    assert pullback(iso, gamma0().scale(Fraction(16))) == gamma0()


def test_pullback_commutes_with_differential():
    l = g41()
    s = Matrix.from_rows(
        [[1, 0, 0, 0], [2, 1, 0, 0], [3, 1, 1, 0], [1, 2, 1, 1]]
    )
    # columns: S(X1)=X1+2X2+3Z+Y, S(X2)=X2+Z+2Y, S(Z)=Z+Y, S(Y)=Y
    assert is_lie_homomorphism(s, l, l)
    module = orthonormal_module([1, 1])
    u = Matrix.from_rows([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    assert is_isometry(u, module.gram, module.gram)
    iso = Isomap(s, u)
    rg = rng(41)
    for degree in (1, 2):
        for _ in range(6):
            c = random_cochain(rg, 4, degree, 2)
            assert pullback(iso, differential(l, c)) == differential(
                l, pullback(iso, c)
            )


def test_pullback_preserves_wedge_pairing():
    l = g41()
    s = Matrix.diagonal([2, 3, 6, 12])
    assert is_lie_homomorphism(s, l, l)
    module = orthonormal_module([1, 1])
    u = Matrix.from_rows([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
    iso = Isomap(s, u)
    scalar_iso = Isomap(s)
    rg = rng(43)
    for _ in range(6):
        c1 = random_cochain(rg, 4, 1, 2)
        c2 = random_cochain(rg, 4, 2, 2)
        transported = wedge_pair(module, pullback(iso, c1), pullback(iso, c2))
        assert transported == pullback(scalar_iso, wedge_pair(module, c1, c2))


def test_pullback_needs_module_map_for_vector_values():
    alpha = form_on(FORM_TERMS["f7"], 1)
    iso = Isomap(Matrix.identity(4))
    with pytest.raises(ValueError):
        pullback(iso, alpha)


def test_non_automorphism_is_detected():
    l = g41()
    s = Matrix.diagonal([1, 1, 1, 5])
    assert not is_lie_homomorphism(s, l, l)


def random_grid(rg, rows, cols, density):
    """A plain-list grid with a zero row about a third of the time."""
    grid = [[rational(rg) if rg.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]
    if rows and rg.random() < 0.3:
        grid[rg.randrange(rows)] = [Fraction(0)] * cols
    return grid


def test_pullback_matches_the_dense_reference(monkeypatch):
    """600 seeded (S, U, c) of degree 0 to 4: the expansion of the stored keys
    through the rows of S equals the evaluation of c by minors on the
    columns of S, keys in the same order.  The expansion sorts each choice
    of stored S entries in distinct columns once, and builds no choice that
    repeats a column."""
    calls = []
    sort_with_sign = cochain_complex.sort_with_sign

    def counting_sort(indices):
        calls.append(tuple(indices))
        return sort_with_sign(indices)

    monkeypatch.setattr(cochain_complex, "sort_with_sign", counting_sort)
    rg = rng(6060)
    seen = set()
    distinct = repeated = 0
    for _ in range(600):
        n, n1 = rg.randint(0, 5), rg.randint(0, 5)
        s = Matrix.from_rows(random_grid(rg, n, n1, rg.choice((0.2, 0.5, 0.9))), cols=n1)
        scalar = rg.random() < 0.3
        value_dim = 1 if scalar else rg.randint(1, 3)
        degree = rg.randint(0, min(4, n))
        c = random_cochain(rg, n, degree, value_dim, scalar, density=rg.choice((0.3, 0.8)))
        u = None
        if not scalar or rg.random() < 0.5:
            u = Matrix.from_rows(random_grid(rg, rg.randint(1, 3), value_dim, 0.6), cols=value_dim)
        got, expected = pullback(Isomap(s, u), c), dense_pullback(Isomap(s, u), c)
        assert got == expected and list(got.values) == list(expected.values)
        for key, value in c.values.items():
            if u is not None and not scalar and not any(dense_apply(u, value)):
                continue  # U v = 0: the key is skipped before any choice
            for choice in product(*[s.nonzero_rows[k] for k in key]):
                if len(set(choice)) == len(choice):
                    distinct += 1
                else:
                    repeated += 1
        if c.values:
            seen.add("degree 0" if degree == 0 else "degree > n1" if degree > n1 else "degree <= n1")
            seen.add("square" if n == n1 else "non-square")
            seen.add("nonzero" if got.values else "zero")
            if not all(s.nonzero_rows):
                seen.add("zero row of S")
            if u is not None and not all(u.nonzero_rows):
                seen.add("zero row of U")
            if scalar:
                seen.add("scalar without U" if u is None else "scalar with U")
    assert seen == {
        "degree 0", "degree > n1", "degree <= n1", "square", "non-square", "nonzero", "zero",
        "zero row of S", "zero row of U", "scalar without U", "scalar with U",
    }
    assert [call for call in calls if len(set(call)) < len(call)] == []
    assert len(calls) == distinct and repeated > 0


def test_pullback_along_the_identity_visits_one_choice(monkeypatch):
    """A one-key 3-form on a 64-dimensional algebra, pulled back along the
    identity: one choice of entries of S, where evaluating the form on
    every 3-tuple of columns would take C(64, 3) = 41,664 minors."""
    calls = []
    sort_with_sign = cochain_complex.sort_with_sign

    def counting_sort(indices):
        calls.append(tuple(indices))
        return sort_with_sign(indices)

    monkeypatch.setattr(cochain_complex, "sort_with_sign", counting_sort)
    c = Cochain(64, 3, 2, False, {(3, 17, 60): (1, Fraction(-1, 2))})
    assert pullback(Isomap(Matrix.identity(64), Matrix.identity(2)), c) == c
    assert calls == [(3, 17, 60)]


def central_map(rg, source, target):
    """A homomorphism S = S0 + N: S0 the identity when source is target, else
    zero, and N a random map into the center of target that kills the
    derived algebra of source, so every [S e_i, S e_j] = S0 [e_i, e_j]."""
    n, n1 = target.dim, source.dim
    grid = [[Fraction(int(i == j and source is target)) for j in range(n1)] for i in range(n)]
    derived = [dict(row) for row in lower_central_series(source)[1].rows]
    for z in center(target).rows:
        for phi in Subspace.kernel(n1, derived).rows:  # functionals that vanish on [l, l]
            c = rational(rg)
            for t, x in z.items():
                for j, y in phi.items():
                    grid[t][j] += c * x * y
    return grid


def test_is_lie_homomorphism_matches_the_dense_reference():
    """600 seeded maps between g41, g64 and h1R: random ones, homomorphisms
    into the center (plus the identity on an algebra) and those maps with one
    entry changed.  The sparse check agrees with the dense brackets."""
    rg = rng(6061)
    algebras = [g41(), g64(), heisenberg_line()]
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        source, target = rg.choice(algebras), rg.choice(algebras)
        kind = rg.choice(("random", "central", "changed"))
        if kind == "random":
            grid = random_grid(rg, target.dim, source.dim, rg.choice((0.2, 0.6)))
        else:
            grid = central_map(rg, source, target)
            if kind == "changed":
                grid[rg.randrange(target.dim)][rg.randrange(source.dim)] += rational(rg) or 1
        s = Matrix.from_rows(grid, cols=source.dim)
        verdict = is_lie_homomorphism(s, source, target)
        assert verdict == dense_is_lie_homomorphism(s, source, target)
        assert verdict or kind != "central"
        verdicts[verdict] += 1
    assert verdicts[True] > 150 and verdicts[False] > 150


# ---------------------------------------------------------------------------
# the sparse kernels against the dense references in support.py
# ---------------------------------------------------------------------------


def random_gram(rg, m):
    """A random nondegenerate symmetric form on Q^m."""
    while True:
        rows = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                if rg.random() < 0.6:
                    rows[i][j] = rows[j][i] = rational(rg)
        gram = Matrix.from_rows(rows)
        if rank(gram) == m:
            return gram


@pytest.fixture(scope="module")
def kernel_algebras():
    """Random sparse tables (Lie or not), every catalog base and every double."""
    rg = rng(5051)
    return [random_sparse_table(rg, rg.randint(3, 7)) for _ in range(60)] + catalog_algebras()


def assert_same(fast, dense):
    assert fast == dense
    assert list(fast.values) == list(dense.values)


def test_differential_matches_the_dense_reference(kernel_algebras):
    rg = rng(5052)
    for l in kernel_algebras:
        for degree in range(min(4, l.dim) + 1):
            density = rg.choice((0.05, 0.3, 0.8))
            c = random_cochain(rg, l.dim, degree, rg.randint(1, 4), density=density)
            assert_same(differential(l, c), dense_differential(l, c))


def test_wedge_pair_matches_the_dense_reference(kernel_algebras):
    rg = rng(5053)
    for l in kernel_algebras:
        m = rg.randint(1, 4)
        module = OrthogonalModule(random_gram(rg, m))
        p = rg.randint(0, min(4, l.dim))
        q = rg.randint(0, min(4, 5 - p, l.dim - p))
        c1 = random_cochain(rg, l.dim, p, m, density=rg.choice((0.1, 0.5)))
        c2 = random_cochain(rg, l.dim, q, m, density=rg.choice((0.1, 0.5)))
        assert_same(wedge_pair(module, c1, c2), dense_wedge_pair(module, c1, c2))
        if 2 * p <= l.dim:
            assert_same(wedge_pair(module, c1, c1), dense_wedge_pair(module, c1, c1))


def test_differential_of_an_empty_cochain_does_no_work(monkeypatch):
    calls = []
    sort_with_sign = cochain_complex.sort_with_sign
    targets = cochain_complex._bracket_targets

    def counting_sort(indices):
        calls.append(indices)
        return sort_with_sign(indices)

    def counting_targets(l):
        calls.append(l)
        return targets(l)

    h15 = LieAlgebra(15, {(i, 7 + i): unit_vector(15, 14) for i in range(7)})
    cases = ((abelian(60), 2), (h15, 3))
    monkeypatch.setattr(cochain_complex, "sort_with_sign", counting_sort)
    monkeypatch.setattr(cochain_complex, "_bracket_targets", counting_targets)
    for l, degree in cases:
        d = differential(l, Cochain.zero(l.dim, degree, 1, scalar=True))
        assert d == Cochain.zero(l.dim, degree + 1, 1, scalar=True)
    assert calls == []


def test_wedge_pair_visits_only_pairs_of_stored_keys(monkeypatch):
    probes = []

    class Probed(dict):
        def get(self, key, default=None):
            probes.append(key)
            return dict.get(self, key, default)

        def __getitem__(self, key):
            probes.append(key)
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            probes.append(key)
            return dict.__contains__(self, key)

    sort_with_sign = cochain_complex.sort_with_sign

    def counting_sort(indices):
        probes.append(indices)
        return sort_with_sign(indices)

    rg = rng(5054)
    module = module_for_tag("r11w")
    c1 = random_cochain(rg, 12, 2, 2, density=0.06)
    c2 = random_cochain(rg, 12, 2, 2, density=0.06)
    assert c1.rows and c2.rows
    expected = dense_wedge_pair(module, c1, c2)
    for c in (c1, c2):  # Cochain is frozen: install the probes past its __setattr__
        object.__setattr__(c, "rows", Probed(c.rows))
    monkeypatch.setattr(cochain_complex, "sort_with_sign", counting_sort)
    assert wedge_pair(module, c1, c2) == expected
    assert 0 < len(probes) <= len(c1.rows) * len(c2.rows)


def test_cochain_is_immutable():
    c = Cochain(4, 2, 2, False, {(0, 1): (1, 2)})
    with pytest.raises(TypeError):
        c.rows[(0, 1)] = {0: 5, 1: 5}
    with pytest.raises(TypeError):
        c.rows[(2, 3)] = {0: 1}
    with pytest.raises(TypeError):
        c.values[(0, 1)] = (5, 5)  # the dense view is read-only too
    rows = c.rows
    for name in ("rows", "values", "degree"):
        with pytest.raises(AttributeError):
            setattr(c, name, {})
    assert c.rows is rows and c.rows == {(0, 1): {0: 1, 1: 2}} and c.degree == 2
    assert c == Cochain(4, 2, 2, False, {(0, 1): (Fraction(1), Fraction(2))})


def test_cochain_stores_dense_and_sparse_values_as_the_same_canonical_rows():
    """Each value, dense or the sparse map of its nonzero entries, is stored as
    the same row: canonical scalars (ints, and Fractions with denominator
    > 1) and no zero; an all-zero value stores no key."""
    exact = (1, Fraction(-1, 2))
    dense = {(0,): exact, (1,): (0, Fraction(0)), (2,): [3, "1/3"]}
    loose = {(0,): (Fraction(4, 2), 0.5), (1,): (True, 0)}
    for values, rows in (
        (dense, {(0,): {0: 1, 1: Fraction(-1, 2)}, (2,): {0: 3, 1: Fraction(1, 3)}}),
        (loose, {(0,): {0: 2, 1: Fraction(1, 2)}, (1,): {0: 1}}),
    ):
        sparse = {key: {t: x for t, x in enumerate(v) if x} for key, v in values.items()}
        made = [Cochain(3, 1, 2, False, values), Cochain(3, 1, 2, False, sparse)]
        for c in made:
            assert c == made[0] and hash(c) == hash(made[0])
            assert c.rows == rows and all(row for row in c.rows.values())
            assert all(is_canonical(x) for row in c.rows.values() for x in row.values())
            assert [type(x) for row in c.rows.values() for x in row.values()] == [
                type(x) for row in rows.values() for x in row.values()
            ]
            assert c.values == {key: _dense(row, 2) for key, row in rows.items()}
    for bad in ({(0,): (Fraction(1),)}, {(0,): {2: 1}}, {(0,): {-1: 1}}):
        with pytest.raises(ValueError):
            Cochain(3, 1, 2, False, bad)
    with pytest.raises(ValueError):
        Cochain(3, 2, 1, True, {(1, 0): (Fraction(1),)})


def test_differential_columns_index_the_brackets_once(monkeypatch):
    builds = []
    targets = cochain_complex._bracket_targets

    def counting_targets(l):
        builds.append(l)
        return targets(l)

    monkeypatch.setattr(cochain_complex, "_bracket_targets", counting_targets)
    # d_3 and d_2 on the 20 basis 3-cochains and the 15 basis 2-cochains
    cohomology_dim(g64(), None, 3)
    assert len(builds) == 2
    builds.clear()
    differential_matrix(g64(), None, 2)
    assert len(builds) == 1


def uncalled_values_reads(tree: ast.Module) -> list[int]:
    """The lines of ``tree`` that read an attribute ``values`` other than as
    the callee of a call (so ``row.values()`` does not count)."""
    callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "values"
                  and id(node) not in callees)


def test_the_guard_sees_a_read_of_the_dense_view():
    tree = ast.parse("a = c.values\nb = row.values()\nd = c.values.get(k)\nf(c.values)\n")
    assert uncalled_values_reads(tree) == [1, 3, 4]


def test_no_module_of_the_package_reads_the_dense_values_view():
    """The package reads a cochain through its sparse ``rows``, and the
    serializer writes the files from them too: no module, ``schema.py``
    included, reads the dense ``values`` view."""
    package = Path(cochain_complex.__file__).resolve().parent
    reads = {path.name: uncalled_values_reads(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert "schema.py" in reads
    assert {name: lines for name, lines in reads.items() if lines} == {}
