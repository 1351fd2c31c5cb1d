from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclie.exact_linalg import (
    Matrix,
    Signature,
    Subspace,
    _combine,
    _row_of,
    kernel_basis,
    rank,
    scalar,
    signature_of,
    solve,
    solve_affine,
    unit_vector,
)
from metriclie import schema
from metriclie.catalog import (
    ENTRIES,
    MODULE_BUILDERS,
    g64,
    g64_admissible_cocycle,
    g65,
    g65_admissible_cocycle,
    heisenberg,
    instantiate,
    module_for_tag,
    run_catalog,
)
from metriclie.cochain_complex import Cochain, differential_matrix
from metriclie.double_construction import build_double
from metriclie.lie_core import LieAlgebra, center, lower_central_series
from metriclie.quadratic_cohomology import half_wedge_square

from support import (
    _cochain_from_vector,
    _random_span_element,
    _vectorize,
    alternating_value,
    catalog_pairs,
    dense_apply,
    dense_basis,
    dense_bracket,
    dense_det,
    dense_evaluate,
    dense_form,
    dense_grid,
    dense_kernel,
    dense_matrix_row,
    dense_nonzero_rows,
    dense_rref,
    dense_signature_of,
    dense_solve_affine,
    dense_span,
    dense_vector,
    filiform_double,
    five_dim_three_step,
    is_canonical,
    plain_product,
    plain_transpose,
    random_cochain,
    random_elimination_case,
    random_square_grid,
    random_symmetric_case,
    random_symmetric_grid,
    rational,
    rng,
    scale_doubles,
    seven_dim_two_step,
    six_dim_two_step,
    sparse_row,
    stored_contract_violations,
)

fractions = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)


def square(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: Matrix.from_rows(rows))


def rectangular(max_side=4):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(fractions, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: Matrix.from_rows(rows, cols=shape[1]))
    )


def span(n, vectors):
    """The span of dense vectors, through ``Subspace.of_rows``."""
    return Subspace.of_rows(n, [sparse_row(dense_vector(v)) for v in vectors])


def symmetrized(m):
    """M + M^T, summed entry by entry on plain lists."""
    grid = dense_grid(m)
    return Matrix.from_rows([[x + grid[j][i] for j, x in enumerate(row)] for i, row in enumerate(grid)])


def test_rref_known_matrix():
    m = Matrix.from_rows([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    assert dense_basis(span(3, dense_grid(m))) == (dense_vector([1, 0, -1]), dense_vector([0, 1, 2]))


def test_kernel_of_known_matrix():
    m = Matrix.from_rows([[1, 1, 0], [0, 0, 1]])
    basis = kernel_basis(m)
    assert basis == [dense_vector([-1, 1, 0])]


def test_solve_affine_particular_and_kernel():
    a = Matrix.from_rows([[1, 1], [2, 2]])
    solution = solve_affine(a, dense_vector([3, 6]))
    assert solution is not None
    particular, kernel = solution
    assert dense_apply(a, particular) == dense_vector([3, 6])
    assert len(kernel) == 1
    assert solve_affine(a, dense_vector([3, 5])) is None


def test_det_examples():
    # the reference determinant behind dense_evaluate and dense_pullback
    assert dense_det(Matrix.identity(3)) == 1
    assert dense_det(Matrix.from_rows([[0, 1], [1, 0]])) == -1
    assert dense_det(Matrix.from_rows([[2, 0], [7, 3]])) == 6
    assert dense_det(Matrix.zero(0, 0)) == 1


def test_signature_orders_negatives_first():
    m = Matrix.diagonal([5, -2, 0, 1])
    assert signature_of(m).as_tuple() == (1, 2, 1)
    assert signature_of(m).dim == 4


def test_signature_of_witt_planes():
    witt2 = Matrix.from_rows([[0, 1], [1, 0]])
    assert signature_of(witt2).as_tuple() == (1, 1, 0)
    witt4 = Matrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    assert signature_of(witt4).as_tuple() == (2, 2, 0)


def test_signature_handles_coupled_zero_diagonal():
    # zero diagonal entry whose only partner also has zero diagonal
    m = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 3]])
    assert signature_of(m).as_tuple() == (1, 2, 0)


def test_subspace_span_canonicalizes():
    basis = dense_basis(span(3, [dense_vector([2, 2, 0]), dense_vector([1, 1, 1])]))
    assert basis == (dense_vector([1, 1, 0]), dense_vector([0, 0, 1]))


def test_subspace_form_restricts_the_form():
    gram = Matrix.diagonal([1, 1, -1])
    null_line = span(3, [dense_vector([1, 0, 1])])
    assert dense_grid(null_line.form(gram)) == [[Fraction(0)]]
    assert not null_line.is_nondegenerate(gram)
    assert span(3, []).is_nondegenerate(gram)
    assert span(3, [dense_vector([1, 0, 0])]).is_nondegenerate(gram)


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="^a matrix row has wrong length$"):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="does not match cols"):
        Matrix.from_rows([[1, 2]], cols=3)


def test_the_row_reader_is_the_one_way_from_a_value_to_a_stored_row():
    """``_row_of`` reads a dense sequence or a sparse map into the canonical
    row without zeros, and every constructor that takes values reports its
    errors through it, with the messages of the readers it replaced."""
    half = Fraction(1, 2)
    for value in ((0, "1/2", Fraction(4, 2), 0.0), [0, half, 2, 0], {1: "1/2", 2: 2.0, 3: 0}):
        row = _row_of(value, 4, "v")
        assert row == {1: half, 2: 2} and type(row[2]) is int
    assert _row_of({}, 0, "v") == {} and _row_of((), 0, "v") == {}
    for value, message in (((1, 2), "v has wrong length"), ({4: 1}, "v has an index out of range"),
                           ({-1: 1}, "v has an index out of range")):
        with pytest.raises(ValueError, match="^%s$" % message):
            _row_of(value, 3, "v")

    class Unprintable:
        def __str__(self):
            raise AssertionError("the label was formatted")

    # the label is a format and its arguments, formatted only for an error
    for value in ((1, 0), {0: 1}):
        assert _row_of(value, 2, "v%s", Unprintable()) == {0: 1}
    with pytest.raises(ValueError, match=r"^value for \(0, 1\) has wrong length$"):
        _row_of((1,), 2, "value for %s", (0, 1))
    rejected = [
        (lambda: LieAlgebra(3, {(0, 1): (0, 1)}), "bracket value for (0, 1) has wrong length"),
        (lambda: LieAlgebra(3, {(0, 1): {3: 1}}), "bracket value for (0, 1) has an index out of range"),
        (lambda: Cochain(3, 2, 2, False, {(0, 1): (1,)}), "value for (0, 1) has wrong length"),
        (lambda: Cochain(3, 2, 2, False, {(0, 1): {2: 1}}), "value for (0, 1) has an index out of range"),
    ]
    for build, message in rejected:
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message
    assert Matrix.diagonal([half, 0, "3"]).nonzero_rows == ({0: half}, {}, {2: 3})


@settings(max_examples=60)
@given(rectangular())
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60)
@given(rectangular())
def test_kernel_vectors_annihilated(m):
    for vec in kernel_basis(m):
        assert not any(dense_apply(m, vec))


@settings(max_examples=60)
@given(rectangular(), st.lists(fractions, min_size=1, max_size=4))
def test_solve_affine_solutions_check_out(m, coeffs):
    coeffs = (coeffs * m.cols)[: m.cols]
    b = dense_apply(m, tuple(coeffs))
    solution = solve_affine(m, b)
    assert solution is not None
    particular, kernel = solution
    assert dense_apply(m, particular) == b
    for vec in kernel:
        assert not any(dense_apply(m, vec))


@settings(max_examples=40)
@given(square(3), square(3))
def test_det_is_multiplicative(a, b):
    assert dense_det(a @ b) == dense_det(a) * dense_det(b)


@settings(max_examples=40)
@given(square(3), square(3))
def test_signature_is_congruence_invariant(g, s):
    sym = symmetrized(g)
    if rank(s) < 3:
        return
    transported = s.transpose() @ sym @ s
    assert signature_of(transported).as_tuple() == signature_of(sym).as_tuple()


@settings(max_examples=40)
@given(square(2), square(3))
def test_signature_additive_on_blocks(a, b):
    sa, sb = symmetrized(a), symmetrized(b)
    rows = []
    for i in range(2):
        rows.append(list(dense_matrix_row(sa, i)) + [0] * 3)
    for i in range(3):
        rows.append([0] * 2 + list(dense_matrix_row(sb, i)))
    combined = signature_of(Matrix.from_rows(rows))
    pa, pb = signature_of(sa), signature_of(sb)
    assert combined.as_tuple() == (
        pa.neg + pb.neg,
        pa.pos + pb.pos,
        pa.null + pb.null,
    )


def test_signature_dataclass_accessors():
    sig = Signature(2, 3, 1)
    assert sig.neg == 2 and sig.pos == 3 and sig.null == 1
    assert sig.dim == 6


def test_combine_matches_reference_contractions():
    rg = rng(11)

    def sparse_vector(n):
        return tuple(rational(rg) if rg.random() < 0.5 else Fraction(0) for _ in range(n))

    # ad(e_i) w over the stored rows against the bilinear bracket with a unit vector
    for l in (heisenberg(), five_dim_three_step(), g64(), g65()):
        n = l.dim
        for _ in range(10):
            w = sparse_vector(n)
            for i in range(n):
                expected = dense_bracket(l, unit_vector(n, i), w)
                assert _combine(sparse_row(w), l.row(i).get) == sparse_row(expected)
    # c(v, e_rest...) against multilinear cochain evaluation
    n = 5
    for degree in (1, 2, 3):
        c = random_cochain(rg, n, degree, 2)
        for rest in combinations(range(n), degree - 1):
            v = sparse_vector(n)
            expected = dense_evaluate(c, [v] + [unit_vector(n, r) for r in rest])
            got = _combine(sparse_row(v), lambda k: sparse_row(alternating_value(c, (k,) + rest)))
            assert got == sparse_row(expected)


def test_combine_matches_a_dense_sum_and_keeps_its_inputs():
    """Random sparse coefficients and rows (some rows missing), many rows a
    multiple of an earlier one that cancels its term: the result is the
    dense sum, stores no zero, is a fresh map, and leaves the coefficients
    and every row as they were."""
    rg = rng(7077)
    cancelled = 0
    for _ in range(1500):
        width, count = rg.randint(0, 6), rg.randint(0, 6)
        coeffs = sparse_row([rational(rg) if rg.random() < 0.7 else 0 for _ in range(count)])
        table = {}
        for k in range(count):
            if table and k in coeffs and rg.random() < 0.4:
                source = rg.choice(list(table))
                f = -coeffs.get(source, 1) / coeffs[k]
                table[k] = {j: f * x for j, x in table[source].items()}
            elif rg.random() < 0.9:
                table[k] = sparse_row([rational(rg) if rg.random() < 0.5 else 0 for _ in range(width)])
        before = (dict(coeffs), {k: dict(row) for k, row in table.items()})
        got = _combine(coeffs, table.get)
        dense = [Fraction(0)] * width
        for k, c in coeffs.items():
            for j, x in table.get(k, {}).items():
                dense[j] += c * x
        assert got == sparse_row(dense) and all(got.values())
        assert (coeffs, table) == before
        assert all(got is not row for row in table.values())
        cancelled += any(
            not dense[j] and sum(1 for k in coeffs if j in table.get(k, {})) > 1 for j in range(width)
        )
    assert cancelled > 100


def test_sparse_elimination_matches_the_dense_reference():
    rg = rng(8080)
    shapes = set()
    inconsistent = 0
    for _ in range(2400):
        m = random_elimination_case(rg)
        reduced, pivots = dense_rref(m)
        assert rank(m) == len(pivots)
        assert kernel_basis(m) == dense_kernel(m)
        assert dense_basis(span(m.cols, [dense_matrix_row(m, i) for i in range(m.rows)])) == tuple(
            dense_matrix_row(reduced, r) for r in range(len(pivots))
        )
        # one consistent right hand side and one drawn at random
        x = tuple(rational(rg) for _ in range(m.cols))
        for b in (dense_apply(m, x), tuple(rational(rg) for _ in range(m.rows))):
            expected = dense_solve_affine(m, b)
            assert solve_affine(m, b) == expected
            inconsistent += expected is None
        shapes.add((m.rows == 0, m.cols == 0, (m.rows > m.cols) - (m.rows < m.cols)))
        shapes.add(("rank deficient", len(pivots) < min(m.rows, m.cols)))
    assert {(True, False, -1), (False, True, 1), (False, False, -1), (False, False, 1)} <= shapes
    assert ("rank deficient", True) in shapes
    assert inconsistent > 100


def _keyed(row, keys) -> dict:
    """The sparse row ``row`` over column indices, keyed by ``keys[column]``."""
    return {keys[c]: x for c, x in row.items()}


def test_solve_reads_equations_keyed_by_basis_cochains_like_the_dense_references():
    """solve on equations keyed by the basis cochains (key, t), mutually
    ordered as the columns of d: the rows of d_2 on every catalog pair and on
    three larger algebras with three modules each give the kernel_basis
    (and dense kernel) of the int-keyed rows, re-keyed, and a zero
    particular solution.  The gamma equation d_3 gamma =
    1/2 <alpha ^ alpha> of random closed alphas, and d_3 gamma = d_3 x, with
    the constant under a key ordered after every 3-tuple, give
    dense_solve_affine's particular solution and kernel, or None with it.
    Every entry returned is canonical."""
    rg = rng(3636)
    solved = inconsistent = back_substituted = 0
    larger = [(f"{l.dim}-dim/{tag}", l, module_for_tag(tag))
              for l in (five_dim_three_step(), six_dim_two_step(), seven_dim_two_step())
              for tag in ("r01", "r11w", "r21")]
    for name, l, module in catalog_pairs() + larger:
        n, m = l.dim, 1 if module is None else module.dim
        d2 = differential_matrix(l, module, 2)
        keys = [(key, t) for key in combinations(range(n), 2) for t in range(m)]
        closed = kernel_basis(d2)
        assert closed == dense_kernel(d2), name
        kernel = [_keyed(sparse_row(v), keys) for v in closed]
        assert solve([_keyed(row, keys) for row in d2.nonzero_rows], keys) == ({}, kernel), name
        back_substituted += sum(len(v) > 1 for v in kernel)
        if module is None:
            continue
        d3 = differential_matrix(l, None, 3)
        keys3 = [(key, 0) for key in combinations(range(n), 3)]
        constant = ((n, n, n), 0)  # after every 3-tuple of indices < n
        for _ in range(3):
            alpha = _cochain_from_vector(_random_span_element(rg, closed, d2.cols), n, 2, m, False)
            x = tuple(rational(rg) for _ in keys3)
            for b in (_vectorize(half_wedge_square(module, alpha)), dense_apply(d3, x)):
                rows = [_keyed(row, keys3) for row in d3.nonzero_rows]
                for row, y in zip(rows, b):
                    if y:
                        row[constant] = scalar(y)
                expected, got = dense_solve_affine(d3, b), solve(rows, keys3)
                if expected is None:
                    assert got is None, name
                    inconsistent += 1
                    continue
                particular, kernel3 = expected
                assert got == (_keyed(sparse_row(particular), keys3),
                               [_keyed(sparse_row(v), keys3) for v in kernel3]), name
                assert all(map(is_canonical, got[0].values())), name
                assert all(is_canonical(x) for v in got[1] for x in v.values()), name
                solved += bool(got[0]) and len(got[1]) > 0
    assert solved > 20 and inconsistent > 20 and back_substituted > 10


def test_elimination_edge_cases():
    empty = Matrix.from_rows([], cols=4)
    assert kernel_basis(empty) == [unit_vector(4, i) for i in range(4)]
    assert solve_affine(empty, ()) == ((Fraction(0),) * 4, kernel_basis(empty))
    flat = Matrix.zero(3, 0)
    assert rank(flat) == 0 and kernel_basis(flat) == []
    assert solve_affine(flat, dense_vector([0, 0, 0])) == ((), [])
    assert solve_affine(flat, dense_vector([0, 1, 0])) is None
    # non-unit pivots, a duplicate row and a zero row
    m = Matrix.from_rows([[0, 3, 6], [0, 3, 6], [0, 0, 0], [2, 4, 1]])
    assert dense_basis(span(3, dense_grid(m))) == (dense_vector([1, 0, "-7/2"]), dense_vector([0, 1, 2]))
    assert dense_basis(span(2, [dense_vector([0, 0]), dense_vector([0, 5])])) == (dense_vector([0, 1]),)
    # pivot 1 is held by no earlier row (no back-elimination); pivot 2 is
    # held by the first row, which must be back-eliminated
    one = Fraction(1)
    rows = [{0: one, 2: one}, {1: one}, {2: one}]
    assert Subspace.of_rows(3, rows).rows == ({0: one}, {1: one}, {2: one})


def _random_vectors(rg, n, count):
    density = rg.choice((0.2, 0.5, 0.9))
    return [tuple(rational(rg) if rg.random() < density else Fraction(0) for _ in range(n))
            for _ in range(count)]


def test_every_subspace_constructor_stores_the_dense_reference_rows():
    rg = rng(7070)
    for _ in range(800):
        m = random_elimination_case(rg)
        n = m.cols
        vectors = [dense_matrix_row(m, i) for i in range(m.rows)]
        expected = dense_span(n, vectors)
        sparse = [sparse_row(v) for v in vectors]
        kernel = dense_span(n, dense_kernel(m))
        built = {
            "of_rows": (Subspace.of_rows(n, sparse), expected),
            "kernel": (Subspace.kernel(n, [dict(row) for row in sparse]), kernel),
            "full": (Subspace.full(n), dense_span(n, [unit_vector(n, i) for i in range(n)])),
        }
        for name, (space, reference) in built.items():
            assert space.rows == reference.rows, name
            assert [min(row) for row in space.rows] == sorted(min(row) for row in space.rows)
            assert dense_basis(space) == dense_basis(reference) and hash(space) == hash(reference)


def test_subspace_coords_match_the_dense_reference():
    rg = rng(7071)
    outside = 0
    for _ in range(800):
        n = rg.randint(0, 8)
        space = span(n, _random_vectors(rg, n, rg.randint(0, n + 1)))
        transpose = Matrix.from_rows([[b[j] for b in dense_basis(space)] for j in range(n)], cols=space.dim)
        inside = dense_apply(transpose, tuple(rational(rg) for _ in range(space.dim)))
        for v in (inside, *_random_vectors(rg, n, 2)):
            solved = dense_solve_affine(transpose, v)  # B^T c = v, c unique when solvable
            expected = None if solved is None else sparse_row(solved[0])
            sparse = sparse_row(v)
            assert space.coords(sparse) == expected and sparse == sparse_row(v)
            outside += expected is None
    assert outside > 300


def test_subspace_form_matches_the_dense_products():
    rg = rng(7072)
    for _ in range(800):
        _, grid = random_symmetric_grid(rg)
        n = len(grid)
        g = Matrix.from_rows(grid, cols=n)
        space = span(n, _random_vectors(rg, n, rg.randint(0, n + 1)))
        form = space.form(g)
        # the stored sparse rows: every entry of B G B^T, and no zero
        assert form.cols == space.dim
        assert form.nonzero_rows == dense_nonzero_rows(dense_form(dense_basis(space), grid))


def _grid_is_symmetric(grid, cols):
    return len(grid) == cols and all(
        grid[i][j] == grid[j][i] for i in range(cols) for j in range(cols)
    )


def test_is_symmetric_and_nonzero_rows_match_the_dense_reference():
    rg = rng(7073)
    half, other_half = Fraction(1, 2), Fraction(1, 2)
    assert half is not other_half
    cases = [
        ([[0, half], [other_half, 0]], 2),  # equal values, distinct objects
        ([[1, 2, 3], [2, 1, 0]], 3),  # not square
        ([[0, 5, 0], [0, 0, 0], [0, 0, 1]], 3),  # a stored entry above, its mirror absent
        ([[0, 0, 0], [0, 0, 0], [7, 0, 1]], 3),  # a stored entry below, its mirror absent
        ([[1, 2, 0], [3, 1, 0], [0, 0, 4]], 3),  # a mirror with another value
        ([[1, 0], [0, 1], [0, 0]], 2),  # not square, the square block symmetric
        ([[2, 0, 0], [0, -1, 0], [0, 0, Fraction(1, 3)]], 3),  # diagonal only
    ]
    for _ in range(600):
        _, grid = random_symmetric_grid(rg)
        n = len(grid)
        copy = [[Fraction(x.numerator, x.denominator) for x in row] for row in grid]
        square = random_square_grid(rg)
        cases += [(grid, n), (copy, n), (square, len(square))]
        if n > 1:
            # one asymmetric entry in the last row
            bumped = [list(row) for row in grid]
            bumped[n - 1][rg.randrange(n - 1)] += 1
            cases.append((bumped, n))
    matrices = [(Matrix.from_rows(grid, cols=cols), grid, cols) for grid, cols in cases]
    matrices += [(Matrix.zero(3, 0), [[], [], []], 0), (Matrix.zero(0, 3), [], 3)]
    matrices.append((Matrix.zero(0, 0), [], 0))
    verdicts = {True: 0, False: 0}
    for m, grid, cols in matrices:
        expected = dense_nonzero_rows(grid)
        assert m.is_symmetric() == _grid_is_symmetric(grid, cols), grid
        assert m.nonzero_rows == expected and m.cols == cols
        assert all(x for row in m.nonzero_rows for x in row.values())
        if m.rows == m.cols:
            # the eliminations consume copies, never the stored rows
            rank(m)
            if m.is_symmetric():
                signature_of(m)
        assert m.nonzero_rows == expected
        verdicts[m.is_symmetric()] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 800
    named = [m.is_symmetric() for m, _, _ in matrices[:7]]
    assert named == [True, False, False, False, False, False, True]
    assert Matrix.zero(0, 0).is_symmetric() and Matrix.diagonal([3, 0, -1]).is_symmetric()


def test_sparse_signature_matches_the_dense_reference():
    rg = rng(9090)
    kinds = set()
    for _ in range(2400):
        kind, g = random_symmetric_case(rg)
        assert signature_of(g) == dense_signature_of(g), (kind, dense_grid(g))
        kinds.add(kind)
    assert kinds == {"empty", "witt", "coupled", "image", "sparse"}


def test_isolated_pivot_blocks_count_like_the_dense_reference():
    """Forms that mix isolated blocks [[a]] and [[0, b], [b, 0]] (pivots that
    touch no other row, which the elimination passes over) with coupled
    blocks of zero diagonal and zero rows, on permuted indices: the sparse
    signature is the dense one and the sum of the blocks' signatures, so
    each isolated plane counts one negative and one positive direction."""
    rg = rng(3535)

    def nonzero() -> Fraction:
        return rational(rg, 4, 3) or Fraction(1)

    planes = 0
    for case in range(600):
        kinds = ["plane", "line", "coupled", "zero"] if case % 3 else ["plane", "zero"]
        blocks = []
        for kind in rg.choices(kinds, k=rg.randint(1, 6)):
            size = {"line": 1, "zero": 1, "plane": 2}.get(kind) or rg.randint(2, 4)
            block = [[Fraction(0)] * size for _ in range(size)]
            if kind == "line":
                block[0][0] = nonzero()
            elif kind == "plane":
                block[0][1] = block[1][0] = nonzero()
                planes += 1
            elif kind == "coupled":  # a path of couplings, so no pivot is isolated
                for i in range(size - 1):
                    block[i][i + 1] = block[i + 1][i] = nonzero()
            blocks.append(block)
        n = sum(len(b) for b in blocks)
        grid = [[Fraction(0)] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for i, row in enumerate(block):
                grid[offset + i][offset:offset + len(row)] = row
            offset += len(block)
        perm = list(range(n))
        rg.shuffle(perm)
        g = Matrix.from_rows([[grid[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
        parts = [dense_signature_of(Matrix.from_rows(b)) for b in blocks]
        expected = Signature(*[sum(p[t] for p in parts) for t in range(3)])
        assert signature_of(g) == dense_signature_of(g) == expected, dense_grid(g)
        if case % 3 == 0:  # planes and zero rows only: the planes count (1, 1) each
            k = sum(1 for b in blocks if len(b) == 2)
            assert signature_of(g) == Signature(k, k, len(blocks) - k)
    assert planes > 600
    assert signature_of(Matrix.from_rows([[0, 3, 0], [3, 0, 0], [0, 0, 0]])) == Signature(1, 1, 1)


def test_signatures_of_the_catalog_doubles_match_the_dense_reference():
    """The Grams of the doubles and their restrictions to the center and to
    l^2: the catalog entries, the scale, g64 and g65 doubles, and the
    filiform doubles of n = 3..13 and 30 with module diag(1, -1), whose hyperbolic
    blocks hold no diagonal entry."""
    doubles = [build_double(instantiate(e, {name: Fraction(1) for name in e.params})) for e in ENTRIES]
    doubles += scale_doubles().values()
    doubles += [build_double(g64_admissible_cocycle()), build_double(g65_admissible_cocycle())]
    doubles += [filiform_double(n) for n in (*range(3, 14), 30)]
    for metric in doubles:
        series = lower_central_series(metric.algebra)
        g = metric.gram
        assert signature_of(g) == dense_signature_of(g)
        for space in (center(metric.algebra), series[1]):
            gram = space.form(g)
            expected = dense_form(dense_basis(space), dense_grid(g))  # B G B^T by plain-list products
            assert gram.cols == space.dim and gram.nonzero_rows == dense_nonzero_rows(expected)
            assert signature_of(gram) == dense_signature_of(gram)


def _small_grid(rg, rows, cols):
    """A plain-list grid of entries in {0, +-1, +-2, +-1/2}, so that sums and
    products cancel often."""
    density = rg.choice((0.0, 0.3, 0.6, 1.0))
    values = [Fraction(x) for x in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]
    return [[rg.choice(values) if rg.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]


def test_sparse_kernels_match_plain_list_references():
    """Every operation on the stored sparse rows against a plain-list grid, on
    square and rectangular matrices with 0 x n and n x 0 among them; each
    result stores no zero and no column out of range."""
    rg = rng(7075)
    shapes, cancelled = set(), 0
    for _ in range(1500):
        r, k, c = (rg.choice((0, 1, 2, 3, 4, 6)) for _ in range(3))
        ga, gb = _small_grid(rg, r, k), _small_grid(rg, k, c)
        a, b = Matrix.from_rows(ga, cols=k), Matrix.from_rows(gb, cols=c)
        shapes.add((r == 0, k == 0, (r > k) - (r < k)))
        # from_rows, the dense grid of its rows and the raw constructor agree, and equal means equal hashes
        assert dense_grid(a) == ga and (a.rows, a.cols) == (r, k)
        assert Matrix.from_rows(dense_grid(a), cols=k) == a
        for rows in (dense_nonzero_rows(ga), [dict(reversed(row.items())) for row in dense_nonzero_rows(ga)]):
            sparse = Matrix(k, tuple(rows))
            assert sparse == a and hash(sparse) == hash(a)
        if k:
            assert Matrix.zero(r, k - 1) != Matrix.zero(r, k)
        results = {
            "@": (a @ b, plain_product(ga, gb, c), c),
            "transpose": (a.transpose(), plain_transpose(ga, k), r),
        }
        for name, (m, grid, cols) in results.items():
            assert stored_contract_violations(m) == [], name
            assert m.cols == cols and m.nonzero_rows == dense_nonzero_rows(grid), name
        cancelled += any(
            not plain_product([ga[i]], [[gb[t][j]] for t in range(k)], 1)[0][0]
            and sum(1 for t in range(k) if ga[i][t] and gb[t][j]) > 1
            for i in range(r) for j in range(c)
        )
        # A v as the sum of v_j times column j, the rows of the transpose
        v = tuple(_small_grid(rg, 1, k)[0])
        av = _combine(sparse_row(v), a.transpose().nonzero_rows.__getitem__)
        assert av == sparse_row([sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in ga])
        assert [dense_matrix_row(a, i) for i in range(r)] == [tuple(row) for row in ga]
    assert {(True, False, -1), (False, True, 1), (False, False, -1), (False, False, 1)} <= shapes
    assert cancelled > 50


def test_every_matrix_the_package_builds_keeps_the_store_contract():
    """``==`` and ``hash`` compare the stored maps, so every matrix must store
    no zero and no column out of range: the Gram forms of the catalog and
    scale doubles and their center and derived forms, the differentials of
    the rejection study's algebra for every module tag, and every bundled
    module form."""
    matrices = {}
    doubles = [g for g in run_catalog().doubles if g is not None]
    for i, metric in enumerate([*doubles, *scale_doubles().values()]):
        series = lower_central_series(metric.algebra)
        matrices["gram %d" % i] = metric.gram
        matrices["center %d" % i] = center(metric.algebra).form(metric.gram)
        matrices["derived %d" % i] = series[1].form(metric.gram)
    l = five_dim_three_step()
    for tag in sorted(MODULE_BUILDERS):
        matrices["module " + tag] = module_for_tag(tag).gram
        for p in range(l.dim + 1):
            matrices["d_%d %s" % (p, tag)] = differential_matrix(l, module_for_tag(tag), p)
    for p in range(l.dim + 1):
        matrices["d_%d scalar" % p] = differential_matrix(l, None, p)
    data = Path(schema.__file__).resolve().parent / "data"
    bundled = sorted(data.glob("modules/*.json")) + sorted(data.glob("doubles/*.json"))
    for path in bundled:
        kind, parsed = schema.loads_document(path.read_text())
        matrices["bundled " + path.name] = parsed if kind == "module" else parsed.gram
    assert len(doubles) == 95 and len(bundled) == 14
    for name, m in matrices.items():
        assert stored_contract_violations(m) == [], name
