from fractions import Fraction
from itertools import combinations

import pytest

import metriclie
from metriclie import exact_linalg, lie_core, quadratic_cohomology
from metriclie.catalog import (
    BASE_BUILDERS,
    base_algebra,
    g41,
    g52,
    g64,
    heisenberg,
    orthonormal_module,
    run_catalog,
)
from metriclie.exact_linalg import Matrix, _combine, unit_vector
from metriclie.lie_core import (
    JacobiError,
    JacobiReport,
    LieAlgebra,
    NotNilpotentError,
    Subspace,
    abelian,
    center,
    direct_sum,
    is_nilpotent,
    jacobi_terms,
    lower_central_series,
    nilpotency_index,
    validate_jacobi,
)
from metriclie.quadratic_cohomology import check_admissible, zero_cocycle

from support import (
    catalog_algebras,
    dense_ad,
    dense_basis,
    dense_basis_bracket,
    dense_bracket,
    dense_brackets,
    dense_intersect,
    dense_kernel,
    dense_span,
    dense_vector,
    direct_series,
    filiform_double,
    heisenberg_in_dense_basis,
    is_canonical,
    random_sparse_table,
    random_unimodular_basis_change,
    rational,
    rng,
    rows_snapshot,
    scale_doubles,
    sparse_row,
    standard_filiform,
)


@pytest.fixture(scope="module")
def scale_algebras():
    """The doubles of h_15 and of the filiform algebra of dimension 12."""
    return [g.algebra for g in scale_doubles().values()]


def test_construction_validates_jacobi_eagerly():
    bad = {(0, 1): unit_vector(3, 2), (0, 2): unit_vector(3, 0)}
    with pytest.raises(JacobiError):
        LieAlgebra(3, bad)
    unchecked = LieAlgebra(3, bad, validate=False)
    report = validate_jacobi(unchecked)
    assert not report.ok
    assert report.triple == (0, 1, 2)
    assert report.defect == unit_vector(3, 2)


def test_a_jacobi_failure_names_its_triple_by_label_however_long_its_defect():
    # the defect -b^2 e_1 at (X1, X2, X4) has about 6,000 digits, more than
    # int -> str converts, so a message that wrote it could not be made
    b = int("7" * 3000)
    brackets = {(0, 1): (0, 0, b, 0), (2, 3): (b, 0, 0, 0)}
    with pytest.raises(JacobiError) as failure:
        LieAlgebra(4, brackets)
    assert str(failure.value) == "Jacobi identity fails on (X1, X2, X4)"
    report = validate_jacobi(LieAlgebra(4, brackets, validate=False))
    assert report.triple == (0, 1, 3) and report.defect == (-b * b, 0, 0, 0)


def test_bracket_normalization_and_lookup():
    l = g41()
    assert dense_basis_bracket(l, 0, 1) == unit_vector(4, 2)
    assert dense_basis_bracket(l, 1, 0) == tuple(-c for c in unit_vector(4, 2))
    assert dense_basis_bracket(l, 1, 2) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 1): unit_vector(3, 0)})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): (1, 0)})


def test_a_sparse_and_a_dense_construction_are_the_same_algebra():
    dense = {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, "1/2")}
    sparse = {(0, 2): {3: Fraction(1, 2)}, (0, 1): {2: 1}}
    assert LieAlgebra(4, sparse) == LieAlgebra(4, dense)
    assert hash(LieAlgebra(4, sparse)) == hash(LieAlgebra(4, dense))
    assert dense_brackets(LieAlgebra(4, sparse)) == dense_brackets(LieAlgebra(4, dense))
    # the dense lists read back from the stored rows rebuild the same algebra
    rg = rng(4041)
    for l in [random_sparse_table(rg, rg.randint(3, 7)) for _ in range(100)]:
        dense = dense_brackets(l)
        as_maps = {key: {t: c for t, c in enumerate(v) if c} for key, v in dense.items()}
        for table in (dense, as_maps):
            rebuilt = LieAlgebra(l.dim, table, validate=False)
            assert rebuilt == l and hash(rebuilt) == hash(l)
        for i in range(l.dim):
            for j in range(l.dim):
                assert dense_basis_bracket(l, i, j) == dense_bracket(
                    l, unit_vector(l.dim, i), unit_vector(l.dim, j)
                )


@pytest.mark.parametrize("index", [-1, 4, 10])
def test_a_sparse_bracket_index_out_of_range_is_rejected(index):
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra(4, {(0, 1): {2: 1, index: 1}}, validate=False)


def test_zero_and_cancelling_entries_are_not_stored():
    third = Fraction(1, 3)
    l = LieAlgebra(
        4,
        {
            (0, 1): {2: 1, 3: third - third},
            (0, 2): {1: 0, 3: "0"},
            (1, 2): (0, 0, 0, "0"),
            (1, 3): {},
            (2, 3): (third, 0, -third + third, 0),
        },
        validate=False,
    )
    # each stored bracket is a {t: c} row, kept in both orientations
    assert dict(l.row(0)) == {1: {2: 1}} and dict(l.row(1)) == {0: {2: -1}}
    assert dict(l.row(2)) == {3: {0: third}} and dict(l.row(3)) == {2: {0: -third}}
    assert all(is_canonical(c) for i in range(4) for p in l.row(i).values() for c in p.values())
    assert type(l.row(0)[1][2]) is int
    # an integral Fraction or a float is stored as an int, in either branch
    for value in ({2: Fraction(4, 2)}, (0, 0, 2.0)):
        assert [type(c) for c in LieAlgebra(3, {(0, 1): value}).row(0)[1].values()] == [int]
    assert set(dense_brackets(l)) == {(0, 1), (2, 3)}
    assert repr(l) == "LieAlgebra(dim=4, brackets=2)"
    assert LieAlgebra(3, {(0, 1): {2: 0}, (1, 2): (0, 0, 0)}) == abelian(3)


def test_bracket_is_bilinear_and_antisymmetric():
    l = g52()
    rg = rng(11)
    for _ in range(25):
        x = tuple(rational(rg) for _ in range(5))
        y = tuple(rational(rg) for _ in range(5))
        z = tuple(rational(rg) for _ in range(5))
        assert dense_bracket(l, x, y) == tuple(-c for c in dense_bracket(l, y, x))
        left = dense_bracket(l, tuple(a + b for a, b in zip(x, z)), y)
        split = tuple(p + q for p, q in zip(dense_bracket(l, x, y), dense_bracket(l, z, y)))
        assert left == split


def test_ad_matrix_columns_are_brackets():
    h = heisenberg()
    columns = [sparse_row(unit_vector(3, j)) for j in range(3)]
    assert list(h.ad_rows((0,), columns)) == [{}, {2: 1}, {}]
    assert list(h.ad_rows((1,), columns)) == [{2: -1}, {}, {}]


def series_dims(l):
    return tuple(s.dim for s in lower_central_series(l))


def test_lower_central_series_profiles():
    assert series_dims(g41()) == (4, 2, 1, 0)
    assert series_dims(g52()) == (5, 2, 0)
    assert series_dims(heisenberg()) == (3, 1, 0)
    assert series_dims(abelian(4)) == (4, 0)


def _tables_the_layers_decline():
    """A table that breaks Jacobi, gl(2) = sl(2) + R on (h, e, f, z), whose
    layers vanish but sum to less than l^2, and the solvable [x1, x2] = y,
    [x1, y] = y, whose layers never vanish."""
    return [
        LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (2, 3): {2: 1}}, validate=False),
        LieAlgebra(4, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {2: 1}}),
    ]


def test_non_nilpotent_series_stabilizes():
    solvable = LieAlgebra(2, {(0, 1): unit_vector(2, 1)})
    assert series_dims(solvable) == (2, 1, 1)
    assert not is_nilpotent(solvable)
    with pytest.raises(NotNilpotentError):
        nilpotency_index(solvable)
    # the direct loop's series, where the layers decline
    non_lie, gl2, solvable = _tables_the_layers_decline()
    assert not validate_jacobi(non_lie).ok
    assert [series_dims(l) for l in (non_lie, gl2, solvable)] == [(4, 2, 2), (4, 3, 3), (3, 1, 1)]


def test_nilpotency_index_counts_filtration_stages():
    assert nilpotency_index(g41()) == 2
    assert nilpotency_index(g52()) == 1
    assert nilpotency_index(abelian(3)) == 0


def test_center_of_known_algebras():
    assert dense_basis(center(g52())) == (unit_vector(5, 3), unit_vector(5, 4))
    assert dense_basis(center(g41())) == (unit_vector(4, 3),)
    assert center(abelian(2)).dim == 2


def test_filtration_spaces_known_values():
    # the stages of the admissibility test: the center met with each series term
    spaces = [half.stage for half in quadratic_cohomology._stages(g41())]
    assert [dense_basis(s) for s in spaces] == [(unit_vector(4, 3),)] * 3
    spaces = [half.stage for half in quadratic_cohomology._stages(g64())]
    expected = (unit_vector(6, 4), unit_vector(6, 5))
    assert [dense_basis(s) for s in spaces] == [expected, expected]


def test_the_stages_are_the_center_met_with_each_series_term(scale_algebras):
    """Each stage, a kernel of ad on the series term, holds the echelon rows
    of the dense intersection of the center with that term: over the catalog
    bases, h_15 and filiform 12 and their doubles, and 30 seeded random
    integral basis changes of the bases.  Building the stages and testing a
    cocycle leave the series and the stages as they were."""
    rg = rng(2929)
    h15 = LieAlgebra(15, {(i, 7 + i): {14: 1} for i in range(7)})
    bases = [base_algebra(name) for name in sorted(BASE_BUILDERS)] + [h15, standard_filiform(12)]
    changed = [random_unimodular_basis_change(rg, rg.choice(bases), 12) for _ in range(30)]
    for l in bases + scale_algebras + changed:
        series = lower_central_series(l)
        kept = rows_snapshot(*series)
        stages = quadratic_cohomology._stages(l)
        assert kept() and [half.series_term for half in stages] == list(series[:-1])
        z = center(l)
        assert [half.stage for half in stages] == [dense_intersect(z, s) for s in series[:-1]]
        kept = rows_snapshot(*series, *[half.stage for half in stages])
        check_admissible(zero_cocycle(l, orthonormal_module([1])))
        assert kept() and quadratic_cohomology._stages(l) is stages


def test_direct_sum_combines_structure():
    two = direct_sum(heisenberg(), heisenberg())
    assert two.dim == 6
    assert is_nilpotent(two)
    assert series_dims(two) == (6, 2, 0)
    assert center(two).dim == 2
    assert two.labels[0] == "1.X1" and two.labels[3] == "2.X1"
    x1 = unit_vector(6, 0)
    x2 = unit_vector(6, 1)
    assert dense_bracket(two, x1, x2) == unit_vector(6, 2)
    assert dense_bracket(two, x1, unit_vector(6, 4)) == (0,) * 6
    shifted = {(0, 1): unit_vector(6, 2), (3, 4): unit_vector(6, 5)}
    assert two == LieAlgebra(6, shifted, labels=two.labels)


def test_direct_sum_fills_the_store_of_the_checked_construction():
    """``direct_sum`` shares the rows of l1 and shifts those of l2 into the
    unchecked ``LieAlgebra._of``: over every ordered pair of base algebras,
    and with the zero algebra on either side, it has the labels, rows and
    hash of the checked construction of the same brackets."""
    algebras = [BASE_BUILDERS[name]() for name in sorted(BASE_BUILDERS)] + [abelian(0)]
    for l1 in algebras:
        for l2 in algebras:
            s = direct_sum(l1, l2)
            n1 = l1.dim
            table = {(i, j): p for i, j, p in l1._upper()}
            table.update(((i + n1, j + n1), {t + n1: c for t, c in p.items()})
                         for i, j, p in l2._upper())
            labels = ["1.%s" % x for x in l1.labels] + ["2.%s" % x for x in l2.labels]
            checked = LieAlgebra(n1 + l2.dim, table, labels=labels)
            assert s.labels == checked.labels and s._rows == checked._rows
            assert s == checked and hash(s) == hash(checked)
            assert all(s._rows[i] is row for i, row in l1._rows.items())


def test_subspace_coords_of_known_rows():
    s = Subspace.of_rows(3, [{0: 1, 1: 1}, {2: 2}])
    assert s.dim == 2
    assert s.coords(sparse_row(dense_vector([2, 2, 3]))) == {0: 2, 1: 3}
    assert s.coords(sparse_row(dense_vector([1, 0, 0]))) is None
    assert s.coords(sparse_row(dense_vector([3, 3, 1]))) == {0: 3, 1: 1}
    assert s.coords(sparse_row(dense_vector([0, 1, 0]))) is None
    assert metriclie.Subspace is lie_core.Subspace is exact_linalg.Subspace


def test_derived_subalgebra_codimension_at_least_two():
    # non-abelian nilpotent algebras never have a one dimensional quotient
    for build in (heisenberg, g41, g52, g64):
        l = build()
        assert l.dim - lower_central_series(l)[1].dim >= 2


def test_structural_equality_includes_labels():
    assert g41() == g41()
    assert g41() != g52()
    relabeled = LieAlgebra(
        4,
        {(0, 1): unit_vector(4, 2), (0, 2): unit_vector(4, 3)},
        labels=("a", "b", "c", "d"),
    )
    assert relabeled != g41()
    assert dense_brackets(relabeled) == dense_brackets(g41())


def test_jacobi_holds_for_random_vectors():
    l = g64()
    rg = rng(5)
    for _ in range(10):
        x = tuple(rational(rg) for _ in range(6))
        y = tuple(rational(rg) for _ in range(6))
        z = tuple(rational(rg) for _ in range(6))
        cyclic = [
            dense_bracket(l, x, dense_bracket(l, y, z)),
            dense_bracket(l, y, dense_bracket(l, z, x)),
            dense_bracket(l, z, dense_bracket(l, x, y)),
        ]
        total = tuple(a + b + c for a, b, c in zip(*cyclic))
        assert total == (Fraction(0),) * 6


def test_cached_series_and_center_match_a_fresh_computation():
    # the series is kept on the algebra; the center is computed on each call
    for l in catalog_algebras():
        series, center_space = lower_central_series(l), center(l)
        assert lower_central_series(l) is series
        assert center(l) == center_space and center(l) is not center_space
        fresh = LieAlgebra(l.dim, dense_brackets(l), labels=l.labels, validate=False)
        assert fresh == l and fresh is not l
        assert lie_core._lower_central_series(fresh) == series
        assert center(fresh) == center_space


def test_basis_bracket_is_antisymmetric_on_all_pairs():
    for l in catalog_algebras():
        for i in range(l.dim):
            assert dense_basis_bracket(l, i, i) == (Fraction(0),) * l.dim
            for j in range(l.dim):
                assert dense_basis_bracket(l, j, i) == tuple(-c for c in dense_basis_bracket(l, i, j))


def test_algebra_is_read_only():
    l = g41()
    with pytest.raises(TypeError):
        l.row(0)[1] = {3: 1}
    with pytest.raises(TypeError):
        l.row(1)[2] = {3: 1}
    with pytest.raises(AttributeError):
        l.brackets = {(1, 2): unit_vector(4, 3)}
    with pytest.raises(AttributeError):
        l.dim = 5
    with pytest.raises(AttributeError):
        l.labels = ("a", "b", "c", "d")
    assert l == g41() and dense_basis_bracket(l, 1, 2) == (0, 0, 0, 0)


def test_equal_algebras_hash_equal():
    assert hash(g41()) == hash(g41())
    assert len({g41(), g41(), g52(), abelian(4)}) == 3
    swapped = LieAlgebra(4, dict(reversed(list(dense_brackets(g41()).items()))), labels=g41().labels)
    assert swapped == g41() and hash(swapped) == hash(g41())
    # default labels are made on demand, yet equal the same labels given explicitly
    named = LieAlgebra(4, dense_brackets(g41()), labels=("X1", "X2", "X3", "X4"))
    default = LieAlgebra(4, dense_brackets(g41()))
    assert default.labels == named.labels
    assert default == named and hash(default) == hash(named)
    assert abelian(3) == LieAlgebra(3, {}, labels=("X1", "X2", "X3"))
    assert hash(abelian(3)) == hash(LieAlgebra(3, {}, labels=("X1", "X2", "X3")))


def _brute_force_jacobi(l):
    """The first failing triple over all C(n, 3) triples, by the dense bracket."""
    e = [unit_vector(l.dim, i) for i in range(l.dim)]
    inner = {(a, b): dense_bracket(l, e[a], e[b]) for a in range(l.dim) for b in range(l.dim)}
    for i, j, k in combinations(range(l.dim), 3):
        terms = (
            dense_bracket(l, e[i], inner[j, k]),
            dense_bracket(l, e[j], inner[k, i]),
            dense_bracket(l, e[k], inner[i, j]),
        )
        defect = tuple(a + b + c for a, b, c in zip(*terms))
        if any(defect):
            return JacobiReport(ok=False, triple=(i, j, k), defect=defect)
    return JacobiReport(ok=True)


def test_validate_jacobi_matches_a_brute_force_scan(scale_algebras):
    rg = rng(2027)
    verdicts = set()
    for _ in range(300):
        l = random_sparse_table(rg, rg.randint(3, 7))
        report = validate_jacobi(l)
        assert report == _brute_force_jacobi(l)
        verdicts.add(report.ok)
    for l in [base_algebra(name) for name in sorted(BASE_BUILDERS)] + scale_algebras:
        assert validate_jacobi(l) == _brute_force_jacobi(l) == JacobiReport(ok=True)
    assert verdicts == {True, False}


def test_jacobi_terms_counts_the_stored_brackets_of_each_bracket_support():
    """T sums, over each stored [e_b, e_c] with b < c and each e_t in its
    support, the number of nonzero [e_t, e_a]; here against a count over the
    dense brackets, and on h_(2k+1) in a dense basis, where the Jacobi check
    takes about 1.5-7 us a term."""
    def dense_count(l):
        n = l.dim
        return sum(
            sum(1 for a in range(n) if any(dense_basis_bracket(l, t, a)))
            for b, c in combinations(range(n), 2)
            for t, x in enumerate(dense_basis_bracket(l, b, c)) if x
        )

    rg = rng(2029)
    for _ in range(100):
        l = random_sparse_table(rg, rg.randint(3, 7))
        assert jacobi_terms(l) == dense_count(l)
    assert jacobi_terms(abelian(60)) == 0
    counts = [jacobi_terms(heisenberg_in_dense_basis(k)) for k in (7, 9, 11, 15)]
    assert counts == [14_454, 38_718, 118_098, 350_519]


def _visited_triples(monkeypatch, l):
    """The basis triples ``validate_jacobi(l)`` visits: the one list it sorts,
    seen through a ``sorted`` shadowed in ``lie_core``'s namespace."""
    lists = []

    def recording(iterable):
        lists.append(sorted(iterable))
        return lists[-1]

    monkeypatch.setattr(lie_core, "sorted", recording, raising=False)
    assert validate_jacobi(l).ok
    monkeypatch.undo()
    (triples,) = lists
    return triples


def test_validate_jacobi_visits_no_triple_of_an_abelian_algebra(monkeypatch):
    assert _visited_triples(monkeypatch, abelian(60)) == []


def test_validate_jacobi_visits_only_triples_with_a_term_that_can_be_nonzero(
    monkeypatch, scale_algebras
):
    # T*h_15 is 2-step: every stored bracket lands in the center, so no
    # [e_a, [e_b, e_c]] can be nonzero; of T*fil_12's 520 triples in which a
    # pair has a stored bracket, 9 have such a term
    h15, fil12 = scale_algebras
    assert _visited_triples(monkeypatch, h15) == []
    assert len(_visited_triples(monkeypatch, fil12)) == 9


def test_series_computes_only_the_images_that_can_be_nonzero(monkeypatch, scale_algebras):
    images = []
    original = LieAlgebra.ad_rows

    def counting(self, indices, ws):
        for image in original(self, indices, ws):
            images.append(len(image))  # the elimination then consumes the row
            yield image

    monkeypatch.setattr(LieAlgebra, "ad_rows", counting)
    counts = []
    for l in scale_algebras:
        images.clear()
        lie_core._lower_central_series(l)
        assert all(images)
        counts.append(len(images))
    # the layers: T*h_15's [V, V] is read off its stored brackets and no
    # generator meets it; T*fil_12's layers from W_3 on bracket each of their
    # rows (two or three a layer) with only the generators among X1, X2 and
    # X12* that meet it (the direct loop, kept for the tables the layers
    # decline, makes 42 and 240 images here)
    assert counts == [0, 20]


def counting_bracket_spans(monkeypatch) -> list[int]:
    """The size of ``among`` of each ``_bracket_span`` call from now on: the
    generators on the layered path, every index in the direct loop."""
    sizes = []
    original = lie_core._bracket_span

    def counting(l, among, s):
        sizes.append(len(among))
        return original(l, among, s)

    monkeypatch.setattr(lie_core, "_bracket_span", counting)
    return sizes


def test_the_layers_reach_the_class_bound_of_filiform_algebras(monkeypatch):
    """The standard filiform algebra of dimension n has class n - 1 = dim
    l^2 + 1, the largest class a nilpotent algebra allows: its series still
    comes from the layers, one bracket span with X1, X2 per layer W_3, ...,
    W_n, and the direct loop never runs."""
    sizes = counting_bracket_spans(monkeypatch)
    for n in range(3, 31):
        l = standard_filiform(n)
        sizes.clear()
        series = lie_core._lower_central_series(l)
        assert sizes == [2] * (n - 2), n
        assert [s.dim for s in series] == [n, *range(n - 2, -1, -1)]  # class n - 1


def test_a_declined_series_builds_at_most_dim_l2_layers(monkeypatch):
    """Where the layers decline, the direct loop runs after at most dim l^2
    layer spans: on filiform 30 + the solvable [x, y] = y the layers of X1,
    X2 and x vanish after 28 without reaching y, and on the tables of
    :func:`_tables_the_layers_decline` the solvable one stops after
    1 = dim l^2 layer span although its layers never vanish."""
    sizes = counting_bracket_spans(monkeypatch)
    l = direct_sum(standard_filiform(30), LieAlgebra(2, {(0, 1): {1: 1}}))
    spans = []
    for algebra in (l, *_tables_the_layers_decline()):
        sizes.clear()
        series = lie_core._lower_central_series(algebra)
        first_direct = sizes.index(algebra.dim)
        assert first_direct <= series[1].dim and set(sizes[first_direct:]) == {algebra.dim}
        spans.append(first_direct)
    assert [s.dim for s in series] == [3, 1, 1]  # the solvable table
    assert [s.dim for s in lie_core._lower_central_series(l)] == [32, *range(29, 0, -1), 1]
    assert spans == [28, 0, 0, 1]


@pytest.fixture(scope="module")
def layered_doubles():
    """The filiform doubles of n = 3..30 (module diag(1, -1)) and the 95
    catalog doubles, then the catalog doubles and the filiform doubles of
    n <= 13 in a seeded random integral basis, where a layer's rows share
    columns with the sum above it and back-eliminate into its pivot rows."""
    rg = rng(3133)
    doubles = [filiform_double(n) for n in range(3, 31)]
    doubles += [g for g in run_catalog().doubles if g is not None]
    changed = [random_unimodular_basis_change(rg, g, g.algebra.dim)
               for g in doubles if g.algebra.dim <= 28]
    return [g.algebra for g in doubles + changed]


def test_the_running_sum_of_the_layers_is_the_direct_series(layered_doubles):
    for l in layered_doubles:
        assert lie_core._lower_central_series(l) == direct_series(l)


def test_each_series_term_keeps_its_rows_while_the_later_ones_are_built(
    monkeypatch, layered_doubles
):
    """Every subspace the series builds, each layer and each term among them,
    still holds the rows it was built with when the series is done, though
    each later layer back-eliminates into the pivot rows copied from the
    terms, and T_c, the top nonzero layer itself, from that layer."""
    built, kept = [], []

    def record(term):
        built.append(term)
        kept.append(rows_snapshot(term))
        return term

    def recording(ambient_dim, rows):
        return record(Subspace(ambient_dim, rows))

    recording.of_rows = lambda ambient_dim, rows: record(Subspace.of_rows(ambient_dim, rows))
    recording.full = Subspace.full
    monkeypatch.setattr(lie_core, "Subspace", recording)
    for l in layered_doubles:
        built.clear()
        kept.clear()
        series = lie_core._lower_central_series(l)
        assert all(any(t is term for t in built) for term in series[1:-1])
        assert all(check() for check in kept)


def test_the_running_sum_feeds_each_layer_to_the_elimination_once(monkeypatch):
    """The rows handed to ``_reduce`` for one series of the T*h_15 double and
    of the filiform doubles of n = 12 and 30: l^2, then the layers (each from
    its brackets; W_2 is l^2 itself when every bracket is among V, as in the
    2-step T*h_15), and each layer below the top nonzero one once more into
    the running sum.  Summing T_k = W_k + T_(k+1) afresh for each k fed 169
    rows for n = 12 and 979 for n = 30; reducing W_2 and the top layer again
    fed 57 for T*h_15, 73 and 199."""
    fed = []
    original = exact_linalg._reduce

    def counting(rows, pivots=None):
        rows = list(rows)
        fed.append(len(rows))
        return original(rows, pivots)

    monkeypatch.setattr(exact_linalg, "_reduce", counting)
    monkeypatch.setattr(lie_core, "_reduce", counting, raising=False)
    counts = []
    for g in (scale_doubles()["T*h_15"], filiform_double(12), filiform_double(30)):
        fed.clear()
        lie_core._lower_central_series(g.algebra)
        counts.append(sum(fed))
    assert counts == [21, 70, 196]


@pytest.fixture(scope="module")
def reference_algebras(scale_algebras):
    """Random sparse tables (Lie or not), every catalog base and every double,
    the two large doubles of the benchmark, the zero algebra, the tables whose
    series the layers decline, and every base and large double again in a
    seeded random integral basis, where the series is not graded."""
    rg = rng(3031)
    tables = [random_sparse_table(rg, rg.randint(3, 7)) for _ in range(150)]
    bases = [base_algebra(name) for name in sorted(BASE_BUILDERS)]
    changed = [random_unimodular_basis_change(rg, l, l.dim) for l in bases + scale_algebras]
    special = [abelian(0), *_tables_the_layers_decline()]
    return tables + catalog_algebras() + scale_algebras + special + changed


def test_ad_matches_the_dense_bracket(reference_algebras):
    rg = rng(3032)

    def draw(n):
        return tuple(rational(rg) if rg.random() < 0.5 else Fraction(0) for _ in range(n))

    for l in reference_algebras:
        for i in range(l.dim):
            w = draw(l.dim)
            (image,) = l.ad_rows((i,), (sparse_row(w),))
            assert image == sparse_row(dense_ad(l, i, w))
        x, y = draw(l.dim), draw(l.dim)
        # [x, y] as the sum of x_a [e_a, y] over the stored rows
        got = _combine(sparse_row(x), lambda a: _combine(sparse_row(y), l.row(a).get))
        assert got == sparse_row(dense_bracket(l, x, y))


def _dense_center(l: LieAlgebra) -> Subspace:
    """The kernel of the n stacked dense matrices ad(e_i), whose columns are [e_i, e_j]."""
    n = l.dim
    rows = []
    for i in range(n):
        columns = [dense_ad(l, i, unit_vector(n, j)) for j in range(n)]
        rows += [[column[t] for column in columns] for t in range(n)]
    return dense_span(n, dense_kernel(Matrix.from_rows(rows, cols=n)))


def test_center_is_the_kernel_of_the_dense_ad_matrices(reference_algebras):
    for l in reference_algebras:
        assert center(l) == _dense_center(l)


def test_the_center_within_each_series_term_is_its_stage_and_the_dense_center_met_with_it(
    reference_algebras,
):
    """On every nilpotent Lie table among the reference algebras (random
    tables, the catalog bases and doubles, the large doubles, the zero
    algebra and the basis changes), the center met with each series term is
    the stage that the admissibility test keeps for it and the dense
    center's intersection with the term.  Random tables give stages of
    every dimension, the full series term among them."""
    checked, partial = 0, set()
    for l in reference_algebras:
        if not (validate_jacobi(l).ok and is_nilpotent(l)):
            continue
        dense, stages = _dense_center(l), quadratic_cohomology._stages(l)
        for s, half in zip(lower_central_series(l), stages):
            stage = lie_core._center_in(s, l.ad_rows(l._rows, s.rows))
            assert stage == half.stage == dense_intersect(dense, s)
            partial.add(0 < stage.dim < s.dim)
        checked += 1
    assert checked >= 100 and partial == {False, True}


def _dense_series(l):
    """The lower central series of ``l``, each term spanned by dense brackets."""
    n = l.dim
    current = dense_span(n, [unit_vector(n, i) for i in range(n)])
    chain = [current]
    while current.dim:
        nxt = dense_span(n, [dense_ad(l, i, w) for i in range(n) for w in dense_basis(current)])
        chain.append(nxt)
        if nxt.dim == current.dim:
            break
        current = nxt
    return tuple(chain)


def test_lower_central_series_is_spanned_by_dense_brackets(reference_algebras):
    for l in reference_algebras:
        assert lie_core._lower_central_series(l) == _dense_series(l)
