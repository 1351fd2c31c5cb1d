import json
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from metriclie import cli, double_construction, lie_core
from metriclie.catalog import (
    entry_by_id,
    g41,
    g64_admissible_cocycle,
    g65_admissible_cocycle,
    heisenberg,
    instantiate,
    module_for_tag,
    run_catalog,
)
from metriclie.double_construction import (
    Fingerprint,
    MetricCheck,
    MetricLieAlgebra,
    MetricReport,
    build_double,
    fingerprint,
    verify_metric,
)
from metriclie.cochain_complex import OrthogonalModule, cochain_from_terms
from metriclie.exact_linalg import Matrix, Signature, signature_of
from metriclie.lie_core import LieAlgebra, abelian
from metriclie.quadratic_cohomology import ConsistencyError, QuadraticCocycle, zero_cocycle

from support import (
    dense_basis_bracket,
    dense_brackets,
    dense_double,
    dense_grid,
    dense_matrix_row,
    dense_nonzero_rows,
    direct_fingerprint,
    filiform_double,
    full_module_cocycles,
    is_canonical,
    random_unimodular_basis_change,
    rational,
    rng,
    scale_doubles,
    sorted_invariance_failure,
)

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def entry_double(entry_id: str, **params):
    entry = entry_by_id(entry_id)
    return build_double(instantiate(entry, {k: Fraction(v) for k, v in params.items()}))


def coadjoint_block(l, i):
    """ad*(e_i) on the dual basis, read off the zero-cocycle double: entry
    (k, j) is the sigma^k coefficient of [X_i, sigma^j]."""
    module = module_for_tag("r01")
    g = build_double(zero_cocycle(l, module)).algebra
    x_i = l.dim + module.dim + i
    return Matrix.from_rows(
        [[dense_basis_bracket(g, x_i, j)[k] for j in range(l.dim)] for k in range(l.dim)]
    )


def test_coadjoint_matrix_on_g41():
    # ad*(X1) sends sigma^Z to -sigma^X2 and sigma^Y to -sigma^Z
    expected = Matrix.from_rows(
        [
            [0, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
            [0, 0, 0, 0],
        ]
    )
    assert coadjoint_block(g41(), 0) == expected
    for i in range(3):
        assert coadjoint_block(heisenberg(), i).transpose() == Matrix.from_rows(
            [[-x for x in ad_row(heisenberg(), i, k)] for k in range(3)]
        )


def ad_row(l, i, k):
    return [dense_basis_bracket(l, i, j)[k] for j in range(l.dim)]


def assert_matches_dense_double(g):
    """Every bracket [e_a, e_b], a < b, and every entry of the form of ``g``
    equal those of :func:`dense_double` on its provenance."""
    brackets, grid = dense_double(g.provenance)
    pairs = combinations(range(g.algebra.dim), 2)
    assert {(a, b): dense_basis_bracket(g.algebra, a, b) for a, b in pairs} == brackets
    assert dense_grid(g.gram) == grid
    assert g.gram.nonzero_rows == dense_nonzero_rows(grid) and g.gram.cols == len(grid)


def test_every_catalog_double_matches_the_docstring_formulas():
    rep = run_catalog()
    built = [g for g in rep.doubles if g is not None]
    assert len(built) == len(rep.rows)
    for g in built:
        assert_matches_dense_double(g)


def test_build_double_matches_the_dense_double_over_full_module_forms():
    """Every catalog module is diagonal or Witt, one entry per row of G, so no
    catalog double sums two terms into one [A_s, X_i] entry.  The g64 and g65
    cocycles and seeded cocycles over non-diagonal module forms do: some
    alpha(X_i, X_j) meets one column s of G in two rows t."""
    cocycles = [g64_admissible_cocycle(), g65_admissible_cocycle(), *full_module_cocycles()]
    assert len(cocycles) >= 15
    summed = 0
    for z in cocycles:
        assert_matches_dense_double(build_double(z))
        rows = z.module.gram.nonzero_rows
        summed += any(sum(s in rows[t] for t in v) > 1 for v in z.alpha.rows.values()
                      for s in range(z.module.dim))
    assert summed >= 10


def test_build_double_hands_lie_algebra_canonical_rows_without_zeros(monkeypatch):
    """Each entry of a double's store is written once: every value handed to
    ``LieAlgebra._of`` is a nonzero canonical scalar.
    On the two cocycles on R^2, G alpha has an entry whose two terms cancel
    (G = [[1, 1], [1, 2]], alpha = X1^X2 (A1 - A2)) and an integral entry of a
    fractional form (G = diag(1/2, 1), alpha = X1^X2 2 A1)."""
    plane = abelian(2)
    no_gamma = cochain_from_terms(2, 3, 1, [], scalar=True)
    cocycles = [
        QuadraticCocycle(plane, OrthogonalModule(Matrix.from_rows([[1, 1], [1, 2]])),
                         cochain_from_terms(2, 2, 2, [((0, 1), {0: 1, 1: -1})]), no_gamma),
        QuadraticCocycle(plane, OrthogonalModule(Matrix.diagonal([Fraction(1, 2), 1])),
                         cochain_from_terms(2, 2, 2, [((0, 1), {0: 2})]), no_gamma),
        *[g.provenance for g in run_catalog().doubles],
        *[g.provenance for g in scale_doubles().values()],
    ]
    handed = []
    original = LieAlgebra._of

    def recording(dim, rows, labels):
        handed.append(rows)
        return original(dim, rows, labels)

    monkeypatch.setattr(LieAlgebra, "_of", staticmethod(recording))
    for z in cocycles:
        build_double(z)
    assert len(handed) == len(cocycles) == 2 + 95 + 2
    bad = [(i, j, t, x) for rows in handed for i, row in rows.items() for j, p in row.items()
           for t, x in p.items() if not (x and is_canonical(x))]
    assert bad == []


def store_faults(l):
    """Where the store of ``l`` breaks the contract of ``LieAlgebra._of``:
    an empty row, a zero or non-canonical value, a row [e_j, e_i] that is
    not the exact negation of [e_i, e_j], or any difference from the checked
    construction of its brackets (rows, equality, hash)."""
    faults = [("empty", i, j) for i, row in l._rows.items() for j, p in [(None, row), *row.items()]
              if not p]
    faults += [("value", i, j, t, x) for i, row in l._rows.items() for j, p in row.items()
               for t, x in p.items() if not (x and is_canonical(x))]
    faults += [("partner", i, j) for i, row in l._rows.items() for j, p in row.items()
               if l._rows.get(j, {}).get(i) != {t: -x for t, x in p.items()}]
    checked = LieAlgebra(l.dim, {(i, j): p for i, j, p in l._upper()}, labels=l.labels,
                         validate=False)
    if not (l._rows == checked._rows and l == checked and hash(l) == hash(checked)):
        faults.append(("checked", l))
    return faults


def test_build_double_writes_its_store_once_in_both_orientations(monkeypatch):
    """``build_double`` fills the store of its ``LieAlgebra`` itself and hands
    it to the unchecked ``LieAlgebra._of``: every value is a nonzero
    canonical scalar, each row [e_j, e_i] is the negation of [e_i, e_j], no
    row is empty, and the store is the checked construction's.  No value
    goes through ``_row_of``, shadowed in ``lie_core``, and the double's
    Jacobi check runs once, in ``verify_metric``, on an algebra with no
    verdict yet: ``_of`` hands none over.
    On the two cocycles on R^2, G alpha has an entry whose two terms cancel
    (G = [[1, 1], [1, 2]], alpha = X1^X2 (A1 - A2)) and an integral entry of a
    fractional form (G = diag(1/2, 1), alpha = X1^X2 2 A1)."""
    plane = abelian(2)
    no_gamma = cochain_from_terms(2, 3, 1, [], scalar=True)
    cocycles = [
        QuadraticCocycle(plane, OrthogonalModule(Matrix.from_rows([[1, 1], [1, 2]])),
                         cochain_from_terms(2, 2, 2, [((0, 1), {0: 1, 1: -1})]), no_gamma),
        QuadraticCocycle(plane, OrthogonalModule(Matrix.diagonal([Fraction(1, 2), 1])),
                         cochain_from_terms(2, 2, 2, [((0, 1), {0: 2})]), no_gamma),
        *[g.provenance for g in run_catalog().doubles],
        *[g.provenance for g in scale_doubles().values()],
        g64_admissible_cocycle(),
        g65_admissible_cocycle(),
        *full_module_cocycles(),
    ]
    assert len(cocycles) >= 2 + 95 + 2 + 2 + 15
    read, checked = [], []
    original_row_of, original_jacobi = lie_core._row_of, lie_core.validate_jacobi

    def reading(*args):
        read.append(args)
        return original_row_of(*args)

    def checking(l):
        checked.append((l, l._jacobi))
        return original_jacobi(l)

    doubles = []
    with monkeypatch.context() as patch:
        patch.setattr(lie_core, "_row_of", reading)
        patch.setattr(lie_core, "validate_jacobi", checking)
        patch.setattr(double_construction, "validate_jacobi", checking)
        for z in cocycles:
            checked.clear()
            doubles.append(build_double(z))
            assert [v for l, v in checked if l is doubles[-1].algebra] == [None]
        assert read == []
        LieAlgebra(3, {(0, 1): (0, 0, 1)})
        assert len(read) == 1  # the shadow sees a checked construction
    assert [(g, store_faults(g.algebra)) for g in doubles if store_faults(g.algebra)] == []
    # a store with one partner row dropped fails
    g = doubles[0].algebra
    rows = {i: dict(row) for i, row in g._rows.items()}
    i, j, _ = next(g._upper())
    del rows[j][i]
    assert ("partner", i, j) in store_faults(LieAlgebra._of(g.dim, rows, g.labels))


def test_item_eight_doubles():
    plus = entry_double("T1.8.r01")
    minus = entry_double("T1.8.r10")
    assert fingerprint(plus) == fingerprint(plus)
    fp = fingerprint(plus)
    assert fp.dim == 5
    assert fp.signature == Signature(neg=2, pos=3, null=0)
    assert fp.series_dims == (5, 3, 2, 0)
    assert fp.center_dim == 2
    assert fp.center_signature == Signature(neg=0, pos=0, null=2)
    assert fingerprint(minus).signature == Signature(neg=3, pos=2, null=0)
    assert fingerprint(minus).series_dims == (5, 3, 2, 0)
    assert plus.algebra.labels == ("X1*", "X2*", "A1", "X1", "X2")


def test_item_one_double_fingerprint():
    g = entry_double("T1.1")
    assert fingerprint(g) == Fingerprint_expected()


def Fingerprint_expected():
    from metriclie.double_construction import Fingerprint

    return Fingerprint(
        dim=10,
        signature=Signature(neg=5, pos=5, null=0),
        series_dims=(10, 5, 0),
        center_dim=5,
        center_signature=Signature(neg=0, pos=0, null=5),
        derived_signature=Signature(neg=0, pos=0, null=5),
    )


def test_double_of_zero_cocycle_is_flat():
    z = zero_cocycle(abelian(3), module_for_tag("r01"))
    g = build_double(z)
    fp = fingerprint(g)
    assert fp.dim == 7
    assert fp.signature == Signature(neg=3, pos=4, null=0)
    assert fp.series_dims == (7, 0)
    assert fp.center_dim == 7


def test_metric_lie_algebra_is_immutable():
    g = build_double(zero_cocycle(abelian(3), module_for_tag("r01")))
    for name, value in (("algebra", abelian(7)), ("gram", Matrix.identity(7)), ("provenance", None)):
        before = getattr(g, name)
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        assert getattr(g, name) is before
    with pytest.raises(TypeError):
        g.provenance.alpha.rows[(0, 1)] = {0: 1}
    assert verify_metric(g).ok


def test_scale_doubles_match_the_pinned_benchmark_fingerprints():
    pinned = json.loads(EXPECTED.read_text())["scale"]
    for name, g in scale_doubles().items():
        fp = fingerprint(g)
        text = "%d|%s|%s|%d|%s|%s" % (
            fp.dim,
            fp.signature.as_tuple(),
            tuple(fp.series_dims),
            fp.center_dim,
            fp.center_signature.as_tuple(),
            fp.derived_signature.as_tuple(),
        )
        assert text == pinned[name], name


def gl2_with_its_trace_form():
    """gl(2) on (e11, e12, e21, e22) with tr(XY): metric, not nilpotent, of
    signature (1, 3, 0); l^2 = sl(2) has (1, 2, 0) and the center, the
    scalars, (0, 1, 0)."""
    brackets = {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {0: 1, 3: -1},
                (1, 3): {1: 1}, (2, 3): {2: -1}}
    gram = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    return MetricLieAlgebra(LieAlgebra(4, brackets), gram)


def test_fingerprint_matches_its_definitions():
    """The center read off the form as (l^2)^perp and l^2's signature read off
    the signatures of G and of the center agree with ``lie_core.center`` and
    the signature of l^2's own form, on the 95 catalog doubles, the scale
    doubles, the g64 and g65 doubles and the filiform doubles of n = 3..13
    with the module diag(1, -1), each also in a random unimodular basis,
    where l^2 and the center are not spanned by basis vectors, on gl(2)
    with its trace form, on an abelian algebra (l^2 = 0, so the center is
    everything) with a form of unequal neg and pos, and on the zero
    algebra."""
    rg = rng(3131)
    doubles = [g for g in run_catalog().doubles if g is not None]
    doubles += [*scale_doubles().values(), build_double(g64_admissible_cocycle()),
                build_double(g65_admissible_cocycle())]
    doubles += [filiform_double(n) for n in range(3, 14)]
    assert len(doubles) == 95 + 2 + 2 + 11
    cases = doubles + [random_unimodular_basis_change(rg, g, g.algebra.dim) for g in doubles]
    gl2 = gl2_with_its_trace_form()
    flat = MetricLieAlgebra(abelian(3), Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 2]]))
    zero = MetricLieAlgebra(abelian(0), Matrix.zero(0, 0))
    cases += [gl2, flat, zero]
    derived_kinds, center_kinds, radicals = set(), set(), set()
    for g in cases:
        assert verify_metric(g).ok
        fp = fingerprint(g)
        assert fp == direct_fingerprint(g)
        derived_kinds.add(fp.derived_signature.neg == fp.derived_signature.pos)
        center_kinds.add(fp.center_signature.neg == fp.center_signature.pos)
        radicals.add(fp.center_signature.null > 0)
    # a swap of neg and pos shows in either signature, and so does a null part
    assert derived_kinds == center_kinds == radicals == {True, False}
    assert fingerprint(gl2) == Fingerprint(4, Signature(1, 3, 0), (4, 3, 3), 1, Signature(0, 1, 0),
                                           Signature(1, 2, 0))
    assert fingerprint(flat) == Fingerprint(3, Signature(1, 2, 0), (3, 0), 3, Signature(1, 2, 0),
                                            Signature(0, 0, 0))
    assert fingerprint(zero) == Fingerprint(0, Signature(0, 0, 0), (0,), 0, Signature(0, 0, 0),
                                            Signature(0, 0, 0))


def test_fingerprint_refuses_a_degenerate_form():
    for gram in (Matrix.zero(3, 3), Matrix.diagonal([1, 0, -1])):
        with pytest.raises(ValueError, match="nondegenerate"):
            fingerprint(MetricLieAlgebra(abelian(3), gram))


def sparse_build_cocycles():
    """The scale workload's cocycles and one with nonzero alpha and gamma."""
    cocycles = [
        zero_cocycle(g.provenance.algebra, g.provenance.module) for g in scale_doubles().values()
    ]
    return cocycles + [g64_admissible_cocycle()]


def test_build_double_hands_the_constructor_sparse_rows(monkeypatch):
    """No bracket of a double is filled densely: the store handed to
    ``LieAlgebra._of`` holds sparse maps only, and ``_row_of``, shadowed in
    ``lie_core``, reads no dense sequence."""
    dense, handed = [], []
    original, original_of = lie_core._row_of, LieAlgebra._of

    def counting(value, length, what, *args):
        if not isinstance(value, Mapping):
            dense.append(value)
        return original(value, length, what, *args)

    def recording(dim, rows, labels):
        handed.append(rows)
        return original_of(dim, rows, labels)

    cocycles = sparse_build_cocycles()
    monkeypatch.setattr(lie_core, "_row_of", counting)
    monkeypatch.setattr(LieAlgebra, "_of", staticmethod(recording))
    LieAlgebra(3, {(0, 1): (0, 0, 1)})
    assert len(dense) == 1  # the shadow sees a dense construction
    dense.clear()
    for z in cocycles:
        assert list(build_double(z).algebra._upper())
    assert dense == [] and len(handed) == len(cocycles)
    assert all(isinstance(p, Mapping) for rows in handed for row in rows.values()
               for p in [row, *row.values()])


def test_build_double_fills_no_dense_gram_row(monkeypatch):
    """The Gram form of a double, and the restricted forms of its
    fingerprint, come from sparse rows: the dense constructor
    ``Matrix.from_rows``, shadowed on the class, is never called."""
    calls = []
    original = Matrix.from_rows

    def counting(rows, cols=None):
        calls.append(rows)
        return original(rows, cols)

    cocycles = sparse_build_cocycles()
    monkeypatch.setattr(Matrix, "from_rows", staticmethod(counting))
    assert double_construction.Matrix.from_rows([[1]]) == Matrix.identity(1)
    assert len(calls) == 1  # the shadow sees a dense construction
    calls.clear()
    for z in cocycles:
        g = build_double(z)
        assert g.gram.nonzero_rows == dense_nonzero_rows(dense_double(z)[1])
        fingerprint(g)
    assert calls == []


def test_signature_additivity_on_sample_entries():
    for entry_id, params in (
        ("T1.2.a", {}),
        ("T1.3b.r02.s", {"s": 1}),
        ("T1.3c.r11.a12.r", {"r": "1/2"}),
        ("T1.4b.r11w.f1", {}),
        ("T1.7a", {}),
    ):
        entry = entry_by_id(entry_id)
        z = instantiate(entry, {k: Fraction(v) for k, v in params.items()})
        g = build_double(z)
        base = signature_of(z.module.gram)
        n = z.algebra.dim
        assert signature_of(g.gram) == Signature(
            neg=base.neg + n, pos=base.pos + n, null=0
        )


def test_dual_block_is_isotropic_abelian_ideal():
    g = entry_double("T1.3a.r01.g1")
    n = g.provenance.algebra.dim
    m = g.provenance.module.dim
    grid = dense_grid(g.gram)
    for i in range(n):
        for j in range(n):
            assert grid[i][j] == 0
    for i in range(n + m):
        for j in range(i + 1, n + m):
            assert dense_basis_bracket(g.algebra, i, j) == tuple([Fraction(0)] * g.algebra.dim)
    # pairing blocks: identity against the original basis, module gram inside
    for i in range(n):
        assert grid[i][n + m + i] == 1
    for s in range(m):
        for t in range(m):
            assert grid[n + s][n + t] == dense_matrix_row(g.provenance.module.gram, s)[t]


def test_double_matches_hand_built_heisenberg_extension():
    z = zero_cocycle(heisenberg(), module_for_tag("r01"))
    g = build_double(z)
    # layout: three duals, one module vector, then X1 X2 Y at 4, 5, 6
    # [X1, X2] = Y survives, and [sigma^Y, X1] = -ad*(X1) sigma^Y = sigma^X2
    assert dense_basis_bracket(g.algebra, 4, 5)[6] == 1
    assert dense_basis_bracket(g.algebra, 2, 4) == (
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


def test_verify_metric_catches_flipped_coefficient():
    g = entry_double("T1.1")
    table = dense_brackets(g.algebra)
    key, value = sorted(table.items())[0]
    slot = next(t for t, c in enumerate(value) if c != 0)
    mutated_value = tuple(-c if t == slot else c for t, c in enumerate(value))
    table[key] = mutated_value
    mutated = MetricLieAlgebra(
        algebra=LieAlgebra(g.algebra.dim, table, labels=g.algebra.labels, validate=False),
        gram=g.gram,
    )
    report = verify_metric(mutated)
    assert not report.ok
    assert {c.axiom for c in report.failures()} <= {"jacobi", "invariance"}
    assert report.failures()


def brute_invariance_failure(g: MetricLieAlgebra) -> str:
    """Reference scan of every basis triple (i, j, k), j <= k, in order."""
    n = g.algebra.dim
    gram = dense_grid(g.gram)
    for i in range(n):
        # m[j][k] = <[e_i, e_j], e_k>, so <e_j, [e_i, e_k]> = m[k][j]
        m = []
        for j in range(n):
            nonzero = [(t, c) for t, c in enumerate(dense_basis_bracket(g.algebra, i, j)) if c]
            m.append([sum((c * gram[t][k] for t, c in nonzero), Fraction(0)) for k in range(n)])
        for j in range(n):
            for k in range(j, n):
                if m[j][k] + m[k][j] != 0:
                    labels = g.algebra.labels
                    return "fails at triple (%s, %s, %s)" % (labels[i], labels[j], labels[k])
    return ""


def invariance_detail(g: MetricLieAlgebra) -> str:
    (check,) = [c for c in verify_metric(g).checks if c.axiom == "invariance"]
    return check.detail


def random_sparse_metric(rg, n: int) -> MetricLieAlgebra:
    """A random sparse table (Jacobi not enforced) with a random symmetric form."""
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rg.random() < 0.3:
                table[(i, j)] = tuple(
                    rational(rg) if rg.random() < 0.4 else Fraction(0) for _ in range(n)
                )
    gram = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if a == b or rg.random() < 0.3:
                gram[a][b] = gram[b][a] = rational(rg)
    return MetricLieAlgebra(LieAlgebra(n, table, validate=False), Matrix.from_rows(gram, cols=n))


def alternation_only_failure(rg, n: int, last: bool) -> MetricLieAlgebra:
    """A random alternating phi(a, b, c) = <[e_a, e_b], e_c> on a diagonal form
    but for one triple p < q < r, read from the stored pairs as
    phi(p, q, r) = x, phi(p, r, q) = -x and phi(q, r, p) = x: the reading of
    (q, r), the one that no other pair reads first, is zero if ``last``,
    else that of (p, q).  Only the cyclic condition phi(b, c, a) = x on a
    nonzero phi(a, b, c) = x sees the first failure, as every (23)
    condition on a nonzero entry holds; only the (23) condition sees the
    second."""
    diagonal = [rg.choice((1, -1, 2, Fraction(-1, 3))) for _ in range(n)]
    phi: dict[tuple[int, int], dict[int, Fraction]] = {}
    p, q, r = sorted(rg.sample(range(n), 3))
    triples = {(p, q, r)} | {t for t in combinations(range(n), 3) if rg.random() < 0.3}
    for a, b, c in triples:
        x = rational(rg) or Fraction(1)
        for u, v, w, y in ((a, b, c, x), (a, c, b, -x), (b, c, a, x)):
            phi.setdefault((u, v), {})[w] = y
    key, c = ((q, r), p) if last else ((p, q), r)
    del phi[key][c]
    # [e_u, e_v] = G^-1 phi(u, v, .) for the diagonal G
    table = {key: {w: y / diagonal[w] for w, y in row.items()} for key, row in phi.items()}
    return MetricLieAlgebra(LieAlgebra(n, table, validate=False), Matrix.diagonal(diagonal))


def test_invariance_scan_matches_brute_force_triples():
    """Random tables and forms, the catalog doubles with one form entry
    moved, and alternating tables but for one zero reading of a triple
    that the other two stored pairs read as nonzero: the verdict and the
    triple named are the brute force's."""
    rg = rng(53)
    cases = [random_sparse_metric(rg, rg.randint(0, 7)) for _ in range(80)]
    for g in run_catalog().doubles:
        cases.append(g)
        # a symmetric change of one form entry usually breaks invariance
        n = g.algebra.dim
        a, b = rg.randrange(n), rg.randrange(n)
        rows = dense_grid(g.gram)
        rows[a][b] += 1
        if a != b:
            rows[b][a] += 1
        cases.append(MetricLieAlgebra(g.algebra, Matrix.from_rows(rows, cols=n)))
    cases += [alternation_only_failure(rg, rg.randint(3, 7), k % 2 == 0) for k in range(40)]
    details = [invariance_detail(g) for g in cases]
    assert details == [brute_invariance_failure(g) for g in cases]
    assert all(d == "" for d in details[80:-40:2])  # the catalog doubles themselves
    assert sum(1 for d in details if d) >= 120 and all(details[-40:])


def test_the_summing_pass_names_the_triple_of_the_sorted_scan():
    """The alternation pass decides, and only a failing form has its triples
    scanned in order: the first failing triple is the one the scan that
    sorts every e_i's pairs names, on each catalog and scale double as
    built, with one bracket entry moved by one, and with one form entry
    moved by one symmetrically."""
    rg = rng(2828)
    cases = []
    for g in [*run_catalog().doubles, *scale_doubles().values()]:
        l, n = g.algebra, g.algebra.dim
        table = {(i, j): dict(p) for i in range(n) for j, p in l.row(i).items() if i < j}
        i, j = sorted(rg.sample(range(n), 2))
        t = rg.randrange(n)
        table.setdefault((i, j), {})[t] = table.get((i, j), {}).get(t, 0) + 1
        rows = dense_grid(g.gram)
        a, b = rg.randrange(n), rg.randrange(n)
        rows[a][b] += 1
        if a != b:
            rows[b][a] += 1
        cases += [
            g,
            MetricLieAlgebra(LieAlgebra(n, table, labels=l.labels, validate=False), g.gram),
            MetricLieAlgebra(l, Matrix.from_rows(rows, cols=n)),
        ]
    details = [double_construction._invariance_failure(g) for g in cases]
    assert details == [sorted_invariance_failure(g) for g in cases]
    assert all(d == "" for d in details[::3])  # the doubles themselves
    assert sum(1 for d in details[1::3] if d) >= 80 and sum(1 for d in details[2::3] if d) >= 80


def test_verify_and_fingerprint_share_one_elimination_of_the_form(monkeypatch):
    """verify_metric eliminates G on every call and keeps its signature;
    fingerprint reads it, and eliminates G itself only on an instance never
    verified, where a form that is not symmetric raises."""
    seen = []

    def counting(m):
        seen.append(m)
        return signature_of(m)

    monkeypatch.setattr(double_construction, "signature_of", counting)

    def eliminations(g):
        return sum(1 for m in seen if m is g.gram)

    g = build_double(g64_admissible_cocycle())
    assert eliminations(g) == 1 and g._signature == Signature(8, 8, 0)
    expected = fingerprint(g)
    assert eliminations(g) == 1 and len(seen) == 2  # the other is G on l^2
    seen.clear()
    assert verify_metric(g).ok and verify_metric(g).ok
    assert eliminations(g) == 2
    fresh = MetricLieAlgebra(g.algebra, g.gram, g.provenance)
    assert fresh == g and getattr(fresh, "_signature", None) is None
    seen.clear()
    assert fingerprint(fresh) == expected and eliminations(fresh) == 1
    skew = MetricLieAlgebra(abelian(2), Matrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="symmetric"):
        fingerprint(skew)
    # a form that is not symmetric keeps no signature, so verifying changes nothing
    assert not verify_metric(skew).ok and skew._signature is None
    with pytest.raises(ValueError, match="symmetric"):
        fingerprint(skew)


def test_verify_metric_catches_degenerate_form():
    g = entry_double("T1.8.r01")
    report = verify_metric(MetricLieAlgebra(algebra=g.algebra, gram=Matrix.zero(5, 5)))
    assert not report.ok


def test_verify_metric_reports_only_the_checks_it_ran():
    not_symmetric = MetricCheck("symmetric", False, "form is not symmetric")
    jacobi = MetricCheck("jacobi", True)
    skipped = MetricCheck("invariance", False, "not checked: the form is not symmetric")
    # determinant 1: not symmetric, but without a radical
    report = verify_metric(MetricLieAlgebra(abelian(2), Matrix.from_rows([[1, 1], [0, 1]])))
    assert report.checks == (not_symmetric, MetricCheck("nondegenerate", True), jacobi, skipped)
    report = verify_metric(MetricLieAlgebra(abelian(2), Matrix.from_rows([[0, 1], [0, 0]])))
    radical = MetricCheck("nondegenerate", False, "form has a radical")
    assert report.checks == (not_symmetric, radical, jacobi, skipped)
    assert not report.ok


def test_build_double_rejects_non_nilpotent_base():
    solvable = LieAlgebra(2, {(0, 1): (Fraction(1), Fraction(0))}, validate=False)
    z = zero_cocycle(solvable, module_for_tag("r01"))
    with pytest.raises(ValueError):
        build_double(z)


def test_prop_fixture_double_is_self_consistent():
    g = build_double(g64_admissible_cocycle())
    assert verify_metric(g).ok
    fp = fingerprint(g)
    assert fp.dim == 16
    assert fp.signature == Signature(neg=8, pos=8, null=0)


def test_failed_recheck_is_a_typed_error_for_every_caller(monkeypatch, capsys):
    failing = MetricReport(ok=False, checks=(MetricCheck("jacobi", False, "forced"),))
    monkeypatch.setattr(double_construction, "verify_metric", lambda g: failing)
    entry = entry_by_id("T1.8.r01")
    with pytest.raises(ConsistencyError, match="jacobi: forced"):
        build_double(instantiate(entry))
    (row,) = run_catalog(entries=[entry]).rows
    assert row.cocycle_valid and row.double_built is False
    assert "jacobi: forced" in row.error
    assert cli.main(["double", "cocycles/r2_plane.json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "report"
    assert doc["payload"]["ok"] is False
    assert "jacobi: forced" in doc["payload"]["error"]
