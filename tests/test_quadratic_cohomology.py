import copy
import pickle
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from metriclie import exact_linalg, quadratic_cohomology
from metriclie.catalog import (
    ENTRIES,
    _sample_points,
    default_samples,
    g41,
    g64,
    g64_admissible_cocycle,
    g65_admissible_cocycle,
    instantiate,
    module_for_tag,
    orthonormal_module,
)
from metriclie.cochain_complex import (
    Cochain,
    OrthogonalModule,
    cochain_from_terms,
    differential,
    differential_matrix,
    is_lie_homomorphism,
    wedge_pair,
)
from metriclie.double_construction import build_double, fingerprint, verify_metric
from metriclie.exact_linalg import Matrix, Subspace, kernel_basis
from metriclie.lie_core import (
    LieAlgebra,
    NotNilpotentError,
    abelian,
    is_nilpotent,
    validate_jacobi,
)
from metriclie.quadratic_cohomology import (
    CocycleError,
    QuadraticCocycle,
    act,
    check_admissible,
    cocycle_defect,
    cq_compose,
    cq_identity,
    cq_inverse,
    half_wedge_square,
    indecomposability_proxy,
    verify_equivalence_witness,
    zero_cocycle,
)

from support import (
    REJECTION_TAGS,
    _cochain_from_vector,
    _dense_condition_b,
    _random_span_element,
    alternating_value,
    dense_check_admissible,
    dense_combination,
    dense_span,
    five_dim_three_step,
    random_cochain,
    random_quadratic_cochain,
    random_sparse_table,
    random_valid_cocycle,
    rational,
    rng,
    rows_snapshot,
    shared_rows_snapshot,
    sparse_row,
    seven_dim_two_step,
    six_dim_two_step,
)


def first_nonclosed_form(l: LieAlgebra, degree: int) -> Cochain:
    for key in combinations(range(l.dim), degree):
        c = cochain_from_terms(l.dim, degree, 1, [(key, (Fraction(1),))], scalar=True)
        if not differential(l, c).is_zero():
            return c
    raise AssertionError("every basis form is closed")


def test_perturbed_gamma_is_rejected():
    z = g64_admissible_cocycle()
    bad_gamma = z.gamma + first_nonclosed_form(z.algebra, 3)
    defect = cocycle_defect(z.algebra, z.module, z.alpha, bad_gamma)
    assert defect is not None and defect[0] == "gamma_equation"
    with pytest.raises(CocycleError):
        QuadraticCocycle(z.algebra, z.module, z.alpha, bad_gamma)


def test_perturbed_alpha_is_rejected():
    z = g64_admissible_cocycle()
    offender = first_nonclosed_form(z.algebra, 2)
    extra = Cochain(
        z.algebra.dim,
        2,
        z.module.dim,
        False,
        {key: (v[0], Fraction(0), Fraction(0), Fraction(0)) for key, v in offender.values.items()},
    )
    bad_alpha = z.alpha + extra
    defect = cocycle_defect(z.algebra, z.module, bad_alpha, z.gamma)
    assert defect is not None and defect[0] == "d_alpha"
    with pytest.raises(CocycleError):
        QuadraticCocycle(z.algebra, z.module, bad_alpha, z.gamma)


def test_shape_mismatches_are_rejected():
    z = g64_admissible_cocycle()
    with pytest.raises(ValueError):
        QuadraticCocycle(z.algebra, z.module, z.gamma, z.gamma)
    with pytest.raises(ValueError):
        QuadraticCocycle(z.algebra, z.module, z.alpha, z.alpha)


def test_cocycles_and_cochain_pairs_are_frozen_and_hash_by_value():
    z = g64_admissible_cocycle()
    c = cq_identity(z.algebra, z.module)
    for value, name, replacement in ((z, "alpha", z.alpha.scale(2)), (c, "sigma", c.sigma)):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)
        assert getattr(value, name) is before
    assert z.alpha == g64_admissible_cocycle().alpha
    twin = build_double(g64_admissible_cocycle())
    assert build_double(z) == twin and hash(build_double(z)) == hash(twin)
    assert hash(z.alpha) == hash(cochain_from_terms(6, 2, 4, reversed(list(z.alpha.values.items()))))
    assert len({z, g64_admissible_cocycle(), g65_admissible_cocycle()}) == 2
    assert hash(c) == hash(cq_identity(g64(), module_for_tag("r22w")))


def test_compose_identity_and_inverse():
    l, module = g64(), module_for_tag("r22w")
    e = cq_identity(l, module)
    rg = rng(51)
    for _ in range(8):
        c = random_quadratic_cochain(rg, l, module)
        assert cq_compose(c, e) == c
        assert cq_compose(e, c) == c
        assert cq_compose(c, cq_inverse(c)) == e
        assert cq_compose(cq_inverse(c), c) == e


def test_compose_is_associative():
    l, module = g64(), module_for_tag("r22w")
    rg = rng(52)
    for _ in range(8):
        c1 = random_quadratic_cochain(rg, l, module)
        c2 = random_quadratic_cochain(rg, l, module)
        c3 = random_quadratic_cochain(rg, l, module)
        assert cq_compose(cq_compose(c1, c2), c3) == cq_compose(c1, cq_compose(c2, c3))


def test_compose_rejects_mismatched_data():
    c1 = cq_identity(g64(), module_for_tag("r22w"))
    c2 = cq_identity(g64(), module_for_tag("r11w"))
    with pytest.raises(ValueError):
        cq_compose(c1, c2)


def test_act_is_a_right_action():
    z = g64_admissible_cocycle()
    e = cq_identity(z.algebra, z.module)
    assert act(z, e) == z
    rg = rng(53)
    for _ in range(6):
        c1 = random_quadratic_cochain(rg, z.algebra, z.module)
        c2 = random_quadratic_cochain(rg, z.algebra, z.module)
        assert act(act(z, c1), c2) == act(z, cq_compose(c1, c2))


def test_act_preserves_cocycle_conditions():
    z = g65_admissible_cocycle()
    rg = rng(54)
    for _ in range(10):
        c = random_quadratic_cochain(rg, z.algebra, z.module)
        moved = act(z, c)
        assert cocycle_defect(moved.algebra, moved.module, moved.alpha, moved.gamma) is None


def test_act_undone_by_inverse():
    z = g64_admissible_cocycle()
    rg = rng(55)
    for _ in range(6):
        c = random_quadratic_cochain(rg, z.algebra, z.module)
        assert act(act(z, c), cq_inverse(c)) == z


def test_equivalence_witness():
    z = g64_admissible_cocycle()
    rg = rng(56)
    c = random_quadratic_cochain(rg, z.algebra, z.module)
    moved = act(z, c)
    assert verify_equivalence_witness(z, moved, c)
    assert not verify_equivalence_witness(moved, z, c) or act(moved, c) == z


@pytest.mark.parametrize("fixture", [g64_admissible_cocycle, g65_admissible_cocycle])
def test_fixture_cocycles_admissible_with_full_image(fixture):
    z = fixture()
    report = check_admissible(z)
    assert report.overall
    assert len(report.conditions) == 2
    for k in (0, 1):
        cond = report.condition(k)
        assert cond.a_passed and cond.b_passed
        assert cond.b_image_dim == 4
        assert cond.a_witness is None and cond.b_witness is None
    assert indecomposability_proxy(z)


def test_admissibility_invariant_under_act():
    z = g64_admissible_cocycle()
    rg = rng(57)
    for _ in range(5):
        c = random_quadratic_cochain(rg, z.algebra, z.module)
        report = check_admissible(act(z, c))
        assert report.overall
        assert [cond.b_image_dim for cond in report.conditions] == [4, 4]


def test_zero_cocycle_on_g41_fails_last_stage():
    z = zero_cocycle(g41(), orthonormal_module([1]))
    report = check_admissible(z)
    assert not report.overall
    assert len(report.conditions) == 3
    cond = report.condition(2)
    assert not cond.a_passed
    l0, a0, z0 = cond.a_witness
    # the offending central direction is the line spanned by the last basis
    # vector, and it pairs trivially with the module and functional parts
    assert not any(l0[:3]) and l0[3] != 0
    # the zero map has empty image, which is vacuously nondegenerate; the
    # failure is carried entirely by the first condition
    assert cond.b_image_dim == 0


def test_valid_cocycles_on_five_dim_base_never_pass_both_final_conditions():
    l = five_dim_three_step()
    rg = rng(58)
    seen = 0
    for tag in ("r01", "r11w", "r02"):
        module = module_for_tag(tag)
        for _ in range(4):
            z = random_valid_cocycle(rg, l, module)
            if z is None:
                continue
            seen += 1
            cond = check_admissible(z).condition(2)
            assert not (cond.a_passed and cond.b_passed)
    assert seen >= 6


def test_admissibility_needs_nilpotency():
    solvable = LieAlgebra(2, {(0, 1): (Fraction(1), Fraction(0))}, validate=False)
    z = zero_cocycle(solvable, orthonormal_module([1]))
    with pytest.raises(NotNilpotentError):
        check_admissible(z)


def test_indecomposability_proxy_fails_for_small_image():
    z = zero_cocycle(g64(), module_for_tag("r22w"))
    assert not indecomposability_proxy(z)


def test_zero_cocycle_on_a_mid_size_abelian_algebra_keeps_the_pairing_kernel_sparse():
    # The kernel of the bracket pairing l (x) l -> l of the n-dim abelian
    # algebra is the whole n^2-dim tensor space: as dense vectors it would
    # take 8 MB of pointers alone at n = 32.  Kept sparse, its unit vectors
    # dominate the peak (about 0.4 MB at n = 32 and 1 MB at n = 48); the
    # (A_0) system has no nonzero entry, so it must hold no dense rows.
    for n, bound in ((32, 7_000_000), (48, 4_000_000)):
        z = zero_cocycle(abelian(n), module_for_tag("r01"))
        tracemalloc.start()
        try:
            report = check_admissible(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, n
        (cond,) = report.conditions
        assert not cond.a_passed and cond.b_passed and cond.b_image_dim == 0


# ---------------------------------------------------------------------------
# the sparse stage pass against the dense reference
# ---------------------------------------------------------------------------


def test_check_admissible_matches_the_dense_reference_on_the_catalog():
    rows = 0
    for entry in ENTRIES:
        for point in _sample_points(entry, default_samples()):
            z = instantiate(entry, point)
            assert check_admissible(z) == dense_check_admissible(z), entry.id
            rows += 1
    assert rows == 95
    for fixture in (g64_admissible_cocycle, g65_admissible_cocycle):
        assert check_admissible(fixture()) == dense_check_admissible(fixture())


def test_check_admissible_matches_the_dense_reference_on_the_rejection_study(rejection_study):
    failed = {"a": 0, "b": 0}
    for z in rejection_study.cocycles:
        report = check_admissible(z)
        assert report == dense_check_admissible(z)
        failed["a"] += not all(c.a_passed for c in report.conditions)
        failed["b"] += not all(c.b_passed for c in report.conditions)
    assert failed["a"] and failed["b"]  # both witnesses are compared


def _closed_shift(rg, z: QuadraticCocycle) -> QuadraticCocycle:
    """z with a random closed scalar 3-form added to gamma: again a cocycle."""
    l = z.algebra
    d3 = differential_matrix(l, None, 3)
    total = _random_span_element(rg, kernel_basis(d3), d3.cols)
    shift = _cochain_from_vector(total, l.dim, 3, 1, True)
    return QuadraticCocycle(l, z.module, z.alpha, z.gamma + shift)


def test_check_admissible_matches_the_dense_reference_on_random_nilpotent_tables():
    # the center of a random table sits at any indices, so every orientation
    # of a stored gamma key meets a stage vector
    rg = rng(2031)
    seen = shifted = 0
    while seen < 40:
        l = random_sparse_table(rg, rg.randint(3, 7))
        if not (validate_jacobi(l).ok and is_nilpotent(l)):
            continue
        module = module_for_tag(rg.choice(REJECTION_TAGS))
        for z in (zero_cocycle(l, module), random_valid_cocycle(rg, l, module, tries=3)):
            if z is None:
                continue
            moved = _closed_shift(rg, z)
            shifted += moved != z
            for y in (z, moved):
                assert check_admissible(y) == dense_check_admissible(y)
        seen += 1
    assert shifted >= 30


def test_check_admissible_matches_the_dense_reference_with_closed_gamma_shifts():
    rg = rng(2032)
    cocycles = [g64_admissible_cocycle(), g65_admissible_cocycle()]
    for l in (five_dim_three_step(), seven_dim_two_step()):
        for tag in ("r01", "r10", "r11", "r02") * 2:
            z = random_valid_cocycle(rg, l, module_for_tag(tag))
            if z is not None:
                cocycles.append(z)
    assert len(cocycles) >= 8
    for z in cocycles:
        moved = _closed_shift(rg, z)
        assert moved != z
        for y in (z, moved):
            assert check_admissible(y) == dense_check_admissible(y)


def test_check_admissible_builds_no_dense_system(monkeypatch):
    # No kernel_basis call and no Matrix wider than the module (the Gram
    # restrictions of the (B_k) check are the only matrices left).
    cocycles = (g64_admissible_cocycle(), zero_cocycle(g41(), orthonormal_module([1])))
    calls = []
    widths = []
    init = Matrix.__init__

    def counting_kernel_basis(m):
        calls.append(m.cols)
        return kernel_basis(m)

    def recording_init(self, cols, nonzero_rows):
        widths.append(cols)
        init(self, cols, nonzero_rows)

    # every metriclie namespace that holds kernel_basis, as a from-import binds it
    for name, module in list(sys.modules.items()):
        if name.startswith("metriclie") and getattr(module, "kernel_basis", None) is kernel_basis:
            monkeypatch.setattr(module, "kernel_basis", counting_kernel_basis)
    monkeypatch.setattr(Matrix, "__init__", recording_init)
    for z in cocycles:
        widths.clear()
        report = check_admissible(z)
        assert calls == []
        assert all(width <= z.module.dim for width in widths)
        assert report.overall is (z.module.dim == 4)


def _images_until_full(z: QuadraticCocycle, half) -> tuple[int, int]:
    """How many kernel tensors of a stage, in kernel order, the (B_k) images
    need to span the module (all of them when they never do), and the rank of
    all the images; from dense alpha values and dense spans."""
    m, rows = z.module.dim, half.series_term.rows

    def image(vec):  # the sum of x * w_j[s] * alpha(e_i, e_s) over u = i * d1 + j
        terms = {}
        for u, x in vec.items():
            i, j = divmod(u, len(rows))
            for s, y in rows[j].items():
                terms[(i, s)] = terms.get((i, s), 0) + x * y
        return dense_combination(terms, lambda key: alternating_value(z.alpha, key), m)

    images = [image(vec) for vec in half.kernel]
    drawn = next((r for r in range(len(images) + 1)
                  if dense_span(m, images[:r] or [(0,) * m]).dim == m), len(images))
    return drawn, dense_span(m, images or [(0,) * m]).dim


def test_stage_report_reduces_the_b_images_once_and_keeps_its_subspaces(monkeypatch):
    """Per stage, the (A_k) system is one call of quadratic_cohomology's
    binding of solve, and its binding of _reduce runs once, on the (B_k)
    images: a running elimination that draws the images of the kernel
    tensors in kernel order and stops at rank dim a; it runs no elimination
    without pivots.  Subspace takes the rank of the form on the image
    through exact_linalg's binding of _reduce, outside solve, only when the
    image is not the whole module (nondegenerate by construction).  The
    cached stage, series term, columns, coordinate rows and kernel rows stay
    as they were built."""
    # per stage: [(A_k) solves, other runs, (B_k) runs, images drawn, form ranks]
    seen = []
    local, shared = quadratic_cohomology._reduce, exact_linalg._reduce
    solve, stage_report = quadratic_cohomology.solve, quadratic_cohomology._stage_report
    inside = []

    def counting_solve(equations, unknowns):
        if not inside:  # the stages being built
            return solve(equations, unknowns)
        seen[-1][0] += 1
        inside.append("solve")  # its elimination is no form rank
        try:
            return solve(equations, unknowns)
        finally:
            inside.pop()

    def counting_local(rows, pivots=None):
        if not inside:
            return local(rows, pivots)
        if pivots is None:
            seen[-1][1] += 1
            return local(rows)
        seen[-1][2] += 1

        def drawn():
            for row in rows:
                seen[-1][3] += 1
                yield row
        return local(drawn(), pivots)

    def counting_shared(rows, pivots=None):
        if inside and inside[-1] != "solve":
            seen[-1][4] += 1
        return shared(rows, pivots)

    def checked_stage_report(z, k, half, alpha_at, gamma_at):
        seen.append([0, 0, 0, 0, 0])

        def cached():
            return ({s: dict(c) for s, c in half.columns.items()},
                    {u: dict(r) for u, r in half.z_rows.items()}, [dict(v) for v in half.kernel])

        kept, before = rows_snapshot(half.stage, half.series_term), cached()
        inside.append(k)
        try:
            report = stage_report(z, k, half, alpha_at, gamma_at)
        finally:
            inside.pop()
        assert kept() and cached() == before
        return report

    monkeypatch.setattr(quadratic_cohomology, "solve", counting_solve)
    monkeypatch.setattr(quadratic_cohomology, "_reduce", counting_local)
    monkeypatch.setattr(exact_linalg, "_reduce", counting_shared)
    monkeypatch.setattr(quadratic_cohomology, "_stage_report", checked_stage_report)
    ranks, stopped = set(), 0
    cocycles = [g64_admissible_cocycle(), g65_admissible_cocycle(),
                zero_cocycle(g41(), orthonormal_module([1])),
                zero_cocycle(abelian(3), orthonormal_module([]))]
    for z in cocycles:
        seen.clear()
        report = check_admissible(z)
        for c, half, (a_solves, other_runs, b_runs, drawn, form_ranks) in zip(
            report.conditions, quadratic_cohomology._stages(z.algebra), seen
        ):
            expected, image_dim = _images_until_full(z, half)
            full = image_dim == z.module.dim
            assert (a_solves, other_runs, b_runs, drawn) == (1, 0, 1, expected)
            assert c.b_image_dim == image_dim and form_ranks == (0 if full else 1)
            ranks.add(form_ranks)
            stopped += drawn < len(half.kernel)
        assert len(seen) == len(report.conditions)
    assert ranks == {0, 1} and stopped


def _witness_tensors(c) -> list[tuple[int, int]]:
    """The one tensor e_i (x) w_j of each unit coefficient matrix of a (B_k) witness."""
    out = []
    for tensor in c.b_witness:
        ((i, j),) = [(i, j) for i, row in enumerate(tensor) for j, x in enumerate(row) if x]
        assert tensor[i][j] == 1
        out.append((i, j))
    return out


def test_the_b_images_stop_once_the_first_kernel_tensors_span_the_module(monkeypatch):
    # On abelian R^3 the kernel of the pairing is every e_i (x) e_j in order,
    # so the images of e_0 (x) e_0, e_0 (x) e_1 and e_0 (x) e_2 span R^2 and
    # the elimination draws those three of the nine.
    l, module = abelian(3), orthonormal_module([1, 1])
    alpha = cochain_from_terms(3, 2, 2, [((0, 1), (1, 0)), ((0, 2), (0, 1)), ((1, 2), (3, 5))])
    z = QuadraticCocycle(l, module, alpha, Cochain.zero(3, 3, 1, scalar=True))
    drawn, local = [], quadratic_cohomology._reduce

    def counting(rows, pivots=None):
        if pivots is None:
            return local(rows)
        return local((drawn.append(row) or row for row in rows), pivots)

    monkeypatch.setattr(quadratic_cohomology, "_reduce", counting)
    (c,) = check_admissible(z).conditions
    (half,) = quadratic_cohomology._stages(l)
    assert (c.b_passed, c.b_image_dim, c.b_witness) == _dense_condition_b(z, half.series_term)
    assert (c.b_passed, c.b_image_dim, len(drawn), len(half.kernel)) == (True, 2, 3, 9)


def test_a_b_witness_is_the_kernel_tensors_in_order_whose_image_raised_the_rank():
    # On abelian R^4 with a = (hyperbolic plane A1, A2) + R A3, alpha(e_0, e_s)
    # for s = 1, 2, 3 spans the degenerate span(A1, A3); the witness skips
    # e_0 (x) e_0 (image 0) and the first tensor whose image repeats earlier ones.
    l = abelian(4)
    module = OrthogonalModule(Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    a1, a3, a13, two_a1 = (1, 0, 0), (0, 0, 1), (1, 0, 1), (2, 0, 0)
    for values, witness in (((a1, two_a1, a3), [(0, 1), (0, 3)]),
                            ((a1, a3, a13), [(0, 1), (0, 2)])):
        terms = [((0, s), value) for s, value in enumerate(values, 1)]
        z = QuadraticCocycle(l, module, cochain_from_terms(4, 2, 3, terms),
                             Cochain.zero(4, 3, 1, scalar=True))
        (c,) = check_admissible(z).conditions
        (half,) = quadratic_cohomology._stages(l)
        assert (c.b_passed, c.b_image_dim, c.b_witness) == _dense_condition_b(z, half.series_term)
        assert (c.b_passed, c.b_image_dim) == (False, 2)
        assert _witness_tensors(c) == witness


def fresh_algebra(l: LieAlgebra) -> LieAlgebra:
    """An algebra equal to ``l``, built anew, so nothing computed on ``l`` is kept on it."""
    table = {(i, j): dict(p) for i in range(l.dim) for j, p in l.row(i).items() if i < j}
    return LieAlgebra(l.dim, table, labels=l.labels)


def test_the_algebras_half_is_built_once_and_matches_a_fresh_instance(
    monkeypatch, rejection_study
):
    """Every catalog cocycle (8 shared bases) and the 50 rejection-study
    cocycles (one shared base): two reports on the shared algebra equal two
    on a fresh equal algebra, verdicts, b_image_dim and both witnesses
    included.  Only the first call on the fresh algebra brackets and takes
    coordinates, and the cached stages, series terms, coordinate rows and
    kernel rows stay as they were built."""
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    monkeypatch.setattr(LieAlgebra, "ad_rows", counting("ad_rows", LieAlgebra.ad_rows))
    monkeypatch.setattr(Subspace, "coords", counting("coords", Subspace.coords))
    cocycles = [instantiate(entry, point) for entry in ENTRIES
                for point in _sample_points(entry, default_samples())]
    assert len(cocycles) == 95 and len({id(z.algebra) for z in cocycles}) == 8
    cocycles += rejection_study.cocycles
    for z in cocycles:
        stages = quadratic_cohomology._stages(z.algebra)

        def cached_rows():
            return [({u: dict(r) for u, r in half.z_rows.items()}, [dict(v) for v in half.kernel])
                    for half in stages]

        kept, rows = rows_snapshot(*[s for half in stages for s in half[:2]]), cached_rows()
        shared = [check_admissible(z), check_admissible(z)]
        assert quadratic_cohomology._stages(z.algebra) is stages
        assert kept() and cached_rows() == rows
        fresh = QuadraticCocycle(fresh_algebra(z.algebra), z.module, z.alpha, z.gamma)
        calls.clear()
        reports = [check_admissible(fresh)]
        assert "ad_rows" in calls
        assert ("coords" in calls) == any(half.z_rows for half in stages)  # not if abelian
        calls.clear()
        reports.append(check_admissible(fresh))
        assert calls == []
        assert reports == shared and shared[0] == shared[1]


def test_an_algebra_with_its_stages_built_copies_and_pickles():
    for z in (g64_admissible_cocycle(), zero_cocycle(g41(), orthonormal_module([1]))):
        report, l = check_admissible(z), z.algebra
        assert l._stages is not None
        for made in (copy.copy(l), copy.deepcopy(l), pickle.loads(pickle.dumps(l))):
            assert made == l and hash(made) == hash(l)
            assert quadratic_cohomology._stages(made) == quadratic_cohomology._stages(l)
            assert check_admissible(QuadraticCocycle(made, z.module, z.alpha, z.gamma)) == report


def test_half_wedge_square_matches_the_halved_wedge_pair():
    # 480 random closed 2-forms over every module of the rejection study, plus
    # random cochains of odd and even degree, compared value by value and in
    # key order against wedge_pair(alpha, alpha) / 2
    rg = rng(2040)
    forms = []
    for l in (five_dim_three_step(), six_dim_two_step(), seven_dim_two_step()):
        for tag in REJECTION_TAGS:
            module = module_for_tag(tag)
            d2 = differential_matrix(l, module, 2)
            closed = kernel_basis(d2)
            for _ in range(20):
                total = _random_span_element(rg, closed, d2.cols)
                forms.append((module, _cochain_from_vector(total, l.dim, 2, module.dim, False)))
    assert len(forms) == 480
    for degree in (0, 1, 2, 3, 4):
        for density in (0.05, 0.3, 1.0):
            module = module_for_tag(rg.choice(REJECTION_TAGS))
            forms.append((module, random_cochain(rg, 8, degree, module.dim, density=density)))
    for module, alpha in forms:
        got = half_wedge_square(module, alpha)
        expected = wedge_pair(module, alpha, alpha).scale(Fraction(1, 2))
        assert got == expected
        assert list(got.values.items()) == list(expected.values.items())


def test_half_wedge_square_adds_no_zero(monkeypatch):
    """Every sum in half_wedge_square, the module form's product included,
    starts at its first term and drops a key whose sum vanishes: over the
    rejection sampler's alphas (seed 2026, the rejection tags in turn) and
    the 95 catalog rows, no Fraction addition has a zero operand."""
    rg = rng(2026)
    l = five_dim_three_step()
    forms = []
    for tag in REJECTION_TAGS:
        module = module_for_tag(tag)
        d2 = differential_matrix(l, module, 2)
        closed = kernel_basis(d2)
        for _ in range(60):
            total = _random_span_element(rg, closed, d2.cols)
            forms.append((module, _cochain_from_vector(total, l.dim, 2, module.dim, False)))
    for entry in ENTRIES:
        for point in _sample_points(entry, default_samples()):
            z = instantiate(entry, point)
            forms.append((z.module, z.alpha))
    assert len(forms) == 480 + 95
    counts = {"added": 0, "zero": 0}
    add = Fraction.__add__

    def counting(a, b):
        counts["added"] += 1
        counts["zero"] += not a or not b
        return add(a, b)

    monkeypatch.setattr(Fraction, "__add__", counting)
    for module, alpha in forms:
        half_wedge_square(module, alpha)
    monkeypatch.undo()
    assert counts["zero"] == 0 and counts["added"] > 1000


def test_differential_and_admissibility_add_no_zero(monkeypatch, rejection_study):
    """The sums of d alpha, d gamma and each gamma(e_i, b_u, w) of the
    admissibility test start at their first term, and a key whose sum
    vanishes is dropped: over the 50 rejection-study cocycles no Fraction
    addition, from either side, has a zero operand."""
    counts = {"added": 0, "zero": 0}

    def counting(original):
        def add(a, b):
            counts["added"] += 1
            counts["zero"] += not a or not b
            return original(a, b)
        return add

    monkeypatch.setattr(Fraction, "__add__", counting(Fraction.__add__))
    monkeypatch.setattr(Fraction, "__radd__", counting(Fraction.__radd__))
    for z in rejection_study.cocycles:
        differential(z.algebra, z.alpha)
        differential(z.algebra, z.gamma)
        check_admissible(z)
    monkeypatch.undo()
    assert len(rejection_study.cocycles) == 50
    assert counts["zero"] == 0 and counts["added"] > 500, counts


def test_no_kernel_modifies_the_shared_bracket_rows_or_the_module_form(rejection_study):
    """Bracket rows and the module form are shared mutable maps: the adjoint
    action, the Jacobi check, the homomorphism check, the admissibility test
    and the double leave them as they were, and verifying and fingerprinting the
    double leave its own rows and form as they were."""
    rg = rng(3036)
    cocycles = list(rejection_study.cocycles[:16])
    cocycles += [instantiate(entry, point) for entry in ENTRIES
                 for point in _sample_points(entry, default_samples())]
    for z in cocycles:
        l, n = z.algebra, z.algebra.dim
        kept = shared_rows_snapshot(l, z.module.gram)
        x, y = (tuple(rational(rg) for _ in range(n)) for _ in range(2))
        list(l.ad_rows(range(n), (sparse_row(x), sparse_row(y))))
        validate_jacobi(l)
        is_lie_homomorphism(Matrix.identity(n), l, l)
        check_admissible(z)
        g = build_double(z)
        assert kept()
        kept = shared_rows_snapshot(g.algebra, g.gram)
        verify_metric(g)
        fingerprint(g)
        assert kept()
