"""Top level acceptance checks.

Each test prints one summary line so a log scrape shows the verdicts at a
glance. Everything is exact rational arithmetic; there are no tolerances
anywhere, only time budgets.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from metriclie.catalog import (
    FORM_TERMS,
    GAMMA0_TERMS,
    base_algebra,
    entry_by_id,
    g41,
    g64_admissible_cocycle,
    g65_admissible_cocycle,
    heisenberg_line,
    instantiate,
    module_for_tag,
    orthonormal_module,
    run_catalog,
)
from metriclie.cochain_complex import (
    Isomap,
    OrthogonalModule,
    cochain_from_terms,
    cohomology_dim,
    differential,
    differential_matrix,
    is_lie_homomorphism,
    pullback,
    wedge_pair,
)
from metriclie.double_construction import (
    MetricLieAlgebra,
    build_double,
    verify_metric,
)
from metriclie.exact_linalg import Matrix, Signature, signature_of
from metriclie.lie_core import LieAlgebra, abelian
from metriclie.quadratic_cohomology import (
    act,
    check_admissible,
    cocycle_defect,
    cq_compose,
    cq_identity,
    cq_inverse,
    zero_cocycle,
)

from support import (
    catalog_pairs,
    dense_brackets,
    pinned_expansion_failures,
    random_cochain,
    random_quadratic_cochain,
    rng,
)


@contextmanager
def reported(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


_BATCH = {}


def full_batch():
    """The complete catalog run, shared between criteria."""
    if "report" not in _BATCH:
        start = time.monotonic()
        _BATCH["report"] = run_catalog()
        _BATCH["elapsed"] = time.monotonic() - start
    return _BATCH["report"], _BATCH["elapsed"]


def test_criterion_1_fixture_cocycles():
    with reported(1, "explicit six dimensional cocycles"):
        start = time.monotonic()
        for fixture in (g64_admissible_cocycle, g65_admissible_cocycle):
            z = fixture()
            assert differential(z.algebra, z.alpha).is_zero()
            assert wedge_pair(z.module, z.alpha, z.alpha).is_zero()
            rep = check_admissible(z)
            assert rep.overall
            assert len(rep.conditions) == 2
            for k in (0, 1):
                assert rep.condition(k).b_image_dim == z.module.dim == 4
        assert time.monotonic() - start < 1.0


def test_criterion_2_full_catalog_batch():
    with reported(2, "full catalog batch"):
        report, elapsed = full_batch()
        assert report.all_ok
        assert len(report.rows) == 95
        for row in report.rows:
            assert row.cocycle_valid, row.entry_id
            assert row.admissible, row.entry_id
            assert row.proxy_indecomposable, row.entry_id
            assert row.double_built, row.entry_id
            assert row.error is None
            assert row.fingerprint.dim <= 10
            # non-abelian: the derived algebra of the double is nonzero
            assert row.fingerprint.series_dims[1] > 0, row.entry_id
        assert elapsed < 60.0, f"batch took {elapsed:.1f}s"


def test_criterion_3_signature_additivity():
    with reported(3, "signature additivity"):
        report, _ = full_batch()
        for row in report.rows:
            entry = entry_by_id(row.entry_id)
            n = base_algebra(entry.base).dim
            base_sig = signature_of(module_for_tag(entry.module_tag).gram)
            expected = Signature(
                neg=base_sig.neg + n, pos=base_sig.pos + n, null=0
            )
            assert row.fingerprint.signature == expected, row.entry_id


def test_criterion_4_negative_controls(rejection_study):
    with reported(4, "negative controls"):
        start = time.monotonic()

        rep = check_admissible(zero_cocycle(g41(), orthonormal_module([1])))
        assert not rep.overall
        cond = rep.condition(2)
        assert not cond.a_passed
        l0 = cond.a_witness[0]
        assert l0[3] != 0 and all(c == 0 for c in l0[:3])

        assert len(rejection_study.cocycles) == 50
        for z in rejection_study.cocycles:
            last = check_admissible(z).condition(2)
            assert not (last.a_passed and last.b_passed)

        g = build_double(instantiate(entry_by_id("T1.2.a")))
        table = dense_brackets(g.algebra)
        key, value = sorted(table.items())[0]
        slot = next(t for t, c in enumerate(value) if c != 0)
        table[key] = tuple(-c if t == slot else c for t, c in enumerate(value))
        mutated = MetricLieAlgebra(
            algebra=LieAlgebra(
                g.algebra.dim, table, labels=g.algebra.labels, validate=False
            ),
            gram=g.gram,
        )
        assert not verify_metric(mutated).ok

        # the budget includes sampling the study, done once per session
        assert rejection_study.sample_s + time.monotonic() - start < 30.0


def test_criterion_5_differential_suite():
    with reported(5, "differential suite"):
        rg = rng(2027)
        for name, algebra, module in catalog_pairs():
            value_dim = module.dim if module is not None else 1
            scalar = module is None
            for degree in range(4):
                for _ in range(25):
                    c = random_cochain(
                        rg, algebra.dim, degree, value_dim, scalar=scalar
                    )
                    dd = differential(algebra, differential(algebra, c))
                    assert dd.is_zero(), name
        assert pinned_expansion_failures() == []
        assert not any(differential_matrix(g41(), None, 3).nonzero_rows)


def test_criterion_6_group_action_suite():
    with reported(6, "cochain group action suite"):
        for fixture in (g64_admissible_cocycle, g65_admissible_cocycle):
            z = fixture()
            l, module = z.algebra, z.module
            e = cq_identity(l, module)
            baseline = check_admissible(z)
            rg = rng(2028)
            for _ in range(20):
                c1 = random_quadratic_cochain(rg, l, module)
                c2 = random_quadratic_cochain(rg, l, module)
                c3 = random_quadratic_cochain(rg, l, module)
                assert cq_compose(c1, e) == c1 and cq_compose(e, c1) == c1
                assert cq_compose(c1, cq_inverse(c1)) == e
                assert cq_compose(cq_compose(c1, c2), c3) == cq_compose(
                    c1, cq_compose(c2, c3)
                )
                assert act(act(z, c1), c2) == act(z, cq_compose(c1, c2))
                moved = act(z, c1)
                assert cocycle_defect(l, module, moved.alpha, moved.gamma) is None
                verdict = check_admissible(moved)
                assert verdict.overall == baseline.overall
                assert [c.b_image_dim for c in verdict.conditions] == [
                    c.b_image_dim for c in baseline.conditions
                ]


def test_criterion_7_pullback_regressions():
    with reported(7, "pullback regressions"):
        l = heisenberg_line()
        module = orthonormal_module([1, 1])

        def form(name):
            terms = []
            for coeff, (i, j), target in FORM_TERMS[name]:
                value = tuple(
                    Fraction(coeff) if t == target else Fraction(0) for t in range(2)
                )
                terms.append(((i, j), value))
            return cochain_from_terms(4, 2, 2, terms)

        gamma0 = cochain_from_terms(
            4, 3, 1, [(key, (Fraction(c),)) for c, key in GAMMA0_TERMS], scalar=True
        )

        for c in (Fraction(2), Fraction(3), Fraction(1, 2)):
            s = Matrix.diagonal([c, 1 / c**2, 1 / c, c**2])
            assert is_lie_homomorphism(s, l, l)
            iso = Isomap(s, Matrix.identity(2))
            assert pullback(iso, form("f6")) == form("f6")
            assert pullback(iso, gamma0.scale(c)) == gamma0

        s5 = Matrix.diagonal([2, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)])
        assert is_lie_homomorphism(s5, l, l)
        iso = Isomap(s5, Matrix.identity(2))
        assert pullback(iso, form("f5")) == form("f5")
        assert pullback(iso, gamma0.scale(Fraction(16))) == gamma0

        auto = Matrix.from_rows(
            [[1, 0, 0, 0], [2, 1, 0, 0], [3, 1, 1, 0], [1, 2, 1, 1]]
        )
        target = g41()
        assert is_lie_homomorphism(auto, target, target)
        u = Matrix.from_rows(
            [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
        )
        iso = Isomap(auto, u)
        rg = rng(2029)
        for degree in (1, 2):
            for _ in range(10):
                c = random_cochain(rg, 4, degree, 2)
                assert pullback(iso, differential(target, c)) == differential(
                    target, pullback(iso, c)
                )
        scalar_iso = Isomap(auto)
        for _ in range(10):
            c1 = random_cochain(rg, 4, 1, 2)
            c2 = random_cochain(rg, 4, 2, 2)
            assert wedge_pair(module, pullback(iso, c1), pullback(iso, c2)) == pullback(
                scalar_iso, wedge_pair(module, c1, c2)
            )


def test_criterion_8_cohomology_dimensions():
    with reported(8, "cohomology dimensions"):
        assert cohomology_dim(abelian(5), None, 3) == 10
        for m in (1, 2):
            module = OrthogonalModule(Matrix.identity(m))
            assert cohomology_dim(heisenberg_line(), module, 2) == 4 * m
