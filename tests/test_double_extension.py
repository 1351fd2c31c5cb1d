"""The catalog is closed under reduction by a central isotropic vector.

A nilpotent metric Lie algebra g with a nonzero isotropic central e is the
double extension of h = e^perp / Re (Medina-Revoy, Ann. Sci. ENS 18 (1985)
553-561), realised here on W = {e, f}^perp for an isotropic f with <e, f> = 1,
with the bracket [x, y] - <[x, y], f> e.  Splitting off a nondegenerate
central part of h leaves an algebra of smaller dimension that must again be
in the catalog, or be zero.  This check reads neither alpha nor gamma nor
admissibility, so it is independent of the way the catalog was built
(ROADMAP item 20(a)).
"""

from __future__ import annotations

import random
from fractions import Fraction

from metriclie.catalog import run_catalog
from metriclie.double_construction import MetricLieAlgebra, fingerprint, verify_metric
from metriclie.exact_linalg import Matrix, Subspace, scalar
from metriclie.lie_core import LieAlgebra, center


def combine(*terms: tuple[Fraction, dict]) -> dict:
    """sum c * v over the pairs (c, v) of sparse rows, canonical and zero-free."""
    out: dict = {}
    for c, v in terms:
        for t, x in v.items():
            out[t] = out.get(t, 0) + c * x
    return {t: scalar(x) for t, x in out.items() if x}


def covector(gram: Matrix, v: dict) -> dict:
    """v^T G as a sparse row, by the package's matrix product."""
    return (Matrix(gram.cols, (v,)) @ gram).nonzero_rows[0]


def pairing(gram: Matrix, u: dict, v: dict) -> Fraction:
    return sum((x * v.get(t, 0) for t, x in covector(gram, u).items()), Fraction(0))


def orthogonal_complement(gram: Matrix, rows) -> Subspace:
    return Subspace.kernel(gram.cols, [dict(covector(gram, r)) for r in rows])


def bracket(l: LieAlgebra, x: dict, y: dict) -> dict:
    return combine(*zip(x.values(), l.ad_rows(x, (y,))))


def restricted(g: MetricLieAlgebra, s: Subspace, fold) -> MetricLieAlgebra:
    """The algebra on the echelon rows of ``s`` with the bracket
    ``fold([x, y])`` read in those rows, and the form restricted to ``s``."""
    brackets = {}
    for a, x in enumerate(s.rows):
        for b in range(a + 1, s.dim):
            coords = s.coords(fold(bracket(g.algebra, x, s.rows[b])))
            assert coords is not None, "the bracket leaves the subspace"
            brackets[(a, b)] = coords
    return MetricLieAlgebra(LieAlgebra(s.dim, brackets, validate=False), s.form(g.gram))


def reduce_by(g: MetricLieAlgebra, e: dict) -> MetricLieAlgebra:
    """h = {e, f}^perp with the bracket [x, y] - <[x, y], f> e, f isotropic
    and <e, f> = 1: f is e_k / (Ge)_k at the first k with (Ge)_k != 0, moved
    along e until it is isotropic."""
    gram = g.gram
    ge = covector(gram, e)
    k = min(ge)
    f = {k: scalar(1 / Fraction(ge[k]))}
    f = combine((1, f), (-pairing(gram, f, f) / 2, e))
    w = orthogonal_complement(gram, (e, f))
    return restricted(g, w, lambda v: combine((1, v), (-pairing(gram, v, f), e)))


def without_central_part(h: MetricLieAlgebra) -> MetricLieAlgebra | None:
    """h with a complement C of rad z(h) in z(h) split off, as C^perp, or
    None when that leaves nothing.  C is nondegenerate and central, so
    C^perp is an ideal and h = C + C^perp."""
    z = center(h.algebra)
    radical = Subspace.kernel(z.dim, [dict(row) for row in z.form(h.gram).nonzero_rows])
    pivots = {min(row) for row in radical.rows}
    part = orthogonal_complement(h.gram, [z.rows[u] for u in range(z.dim) if u not in pivots])
    return restricted(h, part, lambda v: v) if part.dim else None


def central_vectors(g: MetricLieAlgebra, rg: random.Random) -> list[dict]:
    """The echelon rows of the center and 3 nonzero integer combinations of them."""
    z = center(g.algebra)
    out = list(z.rows)
    while len(out) < z.dim + 3:
        coeffs = [rg.randint(-2, 2) for _ in z.rows]
        if any(coeffs):
            out.append(combine(*zip(coeffs, z.rows)))
    return out


def test_every_reduction_of_a_catalog_double_is_zero_or_in_the_catalog():
    report = run_catalog()
    known = {row.fingerprint for row in report.rows}
    rg = random.Random(5)
    reductions = abelian = matched = 0
    misses = []
    for row, g in zip(report.rows, report.doubles):
        for e in central_vectors(g, rg):
            assert pairing(g.gram, e, e) == 0, "%s: central %s is not isotropic" % (row.entry_id, e)
            h = reduce_by(g, e)
            assert verify_metric(h).ok, "%s: the reduction by %s is not metric" % (row.entry_id, e)
            reductions += 1
            rest = without_central_part(h)
            if rest is None:
                abelian += 1
            elif fingerprint(rest) in known:
                matched += 1
            else:
                misses.append((row.entry_id, e, fingerprint(rest)))
    assert not misses, "reductions outside the catalog: %s" % misses
    assert (reductions, abelian, matched) == (531, 46, 485)
