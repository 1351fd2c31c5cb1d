"""Derivations of catalog doubles as invariants beyond the fingerprint.

dim Der and dim skew Der of a double come from one keyed ``solve`` per
system over the unknowns D[(i, j)] (``support.derivation_dims``), and are
cross-checked by a dense rank.  They are isomorphism invariants of the
metric Lie algebra, so two doubles with different dims are not isometric
(ROADMAP items 4 and 24; the package has no ``derivations`` of its own yet).
"""

from fractions import Fraction

from metriclie.catalog import entry_by_id, instantiate
from metriclie.double_construction import build_double, fingerprint, verify_metric
from metriclie.quadratic_cohomology import check_admissible

from support import dense_derivation_dims, derivation_dims

S_FAMILIES = ("T1.3b.r02.s", "T1.3b.r20.s", "T1.3c.r11.a12.s", "T1.3c.r11.a21.s")


def test_derivation_dims_of_four_doubles_match_a_dense_rank():
    """T1.2.a and T1.2.b share a fingerprint, but their derivation algebras
    differ in dimension, so their doubles are not isomorphic."""
    pinned = {"T1.2.a": (24, 17), "T1.2.b": (22, 15), "T1.7a": (18, 11), "T1.8.r01": (10, 6)}
    doubles = {eid: build_double(instantiate(entry_by_id(eid))) for eid in pinned}
    for eid, dims in pinned.items():
        assert derivation_dims(doubles[eid]) == dense_derivation_dims(doubles[eid]) == dims, eid
    assert fingerprint(doubles["T1.2.a"]) == fingerprint(doubles["T1.2.b"])


def test_the_s_families_at_s_0_match_their_s_1_rows():
    """Each one-parameter ``s`` family at s = 0, a value the default samples
    never visit: a valid cocycle with no stored gamma, admissible, with a
    verified double whose fingerprint and (dim Der, dim skew Der) = (16, 11)
    equal those of the s = 1 row.  No invariant here separates s = 0 from
    its family (item 26; whether it is a class of its own is item 5)."""
    for eid in S_FAMILIES:
        entry = entry_by_id(eid)
        zero, one = (instantiate(entry, {"s": Fraction(s)}) for s in (0, 1))
        assert not zero.gamma.rows and one.gamma.rows, eid
        assert check_admissible(zero).overall, eid
        doubles = [build_double(z) for z in (zero, one)]
        assert verify_metric(doubles[0]).ok, eid
        assert fingerprint(doubles[0]) == fingerprint(doubles[1]), eid
        assert derivation_dims(doubles[0]) == derivation_dims(doubles[1]) == (16, 11), eid
