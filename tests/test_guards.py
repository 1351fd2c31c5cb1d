"""The input guards of the package: each bad call raises its exception with
its exact message.  These are the guards no other test reaches."""

import pytest

from metriclie.catalog import base_algebra, entry_by_id, instantiate, module_for_tag
from metriclie.cli import parse_samples
from metriclie.cochain_complex import (
    Cochain,
    Isomap,
    cohomology_dim,
    differential,
    is_isometry,
    is_lie_homomorphism,
    pullback,
    wedge_pair,
)
from metriclie.exact_linalg import Matrix, solve_affine, vec_add
from metriclie.lie_core import LieAlgebra, abelian
from metriclie.quadratic_cohomology import QuadraticCochain, act, cq_identity, zero_cocycle
from metriclie.schema import SchemaError, dumps_document, loads_document, wrap

LINE = module_for_tag("r01")  # the 1-dim module with form (1)

GUARDS = [
    ("vec_add lengths", lambda: vec_add((1,), (1, 2)),
     ValueError, "vector length mismatch: 1 vs 2"),
    ("Matrix cols", lambda: Matrix(-1, ()),
     ValueError, "negative matrix dimensions"),
    ("Matrix.zero rows", lambda: Matrix.zero(-1, 2),
     ValueError, "negative matrix dimensions"),
    ("matmul shapes", lambda: Matrix.identity(2) @ Matrix.identity(3),
     ValueError, "matrix product shape mismatch"),
    ("solve_affine rhs", lambda: solve_affine(Matrix.identity(2), (1,)),
     ValueError, "right hand side length mismatch"),
    ("LieAlgebra dim", lambda: LieAlgebra(-1, {}),
     ValueError, "negative dimension"),
    ("LieAlgebra labels", lambda: LieAlgebra(2, {}, labels=("X",)),
     ValueError, "expected 2 labels, got 1"),
    ("Cochain degree", lambda: Cochain(2, -1, 1),
     ValueError, "negative degree"),
    ("Cochain scalar", lambda: Cochain(2, 1, 2, scalar=True),
     ValueError, "scalar cochains carry single component values"),
    ("Cochain sum shapes", lambda: Cochain.zero(2, 1, 1) + Cochain.zero(2, 2, 1),
     ValueError, "cochain shape mismatch"),
    ("Cochain key length", lambda: Cochain(3, 2, 1, values={(0,): (1,)}),
     ValueError, "key (0,) has wrong length for degree 2"),
    ("differential algebra", lambda: differential(abelian(2), Cochain.zero(3, 1, 1)),
     ValueError, "cochain does not live on this algebra"),
    ("wedge_pair algebras", lambda: wedge_pair(LINE, Cochain.zero(2, 1, 1), Cochain.zero(3, 1, 1)),
     ValueError, "cochains live on different algebras"),
    ("wedge_pair module", lambda: wedge_pair(LINE, Cochain.zero(2, 1, 2), Cochain.zero(2, 1, 1)),
     ValueError, "cochain values do not match the module"),
    ("cohomology_dim degree", lambda: cohomology_dim(abelian(2), None, -1),
     ValueError, "negative degree"),
    ("is_lie_homomorphism shape",
     lambda: is_lie_homomorphism(Matrix.identity(2), abelian(2), abelian(3)),
     ValueError, "homomorphism matrix has wrong shape"),
    ("is_isometry shape",
     lambda: is_isometry(Matrix.identity(2), Matrix.identity(2), Matrix.identity(3)),
     ValueError, "isometry matrix has wrong shape"),
    ("pullback value map", lambda: pullback(Isomap(Matrix.identity(2)), Cochain.zero(2, 1, 1)),
     ValueError, "module valued pullback needs a value map"),
    ("pullback value dim",
     lambda: pullback(Isomap(Matrix.identity(2), Matrix.identity(2)), Cochain.zero(2, 1, 1)),
     ValueError, "value map does not match the cochain values"),
    ("QuadraticCochain tau",
     lambda: QuadraticCochain(abelian(2), LINE, Cochain.zero(2, 2, 1),
                              Cochain.zero(2, 2, 1, scalar=True)),
     ValueError, "tau must be a module valued 1-form on the algebra"),
    ("QuadraticCochain sigma",
     lambda: QuadraticCochain(abelian(2), LINE, Cochain.zero(2, 1, 1),
                              Cochain.zero(2, 3, 1, scalar=True)),
     ValueError, "sigma must be a scalar 2-form on the algebra"),
    ("act data", lambda: act(zero_cocycle(abelian(2), LINE), cq_identity(abelian(3), LINE)),
     ValueError, "cocycle and cochain live over different data"),
    ("base_algebra name", lambda: base_algebra("nope"),
     KeyError, "unknown base algebra 'nope'"),
    ("instantiate domain", lambda: instantiate(entry_by_id("T1.3b.r02.r"), {"r": -1}),
     ValueError, "parameter r of T1.3b.r02.r must be positive"),
    ("--samples name", lambda: parse_samples("x=1"),
     SchemaError, "unknown parameter 'x' in --samples"),
    ("--samples domain", lambda: parse_samples("r=1,0"),
     SchemaError, "--samples r: values must be positive"),
    ("lie_algebra dim",
     lambda: loads_document(dumps_document(wrap("lie_algebra", {"dim": "3", "brackets": []}))),
     SchemaError, "lie_algebra.dim: expected a nonnegative integer"),
]


@pytest.mark.parametrize(
    "call, kind, message", [case[1:] for case in GUARDS], ids=[case[0] for case in GUARDS]
)
def test_a_bad_input_raises_its_guard(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert info.value.args == (message,)
