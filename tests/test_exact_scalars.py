"""The scalar contract: every exact scalar the package stores is canonical,
an ``int`` when integral and otherwise a ``Fraction`` with denominator > 1,
no scalar is ever a float, and the one division is ``exact_linalg._quo``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from metriclie import exact_linalg
from metriclie.catalog import ENTRIES, _sample_points, default_samples, instantiate, run_catalog
from metriclie.cochain_complex import differential
from metriclie.exact_linalg import Matrix, _reduce, _sparse_rows, signature_of
from metriclie.lie_core import center, lower_central_series
from metriclie.quadratic_cohomology import check_admissible, half_wedge_square

from support import (
    is_canonical,
    random_square_case,
    random_symmetric_case,
    rng,
    scale_doubles,
)

PACKAGE = Path(exact_linalg.__file__).resolve().parent

# pathlib joins in cli.py, the only other uses of ``/`` in the package
DIVISION_EXEMPT = {
    ("cli.py", "Path(override) / name"),
    ("cli.py", "Path(__file__).with_name('data') / name"),
    ("cli.py", "out_dir / name"),
}


def _matrix_scalars(m: Matrix):
    return [x for row in m.nonzero_rows for x in row.values()]


def _row_scalars(rows):
    return [x for row in rows for x in row.values()]


def stored_scalars():
    """Every scalar stored by the Gram forms, bracket rows, series and
    centers of the 95 catalog doubles and the two scale doubles, by the
    forms restricted to their centers and derived algebras, by the cochain
    rows of the catalog cocycles, their differentials and half wedge
    squares, and returned by ``_reduce`` and ``signature_of`` on those forms
    and on seeded random symmetric and square matrices, as ``(where,
    scalar)`` pairs."""
    doubles = [g for g in run_catalog().doubles if g is not None]
    assert len(doubles) == 95
    out = []
    for k, g in enumerate([*doubles, *scale_doubles().values()]):
        l = g.algebra
        series, z = lower_central_series(l), center(l)
        forms = [g.gram, z.form(g.gram), series[1].form(g.gram)]
        out += [("double %d gram" % k, x) for f in forms for x in _matrix_scalars(f)]
        out += [("double %d bracket" % k, x)
                for i in range(l.dim) for p in l.row(i).values() for x in p.values()]
        out += [("double %d span" % k, x) for s in (*series, z) for x in _row_scalars(s.rows)]
        out += [("double %d signature" % k, x) for f in forms for x in signature_of(f)]
    for k, z in enumerate(g.provenance for g in doubles):
        cochains = [z.alpha, z.gamma, differential(z.algebra, z.alpha),
                    differential(z.algebra, z.gamma), half_wedge_square(z.module, z.alpha)]
        out += [("cocycle %d rows" % k, x)
                for c in cochains for row in c.rows.values() for x in row.values()]
    rg = rng(2207)
    for t in range(300):
        _, sym = random_symmetric_case(rg)
        square = random_square_case(rg)
        for m in (sym, square):
            out += [("random %d matrix" % t, x) for x in _matrix_scalars(m)]
            out += [("random %d reduce" % t, x)
                    for _, row in _reduce(_sparse_rows(m)) for x in row.values()]
        out += [("random %d signature" % t, x) for x in signature_of(sym)]
    return out


def test_every_stored_scalar_is_canonical():
    """Fails on a store of Fractions alone: the catalog doubles then hold
    thousands of integral Fractions."""
    scalars = stored_scalars()
    bad = [(where, x) for where, x in scalars if not is_canonical(x)]
    assert not bad, "%d non-canonical scalars, first %s" % (len(bad), bad[:5])
    assert sum(type(x) is Fraction for _, x in scalars) > 100  # the random cases reach Fractions
    assert len(scalars) > 15000


def test_no_scalar_is_a_float(rejection_study):
    """No float among the stored scalars, the catalog cocycles' values, the
    rejection study's values or the admissibility witnesses read off them."""
    scalars = [x for _, x in stored_scalars()]
    cocycles = [instantiate(e, p) for e in ENTRIES for p in _sample_points(e, default_samples())]
    cocycles += rejection_study.cocycles
    for z in cocycles:
        scalars += [x for c in (z.alpha, z.gamma) for v in c.values.values() for x in v]
    for z in rejection_study.cocycles:
        for cond in check_admissible(z).conditions:
            scalars += [x for v in cond.a_witness or () for x in v]
            scalars += [x for t in cond.b_witness or () for row in t for x in row]
    assert not [x for x in scalars if type(x) is float]
    assert all(is_canonical(x) for x in scalars)


def test_quo_is_exact_and_canonical():
    cases = [(6, 3, 2), (7, 2, Fraction(7, 2)), (-7, 2, Fraction(-7, 2)), (3, -6, Fraction(-1, 2)),
             (Fraction(3, 2), Fraction(1, 2), 3), (1, Fraction(1, 3), 3),
             (Fraction(1, 3), 2, Fraction(1, 6)), (10**30 + 1, 10**30 + 1, 1), (0, -5, 0)]
    for x, y, q in cases:
        got = exact_linalg._quo(x, y)
        assert got == q and is_canonical(got), (x, y, got)
    with pytest.raises(ZeroDivisionError):
        exact_linalg._quo(1, 0)


def divisions_outside_quo(source: str, name: str) -> list[str]:
    """Each ``/`` or ``/=`` in ``source`` that lies outside the body of a
    function named ``_quo``, as ``"name:line: code"``; exemptions excluded."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_quo":
            inside |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            code = ast.unparse(node)
            if id(node) not in inside and (name, code) not in DIVISION_EXEMPT:
                found.append("%s:%d: %s" % (name, node.lineno, code))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_division_goes_through_quo(path):
    """A bare ``/`` of two ints gives a float, so the package divides only in ``_quo``."""
    assert divisions_outside_quo(path.read_text(), path.name) == []


def test_the_division_lint_sees_a_bare_division():
    source = (PACKAGE / "exact_linalg.py").read_text()
    assert divisions_outside_quo(source, "exact_linalg.py") == []
    bad = source + "\n\ndef half(a, b):\n    a /= 2\n    return a / b\n"
    assert [f.split(": ", 1)[1] for f in divisions_outside_quo(bad, "exact_linalg.py")] == [
        "a /= 2", "a / b"]
    # every exemption names a division that is still there
    cli = (PACKAGE / "cli.py").read_text()
    assert {("cli.py", ast.unparse(n)) for n in ast.walk(ast.parse(cli))
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div)} == DIVISION_EXEMPT
