"""The immutable records of the package: eight ``__slots__`` classes and the
two field-only catalog records, which are ``typing.NamedTuple``s.

Each compares, hashes and prints by its field values, refuses assignment
and deletion, and survives ``copy.copy``, ``copy.deepcopy`` and ``pickle``.
The eight ``__slots__`` classes take construction, equality, hashing and
immutability from ``exact_linalg._Record``: an AST check over the package
keeps them from writing those out again."""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

from metriclie.catalog import (
    CatalogEntry,
    CatalogReport,
    CatalogRow,
    ENTRIES,
    g64,
    g64_admissible_cocycle,
    module_for_tag,
    run_catalog,
)
from metriclie.cochain_complex import Cochain, OrthogonalModule
from metriclie.double_construction import MetricLieAlgebra, build_double
from metriclie.exact_linalg import Matrix, Subspace, _Record, signature_of
from metriclie.lie_core import abelian
from metriclie.quadratic_cohomology import (
    QuadraticCochain,
    QuadraticCocycle,
    cq_identity,
    zero_cocycle,
)

SLOT_CLASSES = (
    Matrix, Subspace, Cochain, OrthogonalModule, QuadraticCochain, QuadraticCocycle,
    MetricLieAlgebra, CatalogReport,
)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metriclie"


def instances():
    """Two equal, separately built instances of each of the ten classes."""

    def report():
        return run_catalog(entries=ENTRIES[:2])

    def double():
        return build_double(zero_cocycle(abelian(3), module_for_tag("r01")))

    builders = {
        Matrix: lambda: Matrix.from_rows([[1, 0], [Fraction(1, 2), 3]]),
        Subspace: lambda: Subspace.of_rows(3, [{0: 2, 2: 4}, {1: 1}]),
        Cochain: lambda: Cochain(4, 2, 2, False, {(0, 1): (1, Fraction(-1, 3))}),
        OrthogonalModule: lambda: OrthogonalModule(Matrix.from_rows([[0, 1], [1, 0]])),
        QuadraticCochain: lambda: cq_identity(g64(), module_for_tag("r22w")),
        QuadraticCocycle: g64_admissible_cocycle,
        MetricLieAlgebra: double,
        CatalogReport: report,
        CatalogEntry: lambda: CatalogEntry(*ENTRIES[1]),
        CatalogRow: lambda: report().rows[1],
    }
    return {cls: (build(), build()) for cls, build in builders.items()}


@pytest.fixture(scope="module")
def pairs():
    return instances()


def test_the_records_are_plain_classes_without_generated_methods():
    for cls in SLOT_CLASSES:
        assert type(cls) is type and issubclass(cls, _Record)
        assert not hasattr(cls, "__dataclass_fields__")
        assert set(cls._fields) <= set(cls.__slots__)
    for cls in (CatalogEntry, CatalogRow):
        assert issubclass(cls, tuple) and cls.__slots__ == ()
    # the benchmark's tracer wraps the product on the class
    assert "__matmul__" in Matrix.__dict__


def test_equality_and_hash_are_by_class_and_field_values(pairs):
    assert len(pairs) == 10
    for cls, (value, twin) in pairs.items():
        assert type(value) is cls and value is not twin and not hasattr(value, "__dict__")
        assert value == twin and not value != twin and hash(value) == hash(twin)
        for other_cls, (other, _) in pairs.items():
            assert (value == other) is (cls is other_cls)
    rows = ({0: 1}, {1: 1})
    assert Matrix(2, rows) != Subspace(2, rows) and Subspace(2, rows) != Matrix(2, rows)
    module = OrthogonalModule(Matrix.identity(2))
    assert module == OrthogonalModule(Matrix.identity(2))
    assert module != OrthogonalModule(Matrix.diagonal([1, -1]))
    assert Matrix(2, rows) != Matrix(3, ({0: 1}, {1: 1}))
    assert len({value for value, _ in pairs.values()} | {twin for _, twin in pairs.values()}) == 10


def test_fields_can_be_neither_assigned_nor_deleted(pairs):
    for cls, (value, twin) in pairs.items():
        for name in value._fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == twin


def test_repr_keeps_the_dataclass_form(pairs):
    assert repr(Matrix.identity(2)) == "Matrix(cols=2, nonzero_rows=({0: 1}, {1: 1}))"
    assert repr(Cochain(3, 1, 1, True, {(2,): (Fraction(1, 2),)})) == (
        "Cochain(n=3, degree=1, value_dim=1, scalar=True, "
        "rows=mappingproxy({(2,): {0: Fraction(1, 2)}}))"
    )
    for cls, (value, twin) in pairs.items():
        shown = [f for f in value._fields if not (cls is CatalogReport and f == "doubles")]
        fields = ", ".join("%s=%r" % (name, getattr(value, name)) for name in shown)
        assert repr(value) == "%s(%s)" % (cls.__name__, fields) == repr(twin)


def test_catalog_report_equality_ignores_the_doubles(pairs):
    report, twin = pairs[CatalogReport]
    assert report.doubles and report.doubles[0] is not twin.doubles[0]
    bare = CatalogReport(report.rows, report.collisions, report.family_splits, ())
    assert bare == report and hash(bare) == hash(report) and repr(bare) == repr(report)
    assert CatalogReport(report.rows[:1], report.collisions, report.family_splits, ()) != report


def test_a_double_s_kept_signature_is_not_a_field(pairs):
    """``verify_metric`` keeps the form's signature in the slot ``_signature``,
    which is not a field: equality, hash, repr, copies and pickles ignore it,
    and a copy or an unpickled double keeps none."""
    g, twin = pairs[MetricLieAlgebra]
    assert "_signature" in MetricLieAlgebra.__slots__ and "_signature" not in g._fields
    assert g._signature == signature_of(g.gram) and g._signature.null == 0
    bare = MetricLieAlgebra(g.algebra, g.gram, g.provenance)
    assert getattr(bare, "_signature", None) is None
    assert bare == g == twin and hash(bare) == hash(g) and repr(bare) == repr(g)
    assert "_signature" not in repr(g)
    for made in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert made == g and getattr(made, "_signature", None) is None
    with pytest.raises(AttributeError):
        g._signature = None
    assert g._signature == signature_of(g.gram)


def test_defaults_and_coords_at_the_pivots():
    first, second = Cochain(3, 1, 1), Cochain(3, 1, 1)
    assert first.rows == {} and first.rows is not second.rows and not first.scalar
    assert Cochain(3, 1, 1, values=None) == first
    g = MetricLieAlgebra(abelian(2), Matrix.identity(2))
    assert g.provenance is None and g == MetricLieAlgebra(abelian(2), Matrix.identity(2), None)
    space = Subspace.of_rows(3, [{0: 2, 2: 4}, {1: 1}])
    twin = Subspace.of_rows(3, [{1: 1}, {0: 1, 2: 2}])
    assert space.coords({0: 3, 1: 1, 2: 6}) == {0: 3, 1: 1}
    assert space == twin and hash(space) == hash(twin) and repr(space) == repr(twin)
    assert space.coords({2: 1}) is None


def test_the_generic_constructor_takes_every_field_once():
    with pytest.raises(TypeError):
        Subspace(3)
    with pytest.raises(TypeError):
        Subspace(3, (), ())
    with pytest.raises(TypeError):
        Subspace(ambient_dim=3, rows=())
    space = Subspace(2, ({0: 1},))
    assert (space.ambient_dim, space.rows) == (2, ({0: 1},))


def test_copies_and_pickles_round_trip(pairs):
    for cls, (value, twin) in pairs.items():
        copied = copy.copy(value)
        assert type(copied) is cls and copied == twin
        for made in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(made) is cls and made == twin and made is not value
    cochain = pairs[Cochain][0]
    for made in (copy.copy(cochain), copy.deepcopy(cochain), pickle.loads(pickle.dumps(cochain))):
        assert type(made.rows) is MappingProxyType and made.rows is not cochain.rows


def test_copied_and_pickled_reports_keep_their_doubles(pairs):
    report, twin = pairs[CatalogReport]
    for made in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert len(made.doubles) == len(report.doubles) == len(report.rows)
        assert made.doubles == twin.doubles and made.doubles[0] is not report.doubles[0]
        assert made.doubles[0].provenance == twin.doubles[0].provenance


def is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def record_definitions(tree: ast.Module) -> tuple[dict[str, set[str]], list[tuple]]:
    """The names each direct ``_Record`` subclass binds in its body, and each
    ``object.__setattr__`` call as ``(class, method, attribute)``: the
    attribute is None unless it is a string literal, and a call outside a
    method is ``(None, None, None)``."""
    defined: dict[str, set[str]] = {}
    writes: list[tuple] = []
    for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        if any(isinstance(base, ast.Name) and base.id == "_Record" for base in cls.bases):
            names = defined[cls.name] = set()
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.Assign):
                    names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for method in [node for node in cls.body if isinstance(node, ast.FunctionDef)]:
            for call in filter(is_object_setattr, ast.walk(method)):
                name = call.args[1] if len(call.args) == 3 else None
                name = name.value if isinstance(name, ast.Constant) else None
                writes.append((cls.name, method.name, name))
    outside = sum(map(is_object_setattr, ast.walk(tree))) - len(writes)
    return defined, writes + [(None, None, None)] * outside


def test_the_checker_sees_hand_written_record_methods():
    tree = ast.parse(
        "class A(_Record):\n    __slots__ = _fields = ('x',)\n    __hash__ = None\n"
        "    def __eq__(self, other):\n        object.__setattr__(self, 'x', 1)\n"
        "class B:\n    def f(self, n):\n        object.__setattr__(self, n, 2)\n"
        "object.__setattr__(B(), 'y', 3)\n"
    )
    defined, writes = record_definitions(tree)
    assert defined == {"A": {"__slots__", "_fields", "__hash__", "__eq__"}}
    assert writes == [("A", "__eq__", "x"), ("B", "f", None), (None, None, None)]


def test_the_record_base_is_the_one_implementation():
    defined: dict[str, set[str]] = {}
    writes: list[tuple] = []
    for path in sorted(PACKAGE.glob("*.py")):
        found, sites = record_definitions(ast.parse(path.read_text()))
        defined.update(found)
        writes += sites
    assert set(defined) == {cls.__name__ for cls in SLOT_CLASSES}
    for name, names in defined.items():
        assert not names & {"__eq__", "__setattr__", "__delattr__"}, name
    # the one exception: a read-only mapping cannot be pickled, so the
    # cochain hands its constructor a plain dict
    assert {name for name, names in defined.items() if "__reduce__" in names} == {"Cochain"}
    # only these hold dicts, which the generic field hash cannot hash
    hashed = {name for name, names in defined.items() if "__hash__" in names}
    assert hashed == {"Matrix", "Subspace", "Cochain"}
    # the base writes fields through their slot descriptors, and nothing
    # writes into a record after its construction
    assert writes == []
