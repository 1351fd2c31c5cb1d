"""Every top-level function or class of ``src/metriclie`` has a caller outside
the tests: another definition in ``src/metriclie`` (the package
``__init__`` does not count, since it only re-exports), ``scripts/`` or
``perfbench/``.  A few names wait for their callers; each one is listed
with the ROADMAP item that reserves it.  Every public method or property of
a class in ``src/metriclie`` is used the same way: some attribute reference
of that name in ``src/metriclie`` outside its own definition, ``scripts/``
or ``perfbench/``.  Attribute names are not resolved to a class, so a name
that two classes share counts as used for both.  The names whose only caller
outside the tests is in ``perfbench/`` are pinned too: they are the
candidates of ROADMAP item 7(a)/(b), and the list fails when it changes."""

import ast
from collections import Counter
from pathlib import Path

from test_support_helpers import referenced_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "metriclie"

RESERVED = {
    # item 4: the orbit solver for cocycle classes
    "pullback": 4,
    "is_lie_homomorphism": 4,
    "is_isometry": 4,
    "cq_identity": 4,
    "cq_compose": 4,
    "cq_inverse": 4,
    "verify_equivalence_witness": 4,
    # item 1: the test that recovers the summands of orthogonal sums
    "direct_sum": 1,
    # item 3: the report of which bases the scheme uses, read by paper item,
    # and the center of its table of bases (a double's center is read off its form)
    "entries_for_item": 3,
    "center": 3,
}

# called outside the tests by perfbench/ alone (ROADMAP 7(b): keep them, or
# move them into the harness in a benchmark change)
PERFBENCH_ONLY = {
    "differential_matrix",
    "kernel_basis",
    "solve_affine",
    "unit_vector",
    "vec_add",
    "vec_scale",
    "zero_cocycle",
    "zero_vector",
    "AdmissibilityReport.condition",
}


def uncalled(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """Top-level functions and classes of ``modules`` referenced neither by
    ``callers`` nor by another top-level definition of ``modules``."""
    outside = set().union(*map(referenced_names, callers))
    definitions = [(node, referenced_names(node)) for tree in modules.values() for node in tree.body]
    unused = []
    for node, _ in definitions:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            rest = set().union(*(names for other, names in definitions if other is not node))
            if node.name not in outside | rest:
                unused.append(node.name)
    return unused


def attribute_names(node: ast.AST) -> Counter:
    """How often each attribute name is referenced in ``node``."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unused_methods(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """The public methods and properties of the classes of ``modules``, as
    ``Class.name``, whose name no attribute reference in ``callers`` or in
    ``modules`` outside their own definition uses."""
    outside = set().union(*map(attribute_names, callers))
    inside = sum(map(attribute_names, modules.values()), Counter())
    unused = []
    for tree in modules.values():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    rest = inside[node.name] - attribute_names(node)[node.name]
                    if node.name not in outside and not rest:
                        unused.append("%s.%s" % (cls.name, node.name))
    return unused


def test_the_checker_sees_a_definition_without_a_caller():
    modules = {
        "a": ast.parse("def f():\n    return g()\n\ndef h():\n    return h()\n"),
        "b": ast.parse("def g():\n    return 1\n\nclass K:\n    pass\n\nclass L:\n    pass\n"),
    }
    callers = [ast.parse("from metriclie.b import K\n\nK()\n")]
    assert uncalled(modules, callers) == ["f", "h", "L"]


def test_every_src_definition_has_a_caller_or_a_roadmap_item():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    callers = [
        ast.parse(path.read_text())
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert sorted(uncalled(modules, callers)) == sorted(RESERVED)


def perfbench_only(modules: dict[str, ast.Module], scripts: list[ast.Module],
                   perfbench: list[ast.Module]) -> set[str]:
    """Definitions and methods of ``modules`` that only ``perfbench`` uses:
    unused without it, used with it."""
    without = set(uncalled(modules, scripts)) | set(unused_methods(modules, scripts))
    used = set(uncalled(modules, scripts + perfbench)) | set(unused_methods(modules, scripts + perfbench))
    return without - used


def test_the_checker_sees_a_name_only_perfbench_uses():
    modules = {
        "m": ast.parse(
            "def f():\n    return 1\n\ndef g():\n    return 2\n\ndef h():\n    return f()\n\n"
            "class K:\n    def run(self):\n        return 0\n"
        ),
    }
    scripts = [ast.parse("from metriclie.m import g\n\ng()\n")]
    perfbench = [ast.parse("from metriclie.m import K, g, h\n\nh(), g(), K().run()\n")]
    assert perfbench_only(modules, scripts, perfbench) == {"h", "K", "K.run"}


def test_the_names_only_perfbench_calls_are_pinned():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    scripts, perfbench = (
        [ast.parse(path.read_text()) for path in sorted((ROOT / folder).glob("*.py"))]
        for folder in ("scripts", "perfbench")
    )
    assert perfbench_only(modules, scripts, perfbench) == PERFBENCH_ONLY


def test_the_checker_sees_a_method_without_a_caller():
    modules = {
        "m": ast.parse(
            "class Matrix:\n"
            "    def at(self, i, j):\n        return self.at(j, i)\n\n"
            "    def row(self, i):\n        return i\n\n"
            "    @property\n    def rows(self):\n        return 0\n\n"
            "    @staticmethod\n    def zero():\n        return Matrix()\n\n"
            "    def _cols(self):\n        return 0\n\n"
            "def f(m):\n    return m.row(0)\n"
        ),
    }
    callers = [ast.parse("from metriclie.m import Matrix\n\nMatrix.zero().rows\n")]
    assert unused_methods(modules, callers) == ["Matrix.at"]


def test_every_src_method_has_a_caller():
    modules = {
        path.name: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    callers = [
        ast.parse(path.read_text())
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unused_methods(modules, callers) == []
