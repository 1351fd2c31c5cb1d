"""Every name a module imports is used in that module.

Checked over the package modules, the test files and the scripts.  The
package also imports no ``dataclasses``: its records are plain ``__slots__``
classes, so no start-up pays for ``dataclasses`` and ``inspect``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metriclie"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` excluded."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_the_checker_sees_an_unused_import():
    tree = ast.parse(
        "import json\nfrom typing import Sequence\nfrom .x import A\n"
        "def f(a: 'A') -> None:\n    pass\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"json", "Sequence"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = imported_names(tree)
    unused = sorted(set(imported) - used_names(tree))
    assert not unused, "%s: unused imports %s" % (
        path.name,
        ", ".join("%s (line %d)" % (name, imported[name]) for name in unused),
    )


def dataclass_imports(tree: ast.Module) -> list[int]:
    """Lines of every ``import dataclasses`` or ``from dataclasses import ...``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]


def test_the_checker_sees_a_dataclasses_import():
    tree = ast.parse(
        "import json, dataclasses as dc\nfrom typing import NamedTuple\n"
        "def f():\n    from dataclasses import field\n"
    )
    assert dataclass_imports(tree) == [1, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_no_dataclasses(path):
    assert dataclass_imports(ast.parse(path.read_text())) == []
