"""Every top-level function or class of ``support.py`` has a user: a test
module or another definition in ``support.py``."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
    return names


def unused_helpers(support: ast.Module, tests: list[ast.Module]) -> list[str]:
    """Top-level functions and classes of ``support`` referenced neither by
    ``tests`` nor by the rest of ``support`` (their own body excluded)."""
    used = set().union(*map(referenced_names, tests))
    unused = []
    for node in support.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            rest = set().union(*(referenced_names(n) for n in support.body if n is not node))
            if node.name not in used | rest:
                unused.append(node.name)
    return unused


def test_the_checker_sees_an_unused_helper():
    support = ast.parse(
        "def a():\n    return b()\n\ndef b():\n    return 1\n\n"
        "def c():\n    return c()\n\nclass D:\n    pass\n\nclass E:\n    pass\n"
    )
    tests = [ast.parse("from support import D\n\ndef test():\n    D()\n")]
    assert unused_helpers(support, tests) == ["a", "c", "E"]


def test_every_support_helper_is_used():
    support = ast.parse((TESTS / "support.py").read_text())
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py")) if p.name != "support.py"]
    assert unused_helpers(support, tests) == []
