"""Source checks: every import in the library sits at module level."""

from __future__ import annotations

import ast
from pathlib import Path

import borderings

SOURCES = sorted(Path(borderings.__file__).parent.glob("*.py"))


def _function_level_imports(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {node.lineno} in {getattr(fn, 'name', '<lambda>')}")
    return found


def test_no_import_inside_a_function():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "ordering.py", "factored.py"}
    offenders = {
        p.name: found for p in SOURCES if (found := _function_level_imports(ast.parse(p.read_text())))
    }
    assert offenders == {}


def test_the_check_sees_nested_imports():
    tree = ast.parse("class A:\n    def f(self):\n        if True:\n            from . import x\n")
    assert _function_level_imports(tree) == ["line 4 in f"]
