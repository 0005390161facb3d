"""Source checks: every import in the library sits at module level and is used."""

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


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import (other than from __future__) that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_every_import_is_used():
    # __init__.py imports to re-export
    offenders = {
        p.name: found
        for p in SOURCES
        if p.name != "__init__.py" and (found := _unused_imports(ast.parse(p.read_text())))
    }
    assert offenders == {}


def test_the_check_sees_unused_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math as m\n"
        "from dataclasses import dataclass, field as f\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = m.pi\n"
    )
    assert _unused_imports(tree) == ["line 2: os", "line 4: f"]
