"""Source checks: every import in the library is used and sits at module level, but for one named
exception, and every mutant `tests/mutants.py` applies names one place in the current source.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borderings
import borderings.cli as cli
import borderings.verify as verify
from mutants import MUTANTS, ROOT

SOURCES = sorted(Path(borderings.__file__).parent.glob("*.py"))


def _function_level_imports(tree: ast.AST) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {node.lineno} in {getattr(fn, 'name', '<lambda>')}")
    return found


# The one import a function may hold, by file and function: verify.py is the
# package's largest module and only the verify command uses it, so it is not
# loaded by `import borderings` or by any other command
ALLOWED_IMPORT = {("cli.py", "cmd_verify"): "from . import verify"}


def _disallowed_imports(name: str, source: str) -> list[str]:
    """The function-level imports of the file `name` other than its ALLOWED_IMPORT."""
    lines = source.splitlines()
    return [
        found
        for found in _function_level_imports(ast.parse(source))
        if ALLOWED_IMPORT.get((name, found.partition(" in ")[2])) != lines[int(found.split()[1]) - 1].strip()
    ]


def test_no_import_inside_a_function():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "ordering.py", "factored.py"}
    offenders = {p.name: found for p in SOURCES if (found := _disallowed_imports(p.name, p.read_text()))}
    assert offenders == {}


def test_only_the_named_import_is_allowed():
    source = (
        "def cmd_verify(args):\n"
        "    from . import verify\n"
        "    import os\n"
        "def cmd_tables(args):\n"
        "    from . import verify\n"
    )
    assert _disallowed_imports("cli.py", source) == ["line 3 in cmd_verify", "line 5 in cmd_tables"]
    assert _disallowed_imports("tables.py", source) == [
        "line 2 in cmd_verify",
        "line 3 in cmd_verify",
        "line 5 in cmd_tables",
    ]


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


def _loads_verify(code: str) -> bool:
    """Whether running `code` in a fresh interpreter leaves borderings.verify in sys.modules.

    The test session has imported verify already, so only a new process shows
    what an import path loads.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(borderings.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint('borderings.verify' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import borderings",
        "import borderings.cli",
        "from borderings import cli\nassert cli.main(['tables', '--which', '3']) == 0",
    ],
)
def test_only_the_verify_command_loads_verify(code):
    assert not _loads_verify(code)


def test_the_verify_command_loads_verify():
    assert _loads_verify(
        "from borderings import cli\nassert cli.main(['verify', '--suite', 'tables', '--scale', '0.1']) == 0"
    )


def test_the_parser_repeats_the_verify_constants():
    # the parser lists the suites in the order `--suite all` runs them
    assert cli.VERIFY_SUITES == verify.SUITE_NAMES
    assert cli.VERIFY_SCALE_MAX == verify.SCALE_MAX


def test_every_mutant_names_one_place():
    # mutants.py applies each mutant by its exact text: code that moves must
    # move its mutants with it, or the rerun would stop testing anything
    for path, before, after, ids in MUTANTS:
        assert (ROOT / path).read_text().count(before) == 1, (path, before)
        assert before != after and ids, (path, before)
        assert all((ROOT / i.partition("::")[0]).is_file() for i in ids), ids
