"""Each part of the repository imports only what it declares.

The library and the demos: the standard library, numpy and gearq.  The
tests: those, pytest, and their own oracle module `exhaustive`.  scipy and
hypothesis, for two, may be installed where the tests run without being
dependencies (CI installs numpy and pytest only), so an import of either
would pass every other test.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = set(sys.stdlib_module_names) | {"numpy", "gearq"}
DECLARED = {
    "src/gearq": LIBRARY,
    "demos": LIBRARY,
    "tests": LIBRARY | {"pytest", "exhaustive"},
}


def top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def undeclared(part):
    files = sorted((ROOT / part).glob("*.py"))
    assert files
    return [
        (f.name, name) for f in files for name in top_level_imports(ast.parse(f.read_text())) if name not in DECLARED[part]
    ]


def test_runtime_imports_are_declared():
    assert not undeclared("src/gearq")


@pytest.mark.parametrize("part", ["tests", "demos"])
def test_tests_and_demos_import_only_what_is_declared(part):
    assert not undeclared(part)
