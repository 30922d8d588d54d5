"""The library imports only what it declares: the standard library and numpy.

scipy, for one, may be installed where the tests run without being a
dependency, so an import of it would pass every other test.
"""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gearq"
DECLARED = set(sys.stdlib_module_names) | {"numpy", "gearq"}


def top_level_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_are_declared():
    files = sorted(SRC.glob("*.py"))
    assert files
    undeclared = [
        (f.name, name) for f in files for name in top_level_imports(ast.parse(f.read_text())) if name not in DECLARED
    ]
    assert not undeclared
