"""The package's runtime imports nothing outside the standard library.

numpy, scipy or sympy may be installed where the tests run, so a stray
import of one would not fail any other test."""

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "milnorfiber"


def absolute_import_roots(source):
    """Top-level names of the absolute imports in a module's source."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_import_roots_are_collected():
    source = "import numpy.linalg as la\nfrom scipy import sparse\nfrom . import geometry\n"
    assert absolute_import_roots(source) == {"numpy", "scipy"}


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    foreign = {}
    for path in modules:
        roots = absolute_import_roots(path.read_text(encoding="utf-8")) - sys.stdlib_module_names
        if roots:
            foreign[path.name] = sorted(roots)
    assert foreign == {}
