"""The package's runtime imports nothing outside the standard library,
and the command line's import path stays free of code generation.

numpy, scipy or sympy may be installed where the tests run, so a stray
import of one would not fail any other test.  pytest and hypothesis
import ``dataclasses`` and ``inspect`` themselves, so only a fresh
interpreter shows whether the package loads them."""

import ast
import os
import subprocess
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


def test_no_module_imports_dataclasses():
    importers = sorted(
        path.name
        for path in PACKAGE_DIR.glob("*.py")
        if "dataclasses" in absolute_import_roots(path.read_text(encoding="utf-8"))
    )
    assert importers == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: no site module, so nothing but the package decides what is loaded;
    # the JSON writer needs only the string quoting, not the json decoder
    probe = (
        "import sys, milnorfiber.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json.decoder'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_json_writer_without_the_c_accelerator():
    # where _json is missing, the writer quotes with json.encoder's own
    # pure-Python function and writes the same bytes
    probe = (
        "import sys; sys.modules['_json'] = None; "
        "import json, json.encoder, io, milnorfiber.cli as cli; "
        "assert cli._quote is json.encoder.py_encode_basestring_ascii; "
        "obj = {'a\\u00e9\"': [1, None, True, '\\n'], 'b': {}}; out = io.StringIO(); "
        "cli._emit_json(obj, out); "
        "assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + '\\n'"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
