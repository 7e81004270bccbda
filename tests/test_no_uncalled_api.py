"""Every function, class and method of the package has a reader in the
package's own code.

A name counts as read when it appears as an ``ast.Name`` load, an
``ast.Attribute`` or a keyword argument in any module of the package.
Docstrings are not code, so a doctest is not a caller, and neither is a
test.  Dunders are called by the interpreter and are not checked.

A read is matched by bare name, so it counts for every class that defines
a method of that name.  A method name defined in two or more package
classes must therefore be listed in ``SHARED``, with the reason the
classes share it.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "milnorfiber"

# Read only from outside the package's code, each for the reason given.
ALLOWED = {
    "bounds.BoundReport._make": "namedtuple's _replace calls it",
    "bounds.Prediction._make": "namedtuple's _replace calls it",
    "bounds.SyntheticIncidence._make": "namedtuple's _replace calls it",
    "cli._Parser.error": "argparse calls it on a usage error",
    "geometry.AffineArrangement._make": "namedtuple's _replace calls it",
    "geometry.Arrangement._make": "namedtuple's _replace calls it",
    "geometry.IncidencePoint._make": "namedtuple's _replace calls it",
    "geometry._Line._make": "namedtuple's _replace calls it, for ProjLine and AffineLine",
    "presentation.Presentation._make": "namedtuple's _replace calls it",
    "presentation.Relator._make": "namedtuple's _replace calls it",
    "snf.AbelianGroup._make": "namedtuple's _replace calls it",
    "snf.SmithForm._make": "namedtuple's _replace calls it",
    "snf.RowOrbits.shape": "perfbench's d2 counters, which CI requires non-null, read it",
}

# Method names defined in two or more package classes, each for the reason given.
SHARED = {
    "n_lines": "geometry.Arrangement and AffineArrangement: callers take either picture",
    "incidence": "geometry.Arrangement and AffineArrangement: callers take either picture",
    "_make": "every record that checks its fields overrides namedtuple's constructor hook",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(module, tree):
    """``{qualified name: name}`` of the module-level and class-level
    functions, classes and methods, dunders left out."""
    out = {}
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        out[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, DEFINITIONS):
                    out[f"{module}.{node.name}.{child.name}"] = child.name
    return {q: name for q, name in out.items() if not (name.startswith("__") and name.endswith("__"))}


def references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def defined_names(trees):
    """``{qualified name: name}`` over ``{module: tree}``, ``__init__``
    excluded."""
    defined = {}
    for module, tree in trees.items():
        if module != "__init__":
            defined.update(definitions(module, tree))
    return defined


def uncalled(sources):
    """Qualified names defined in ``{module: source}`` (``__init__``
    excluded) that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(references, trees.values()))
    return {q for q, name in defined_names(trees).items() if name not in read}


def shared_methods(sources):
    """``{name: sorted qualified names}`` of the method names that two or
    more classes in ``{module: source}`` (``__init__`` excluded) define."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    owners = {}
    for q, name in defined_names(trees).items():
        if q.count(".") == 2:  # module.Class.method
            owners.setdefault(name, []).append(q)
    return {name: sorted(qs) for name, qs in owners.items() if len(qs) > 1}


def test_uncalled_names_are_collected():
    sources = {
        "__init__": "from .a import dead\n",
        "a": (
            "class Box:\n"
            "    def __init__(self): self.size = 1\n"
            "    def unused(self):\n"
            "        '''>>> Box().unused()'''\n"
            "    def read(self): return self.size\n"
            "def dead(): pass\n"
            "def used(x, *, read=None): return Box()\n"
        ),
        "b": "from .a import used\nused(1, read=2)\n",
    }
    assert uncalled(sources) == {"a.Box.unused", "a.dead"}


def test_shared_method_names_are_collected():
    # one attribute read covers Box.size, Bag.size and the function size;
    # only the two methods are a shared method name
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def size(self): return 1\n"
            "    def lid(self): return 0\n"
            "def size(): return 2\n"
        ),
        "b": (
            "from .a import Box\n"
            "class Bag:\n"
            "    def __init__(self): pass\n"
            "    def size(self): return 3\n"
            "print(Box().size(), Bag())\n"
        ),
    }
    assert uncalled(sources) == {"a.Box.lid"}
    assert shared_methods(sources) == {"size": ["a.Box.size", "b.Bag.size"]}


def test_every_name_has_a_reader_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert len(sources) > 5
    found = uncalled(sources)
    unread = sorted(found - ALLOWED.keys())
    assert not unread, f"no reader in the package, delete or call: {unread}"
    stale = sorted(ALLOWED.keys() - found)
    assert not stale, f"allowlisted but gone or read in the package: {stale}"


def test_shared_method_names_are_listed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    shared = shared_methods(sources)
    unlisted = {name: qs for name, qs in shared.items() if name not in SHARED}
    assert not unlisted, f"one name, several classes: a read of one hides the others: {unlisted}"
    stale = sorted(SHARED.keys() - shared.keys())
    assert not stale, f"listed as shared but defined in at most one class: {stale}"
