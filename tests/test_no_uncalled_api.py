"""Every function, class and method of the package has a reader in the
package's own code, and every parameter with a default has a package
caller that passes it.

A name counts as read when it appears as an ``ast.Name`` load, an
``ast.Attribute`` or a keyword argument in any module of the package.
Docstrings are not code, so a doctest is not a caller, and neither is a
test.  Dunders are called by the interpreter and are not checked.

A read is matched by bare name, so it counts for every class that defines
a method of that name.  A method name defined in two or more package
classes must therefore be listed in ``SHARED``, with the reason the
classes share it.

A defaulted parameter counts as passed when some call of a function or
method of that name, anywhere in the package, passes it by keyword or has
a positional argument in its place (a method's ``self`` or ``cls`` not
counted).  One that nothing passes is an option with a single value in
use: a constant, unless ``ALLOWED_DEFAULTS`` gives the reason it stays.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "milnorfiber"

# Read only from outside the package's code, each for the reason given.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "geometry._Checked._make": "namedtuple's _replace calls it, for every record that checks its fields",
    "snf.RowOrbits.shape": "perfbench's d2 counters, which CI requires non-null, read it",
}

# Defaulted parameters that no package caller passes, each for the reason given.
ALLOWED_DEFAULTS = {
    "cli.main.argv": "the entry point: the console script calls it with none",
    "snf.ranks_mod_primes.ncols": "tests hand it dense rows, as validation does to smith_normal_form",
}

# Method names defined in two or more package classes, each for the reason given.
SHARED = {
    "incidence": "geometry._Lines, the base of both arrangements, computes it; "
    "pipeline.Analysis reads its projective arrangement's",
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


def defaulted_parameters(module, tree):
    """``{qualified parameter: (function name, position, parameter name)}``
    for the defaulted parameters of the module-level and class-level
    functions and methods, dunders left out.  ``position`` counts the
    positional arguments of a call, past a method's ``self`` or ``cls``;
    it is None for a keyword-only parameter."""
    scopes = [(f"{module}.", node, False) for node in tree.body]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{module}.{node.name}.", child, True) for child in node.body]
    out = {}
    for prefix, node, in_class in scopes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        bound = 1 if in_class and not static else 0
        for k in range(len(positional) - len(args.defaults), len(positional)):
            name = positional[k].arg
            out[f"{prefix}{node.name}.{name}"] = (node.name, k - bound, name)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{prefix}{node.name}.{arg.arg}"] = (node.name, None, arg.arg)
    return out


def passed_arguments(tree):
    """``{function name: [(positional count, keyword names)]}`` of every
    call by name or attribute; a ``*`` or ``**`` argument passes all."""
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        count = float("inf") if starred else len(node.args)
        keywords = {k.arg for k in node.keywords}
        calls.setdefault(name, []).append((count, keywords))
    return calls


def unpassed(sources):
    """Qualified defaulted parameters in ``{module: source}`` that no call
    in any module passes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for name, found in passed_arguments(tree).items():
            calls.setdefault(name, []).extend(found)
    out = set()
    for module, tree in trees.items():
        for q, (func, position, name) in defaulted_parameters(module, tree).items():
            if not any(
                name in keywords or None in keywords
                or (position is not None and count > position)
                for count, keywords in calls.get(func, ())
            ):
                out.add(q)
    return out


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


def test_unpassed_defaults_are_collected():
    sources = {
        "a": (
            "class Box:\n"
            "    def __init__(self, size=1): pass\n"
            "    def grow(self, by=1, spare=0): return self\n"
            "    @staticmethod\n"
            "    def make(kind='box'): return Box()\n"
            "def scale(x, factor=2, *, shift=0, mode='fast'): return x\n"
            "def spread(x, y=0): return x\n"
        ),
        "b": (
            "from .a import Box, scale, spread\n"
            "Box().grow(2)\n"
            "Box.make('crate')\n"
            "scale(1, 3, shift=1)\n"
            "spread(*[1, 2])\n"
        ),
    }
    assert unpassed(sources) == {"a.Box.grow.spare", "a.scale.mode"}


def test_every_default_is_passed_by_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE_DIR.glob("*.py"))}
    found = unpassed(sources)
    never = sorted(found - ALLOWED_DEFAULTS.keys())
    assert not never, f"no package caller passes these, make them constants: {never}"
    stale = sorted(ALLOWED_DEFAULTS.keys() - found)
    assert not stale, f"allowlisted but gone or passed in the package: {stale}"
