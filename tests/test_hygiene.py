"""Source hygiene: no module in the package or the tests imports a name it
never uses, the package imports only at module level, defines no private
name it never uses, and has no public function, class or method that is
there for the tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sgraph").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# the code whose use makes a public name of the package live
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def exported(tree) -> set[str]:
    """The names a module lists in `__all__`."""
    return {
        ast.literal_eval(e)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for e in node.value.elts
    }


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced; names in `__all__`
    and `from __future__` imports count as used."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used - exported(tree))


def test_no_unused_imports():
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in FILES}
    assert {name: names for name, names in found.items() if names} == {}


def test_scan_catches_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport math\nfrom json import dumps, loads as parse\n"
        "from numpy import pi\n"
        "__all__ = ['pi']\n"
        "print(math.tau, parse)\n"
    )
    assert unused_imports(source) == ["dumps", "os"]


def function_local_imports(source: str) -> list[int]:
    """Line numbers of the import statements inside function bodies."""
    functions = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return sorted(
        {
            node.lineno
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_package_imports_at_module_level():
    found = {p.name: function_local_imports(p.read_text()) for p in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scan_catches_a_function_local_import():
    source = (
        "import math\n"
        "def f():\n    import os\n    return os\n"
        "class A:\n    from json import dumps\n"
        "    def g(self):\n        def h():\n            from json import loads\n"
        "        return h\n"
        "async def k():\n    import re\n"
    )
    assert function_local_imports(source) == [3, 9, 12]


def references(trees) -> set[str]:
    """Every name the trees read, use as an attribute or import by name. A
    name a module imports only to list in `__all__` is a re-export, not a
    use."""
    used = set()
    for tree in trees:
        reexported = exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names if (a.asname or a.name) not in reexported}
    return used


def module_level_names(tree, constants: bool = True) -> list[str]:
    """Names a module defines at its top level: functions, classes and,
    with `constants`, assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def unused_privates(sources: dict[str, str]) -> list[str]:
    """`module:name` of each module-level `_private` function, class or
    constant that no source references besides its definition. A reference
    is a name read, an attribute or an imported name; dunders are skipped."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = references(trees.values())
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in module_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    )


def public_without_users(package: dict[str, str], users: dict[str, str]) -> list[str]:
    """`module:name` of each public module-level function or class of
    `package`, and `module:Class.method` of each public method of its
    classes, that no source in `users` (the package itself among them)
    references: code kept for the tests alone, or for nobody.

    Names are matched by name alone, so any attribute of a method's name
    keeps it: a `Pose3.retract` beside `BatchedFactors.retract` would pass."""
    used = references(ast.parse(source) for source in users.values())
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        found += [(f"{module}:{name}", name) for name in module_level_names(tree, constants=False)]
        found += [
            (f"{module}:{cls.name}.{node.name}", node.name)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    return sorted(label for label, name in found if not name.startswith("_") and name not in used)


def test_no_unused_private_names():
    assert unused_privates({p.stem: p.read_text() for p in PACKAGE}) == []


def test_scan_catches_an_unused_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n_SCALE: float = 2.0\n_SPARE = 1\n__version__ = '1'\n"
            "class _Box:\n    pass\n"
            "def _kept(x):\n    return x * _LIMIT\n"
            "def _dead(x):\n    _local = x\n    return _local\n"
            "def _recursive(x):\n    return _recursive(x - 1) if x else _Box()\n"
            "def public():\n    return _kept(1)\n"
        ),
        "b": "from a import _SCALE\nimport a\nprint(_SCALE, a._recursive)\n",
    }
    assert unused_privates(sources) == ["a:_SPARE", "a:_dead"]


def test_no_public_code_for_the_tests_alone():
    package = {p.stem: p.read_text() for p in PACKAGE}
    users = {f"{p.parent.name}/{p.name}": p.read_text() for p in USERS}
    assert public_without_users(package, users) == []


def test_scan_catches_public_code_for_the_tests_alone():
    package = {
        "a": (
            "LIMIT = 3\n"
            "def used_here(x):\n    return x * LIMIT\n"
            "def caller():\n    return used_here(1)\n"
            "def tested_only(x):\n    return x\n"
            "class Box:\n"
            "    def used(self):\n        return 1\n"
            "    def tested_only_method(self):\n        return 2\n"
            "    def _private(self):\n        pass\n"
            "class Unused:\n    pass\n"
            "def _private():\n    pass\n"
            "def recursive(x):\n    return recursive(x - 1) if x else 0\n"
            "def reexported(x):\n    return x\n"
        ),
        "b": "from a import Box\nimport a\nprint(a.caller, Box().used())\n",
        # a package `__init__` re-exports names: that alone is no use
        "__init__": "from a import Box, reexported\n__all__ = ['Box', 'reexported']\n",
    }
    bench = "import a\nprint(a.recursive)\n"
    users = dict(package, bench=bench)
    assert public_without_users(package, users) == [
        "a:Box.tested_only_method",
        "a:Unused",
        "a:reexported",
        "a:tested_only",
    ]
