"""Source hygiene: no module in the package or the tests imports a name it
never uses, the package imports only at module level, defines no private
name it never uses, no defaulted parameter that no call passes, and has no
public function, class or method that is there for the tests alone; the
README names no code that does not exist."""

import ast
import importlib
import io
import math
import re
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "sgraph").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# the code whose use makes a public name of the package live
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
# builtin and library objects whose attributes the package and perfbench read
LIBRARY = (dict, list, tuple, set, str, bytes, int, float, io.TextIOWrapper, np.ndarray, np, math)
# The public methods whose names collide (see `colliding_methods`), each with
# the call site that uses it: a file of USERS and a text of that file. An
# attribute read of the name alone could be of the other binding.
CALL_SITES = {
    "geometry:PlaneClass.index": ("sgraph/graph.py", "2 * self.axis.index"),
    "geometry:Pose3.identity": ("sgraph/graph.py", "0, Pose3.identity(), np.zeros((6, 6))"),
    "geometry:Pose3.log": ("sgraph/graph.py", "rel.log()[3:6]"),
    "graph:SGraph.evaluate_factor": ("perfbench/tracing.py", "evaluate = SGraph.evaluate_factor"),
    "linearize:BatchedFactors.values": ("sgraph/solver.py", "values = factors.values(graph)"),
    "linearize:BatchedFactors.write": ("sgraph/solver.py", "factors.write(graph, values)"),
    "linearize:Linearization.H": ("sgraph/solver.py", "H = lin.H"),
    "linearize:Linearization.g": ("sgraph/solver.py", "g = lin.g"),
    "pipeline:SlamConfig.odom_information": ("sgraph/pipeline.py", "cfg.odom_information()"),
    "pipeline:SlamConfig.plane_information": ("sgraph/pipeline.py", "cfg.plane_information()"),
    "simulator:RectSpec.bounds": ("sgraph/simulator.py", "[r.bounds for r in rects]"),
    "simulator:RectSpec.center": ("sgraph/simulator.py", "np.array(rect.center)"),
}


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


def public_methods(package: dict[str, str]) -> dict[str, str]:
    """The name of each public method of a module-level class of `package`,
    by `module:Class.method`."""
    return {
        f"{module}:{cls.name}.{node.name}": node.name
        for module, source in package.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def colliding_methods(package: dict[str, str], users: dict[str, str]) -> set[str]:
    """`module:Class.method` of each public method of `package` whose name
    `users` (the package itself among them) also bind otherwise: as a
    variable, argument, attribute, function, class or import, or as another
    class's method. A name that is an attribute of a `LIBRARY` object
    collides too. A read of such a name does not tell which it reads."""
    bindings = Counter()
    for source in users.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings[node.name] += 1
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bindings[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                bindings[node.attr] += 1
            elif isinstance(node, ast.arg):
                bindings[node.arg] += 1
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bindings.update(a.asname or a.name.split(".")[0] for a in node.names)
    library = set().union(*(dir(obj) for obj in LIBRARY))
    return {
        label
        for label, name in public_methods(package).items()
        if bindings[name] > 1 or name in library
    }


def public_without_users(
    package: dict[str, str], users: dict[str, str], call_sites: dict[str, tuple[str, str]]
) -> list[str]:
    """`module:name` of each public module-level function or class of
    `package`, and `module:Class.method` of each public method of its
    classes, that no source in `users` (the package itself among them)
    references: code kept for the tests alone, or for nobody.

    A name is matched by name, except the name of a colliding method
    (`colliding_methods`): that method is used only when `call_sites`
    gives it a file of `users` that holds the call's text."""
    used = references(ast.parse(source) for source in users.values())
    colliding = colliding_methods(package, users)
    found = {
        f"{module}:{name}": name
        for module, source in package.items()
        for name in module_level_names(ast.parse(source), constants=False)
        if not name.startswith("_")
    }
    found.update(public_methods(package))
    dead = []
    for label, name in found.items():
        if label in colliding:
            file, call = call_sites.get(label, (None, None))
            live = call is not None and call in users.get(file, "")
        else:
            live = name in used
        if not live:
            dead.append(label)
    return sorted(dead)


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
    # a new collision needs its call site listed, and a listed name that no
    # longer collides leaves the list
    assert colliding_methods(package, users) == set(CALL_SITES)
    assert public_without_users(package, users, CALL_SITES) == []


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
            # each collides: dict.values, the variable `area`, list.count
            "    def values(self):\n        return 3\n"
            "    def area(self):\n        return 4\n"
            "    def count(self):\n        return 5\n"
            "class Unused:\n    pass\n"
            "def _private():\n    pass\n"
            "def recursive(x):\n    return recursive(x - 1) if x else 0\n"
            "def reexported(x):\n    return x\n"
        ),
        # reads `values` and `count` of other objects only
        "b": (
            "from a import Box\nimport a\nprint(a.caller, Box().used())\n"
            "area = Box().area()\nprint({}.values(), [area].count(4))\n"
        ),
        # a package `__init__` re-exports names: that alone is no use
        "__init__": "from a import Box, reexported\n__all__ = ['Box', 'reexported']\n",
    }
    bench = "import a\nprint(a.recursive)\n"
    users = dict(package, bench=bench)
    # the call site listed for count is not in b
    call_sites = {"a:Box.area": ("b", "Box().area()"), "a:Box.count": ("b", "Box().count()")}
    assert colliding_methods(package, users) == {"a:Box.values", "a:Box.area", "a:Box.count"}
    assert public_without_users(package, users, call_sites) == [
        "a:Box.count",
        "a:Box.tested_only_method",
        "a:Box.values",
        "a:Unused",
        "a:reexported",
        "a:tested_only",
    ]


def unpassed_defaults(package: dict[str, str], callers: dict[str, str]) -> list[str]:
    """`module:function.parameter` (`module:Class.method.parameter` for a
    method) of each defaulted parameter of a module-level function or a
    method of `package` that no call in `callers` passes, by keyword or by
    position: a setting that is a constant. Calls are matched by the
    callee's name, a class's name standing for its `__init__`; a method's
    positions leave out its first parameter unless it is a staticmethod,
    and a call that unpacks `*args` or `**kwargs` passes every parameter."""
    defaults: dict[str, list[tuple[str, int | None, str]]] = {}
    for module, source in package.items():
        tree = ast.parse(source)
        scopes = [(None, tree)] + [(c.name, c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        for cls, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
                shift = 1 if cls and not static else 0
                label = f"{module}:{cls + '.' if cls else ''}{fn.name}"
                entries = defaults.setdefault(cls if fn.name == "__init__" else fn.name, [])
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    entries.append((f"{label}.{arg.arg}", i - shift, arg.arg))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        entries.append((f"{label}.{arg.arg}", None, arg.arg))
    passed = set()
    for source in callers.values():
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            unpacks = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            )
            keywords = {k.arg for k in call.keywords}
            for label, position, name in defaults.get(callee, []):
                if unpacks or name in keywords or (position is not None and len(call.args) > position):
                    passed.add(label)
    return sorted(label for entries in defaults.values() for label, _, _ in entries if label not in passed)


def test_every_defaulted_parameter_is_passed():
    package = {p.stem: p.read_text() for p in PACKAGE}
    callers = {f"{p.parent.name}/{p.name}": p.read_text() for p in FILES + USERS}
    assert unpassed_defaults(package, callers) == []


def test_scan_catches_a_defaulted_parameter_no_call_passes():
    package = {
        "a": (
            "def f(x, y=1, z=2, *, w=3, v=4):\n    return x\n"
            "def g(x, y=1):\n    return x\n"
            "def h(x=1, y=2):\n    return x\n"
            "class Box:\n"
            "    def __init__(self, size=1.0, seed=0):\n        pass\n"
            "    def method(self, x, y=1):\n        return x\n"
            "    @staticmethod\n    def static(x, y=1):\n        return x\n"
        ),
    }
    callers = {
        # y of f by position, w by keyword; h's two through **kwargs
        "b": (
            "from a import f, g, h, Box\n"
            "f(0, 5, w=6)\ng(0)\nh(**{'x': 1})\n"
            "box = Box(2.0)\nbox.method(0, 1)\nBox.static(0)\n"
        ),
    }
    assert unpassed_defaults(package, callers) == [
        "a:Box.__init__.seed",
        "a:Box.static.y",
        "a:f.v",
        "a:f.z",
        "a:g.y",
    ]


# the suffixes of the file names a document writes like dotted names
FILE_SUFFIXES = {"json", "tum", "ply", "py", "csv", "md"}


def package_roots() -> dict[str, object]:
    """The package, each of its modules and each class defined in one, by
    the name a document starts a dotted name with: `sgraph`, `solver`,
    `SGraph`."""
    roots = {"sgraph": importlib.import_module("sgraph")}
    for p in PACKAGE:
        if p.stem == "__init__":
            continue
        module = importlib.import_module(f"sgraph.{p.stem}")
        roots[p.stem] = module
        roots.update(
            (name, obj)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        )
    return roots


def unresolved_names(text: str, roots: dict[str, object]) -> list[str]:
    """Each dotted name in backticks in `text` (a trailing `()` dropped)
    that starts with one of `roots` and does not resolve from it: each
    further part must be an attribute, or a dataclass field without a
    default, which ends the name. File names such as `graph.json` are
    skipped."""
    missing = []
    for name in re.findall(r"`(\w+(?:\.\w+)+)(?:\(\))?`", text):
        first, *rest = name.split(".")
        if first not in roots or rest[-1] in FILE_SUFFIXES:
            continue
        obj = roots[first]
        for i, part in enumerate(rest, start=1):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif not (i == len(rest) and is_dataclass(obj) and part in {f.name for f in fields(obj)}):
                missing.append(name)
                break
    return missing


def test_readme_names_only_code_that_exists():
    assert unresolved_names((ROOT / "README.md").read_text(), package_roots()) == []


def test_scan_catches_a_readme_name_of_no_code():
    text = (
        "`SGraph.add_node` and `SGraph.no_such_method`, `Pose3.compose()`, "
        "`topology._wall_pair`, `Keyframe.pose` (a field without a default), "
        "`Keyframe.pose.nothing`, `sgraph.solver`, `sgraph.nowhere`, `graph.json`, "
        "`numpy.linalg`, `120.7`"
    )
    assert unresolved_names(text, package_roots()) == [
        "SGraph.no_such_method",
        "Keyframe.pose.nothing",
        "sgraph.nowhere",
    ]
