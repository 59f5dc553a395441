"""Source hygiene: no module in the package or the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "sgraph").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {ast.literal_eval(e) for e in node.value.elts}
    return sorted(set(imported) - used)


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
