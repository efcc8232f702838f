"""Every name a module of the package or of the test suite imports is used by
that module, and every name a package module exports is bound.

No linter ships with the package, so these scans are the check. The first
parses each module with the standard library's ast and fails on an imported
name that the module never reads. Names listed in __all__ count as used
(they are re-exported), and so does `from __future__ import annotations`.
The second imports each module and fails on a name in its __all__ that the
module does not bind, as a deleted function left in __all__ would be. The
third fails on a name the package exports that nothing outside the tests
reads: no package module other than __init__, and no benchmark module.
Such a name belongs in tests/lemmas.py, or nowhere.
"""

import ast
import importlib
import types
from pathlib import Path

import icbound

SRC = Path(icbound.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _annotation_names(node):
    """Names inside a string annotation such as "IndexCodingInstance"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def unused_imports(tree):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8"))):
            found.append(f"{path.parent.name}/{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_unused_and_used_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Tuple\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: 'List[int]') -> None:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "Tuple")]


def unbound_exports(module):
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_all_names_are_bound():
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "icbound" if path.stem == "__init__" else f"icbound.{path.stem}"
        module = importlib.import_module(name)
        found += [f"{name}: {n}" for n in unbound_exports(module)]
    assert not found, "names in __all__ that are not bound:\n" + "\n".join(found)


def test_export_check_sees_missing_name():
    module = types.ModuleType("m")
    exec("def kept(): pass\n__all__ = ['kept', 'deleted']\n", module.__dict__)
    assert unbound_exports(module) == ["deleted"]


def read_names(tree):
    """Every Name and Attribute a module reads, and each part of the dotted
    strings it assigns to LAYERS (the names the benchmark wraps)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            names |= {part for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)
                      for part in c.value.split(".")}
    return names


def unread_exports(exported, trees):
    read = set().union(*map(read_names, trees))
    return [name for name in exported if name != "__version__" and name not in read]


def test_every_export_is_read_outside_the_tests():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    paths += sorted(PERFBENCH.glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    found = unread_exports(icbound.__all__, trees)
    assert not found, "exported names only the tests read:\n" + "\n".join(found)


def test_export_scan_sees_unread_names():
    package = ast.parse(
        "from .m import listed, defined\n"
        "__all__ = ['listed']\n"
        "def defined():\n"
        "    return called(obj.attribute)\n"
    )
    bench = ast.parse(
        "import icbound as icb\n"
        "icb.benched()\n"
        "LAYERS = [('x.s', ['icbound.mod.Wrapped.method'], False, ('.s',))]\n"
    )
    exported = ["listed", "defined", "called", "attribute", "benched",
                "Wrapped", "method", "__version__"]
    assert unread_exports(exported, [package, bench]) == ["listed", "defined"]
