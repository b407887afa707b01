"""Every name a package module imports is used in that module, every
function, class and method the package defines is used somewhere, and the
package needs nothing beyond the standard library.

A stdlib-only stand-in for an unused-import lint: each ``src/poremetrics``
module, ``__init__.py`` included, is parsed with ``ast``, and every name
bound by an import must appear as a name somewhere else in the module, so a
re-export fails it.  Likewise every module-level function or class and
every method of a module-level class must appear as a name or an attribute
in the package, ``scripts/`` or ``bench/``: what only tests call does not
belong in the package.  Dunder methods are called implicitly and are
exempt.  A fresh interpreter imports every module of the package and must
not have loaded numpy, nor ``dataclasses`` or ``inspect``: the package's
value types are plain classes and named tuples.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "poremetrics"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_check_finds_an_unused_import():
    source = "import os\nfrom math import floor, ceil\nfrom x import y as z\nprint(floor(os.sep))\n"
    assert unused_imports(source) == ["ceil (line 2)", "z (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` or ``module.Class.method`` of each definition in
    ``modules`` (module name to source) that no source in ``modules`` or
    ``others`` uses as a name or an attribute."""
    defined = []
    used = set()
    for module, source in modules.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined.append((f"{module}.{node.name}.{item.name}", item.name))
    for source in [*modules.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [qualified for qualified, name in defined if name not in used]


def test_check_finds_an_unreferenced_definition():
    package = {
        "mod": (
            "def used(): pass\n"
            "def unused(): pass\n"
            "class C:\n"
            "    def __repr__(self): return 'C'\n"
            "    def m(self): return used()\n"
            "    def n(self): pass\n"
        )
    }
    others = ["from mod import unused, C\nC().m()\n"]
    assert unreferenced_definitions(package, others) == ["mod.unused", "mod.C.n"]


def test_no_unreferenced_definitions():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    others = [
        p.read_text(encoding="utf-8")
        for top in ("src", "scripts", "bench")
        for p in sorted((ROOT / top).rglob("*.py"))
        if p.parent != PACKAGE
    ]
    assert unreferenced_definitions(modules, others) == []


def loaded_by_package_import(candidates: list[str]) -> list[str]:
    """The ``candidates`` that a fresh interpreter has in ``sys.modules``
    after importing every package module but __main__, which runs the
    command line on import."""
    names = [f"poremetrics.{p.stem}" for p in MODULES if p.stem not in ("__init__", "__main__")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = (
        f"import importlib, sys\nfor name in {names!r}: importlib.import_module(name)\n"
        f"print(' '.join(m for m in {candidates!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return done.stdout.split()


def test_package_import_loads_no_numpy():
    assert loaded_by_package_import(["numpy"]) == []


def test_package_import_loads_no_dataclasses_or_inspect():
    assert loaded_by_package_import(["dataclasses", "inspect"]) == []
