"""Every name a package module imports is used in that module, and the
package needs nothing beyond the standard library.

A stdlib-only stand-in for an unused-import lint: each ``src/poremetrics``
module except ``__init__.py`` (which imports to re-export) is parsed with
``ast``, and every name bound by an import must appear as a name somewhere
else in the module.  A fresh interpreter imports the package and must not
have loaded numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poremetrics"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_package_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, poremetrics; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
