"""Every name a library module imports is used in that module, every
name the package re-exports is used outside the tests, and the package
needs nothing beyond numpy.

``__init__.py`` is skipped by the first check: its imports are the
package's re-exports, which the second check covers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gmbe"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that nothing else refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(source):
    """Names read as a bare name or as an attribute anywhere in source."""
    tree = ast.parse(source)
    names = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    names |= {n.attr for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return names


def test_detects_a_name_only_imported():
    src = "from gmbe import a, b\nimport gmbe\nprint(a, gmbe.c)\n"
    assert loaded_names(src) == {"print", "a", "gmbe", "c"}


def test_every_reexport_is_used_outside_tests():
    # a public name that only tests read is API kept for the tests alone
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for folder in (SRC, ROOT / "bench", ROOT / "scripts"):
        for path in folder.glob("*.py"):
            used |= loaded_names(path.read_text())
    assert sorted(exported - used) == []


def test_package_does_not_import_scipy():
    code = ("import sys, gmbe, gmbe.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert proc.stdout.strip() == "[]"
