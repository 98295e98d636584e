"""No module of the package imports a name it never uses.

No linter runs on the package, so a small ast scan stands in for the
unused-import rule: every name an import statement binds must be read
somewhere else in the module.  __init__.py binds names to re-export
them and is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ihomology"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Sorted names bound by imports in source and never read as names."""
    tree = ast.parse(source)
    bound = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(bound - read)


def test_the_scan_finds_unused_imports():
    source = "import os.path\nfrom .rings import ZZ, QQ as Q\nprint(Q)\n"
    assert unused_imports(source) == ["ZZ", "os"]
    assert unused_imports(source + "os.path.join('a')\n") == ["ZZ"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
