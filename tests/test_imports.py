"""No module of the package imports a name it never uses, and no
private helper is left that nothing calls.

No linter runs on the package, so small ast scans stand in for two
rules.  Unused imports: every name an import statement binds must be
read somewhere else in the module; __init__.py binds names to re-export
them and is left out.  Dead private code: every private module-level
function or class and every private method must be referenced, as a
name, an attribute or an imported name, somewhere in the package.
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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def unreferenced_private_definitions(sources):
    """Sorted "module:qualname" of the private module-level functions and
    classes and the private methods, among sources (a dict module name
    -> source), whose name no module references."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    _is_private(node.name):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and _is_private(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name.rpartition(".")[2] not in referenced)


def test_the_scan_finds_unreferenced_private_definitions():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\n"
             "class _Gone:\n    def __init__(self):\n        pass\n\n"
             "class K:\n    def _m(self):\n        pass\n\n"
             "    def _n(self):\n        return self._m()\n",
        "b": "from .a import _used\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a:K._n", "a:_Gone", "a:_dead"]


def test_every_private_helper_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []
