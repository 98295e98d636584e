"""No module of the package imports a name it never uses, and no
private helper or public definition is left that nothing calls.

No linter runs on the package, so small ast scans stand in for three
rules.  Unused imports: every name an import statement binds must be
read somewhere else in the module; __init__.py binds names to re-export
them and is left out.  Dead private code: every private module-level
function or class and every private method must be referenced, as a
name, an attribute or an imported name, somewhere in the package.  Dead
public code: every public module-level function or class must be
referenced in the same ways, or as a tracer target string such as
"snf:hermite_solve", somewhere in the package, its tests or the
benchmark harness.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ihomology"
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
        referenced |= references(tree)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name.rpartition(".")[2] not in referenced)


def references(tree):
    """Every name tree reads as a name or an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


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


TARGET = re.compile(r"\w+:\w+(\.\w+)*")


def unreferenced_public_definitions(package, others):
    """Sorted "module:name" of the public module-level functions and
    classes of package (a dict module name -> source) that no source in
    package or others (a list of sources) references as a name, an
    attribute, an imported name or a part of a "module:qualname" string
    constant."""
    defined = []
    referenced = set()
    for module, source in package.items():
        defined += [(module, node.name) for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
    for source in [*package.values(), *others]:
        tree = ast.parse(source)
        referenced |= references(tree)
        referenced.update(
            part for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and TARGET.fullmatch(node.value)
            for part in node.value.split(":")[1].split("."))
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in referenced)


def test_the_scan_finds_unreferenced_public_definitions():
    package = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
             "class Gone:\n    pass\n\ndef traced():\n    pass\n\n"
             "class Holder:\n    def method(self):\n        pass\n\n"
             "def _private():\n    pass\n",
        "b": "from .a import used\n",
    }
    others = ["TARGETS = ('a:traced', 'a:Holder.method')\n",
              "text = 'dead code: Gone'\n"]
    assert unreferenced_public_definitions(package, others) == [
        "a:Gone", "a:dead"]


def test_every_public_definition_is_referenced():
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    others = [p.read_text(encoding="utf-8")
              for folder in ("tests", "perfbench")
              for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unreferenced_public_definitions(package, others) == []
