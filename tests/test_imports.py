"""No module of the package imports a name it never uses, no private
helper or public definition is left that nothing calls, and a job loads
only the layers it runs.

No linter runs on the package, so small ast scans stand in for five
rules.  Unused imports: every name an import statement binds must be
read somewhere else in the module; __init__.py binds names to re-export
them and is left out.  Dead private code: every private module-level
function or class and every private method must be referenced, as a
name, an attribute or an imported name, somewhere in the package.  Dead
public code: every public module-level function or class must be
referenced in the same ways, or as a tracer target string such as
"snf:hermite_solve", somewhere in the package, its tests or the
benchmark harness.  Imports sit at module level only: the package's
_on_first_use binds the layers a module may need as modules run on
first use (cli's duality layers, cap's blowup, filtered's spaces), so
no function has to import one.  The class of Z/m is named in rings
alone: every other module tells a composite Z/m by ring.free_order.

Fresh interpreters check the loading itself: importing the package
runs no layer, every name of its __all__ resolves to the object in its
home module, and each command runs exactly the layers it needs.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ihomology.filtered import builtin

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


def function_level_imports(source):
    """Sorted qualified names of the functions, methods and classes in
    source whose bodies hold an import statement."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and scope:
                found.add(".".join(scope))
            else:
                visit(child, scope)
    visit(ast.parse(source), [])
    return sorted(found)


def test_the_scan_finds_function_level_imports():
    source = ("import os\nif os:\n    import re\n\n"
              "def f():\n    if True:\n        import re\n\n"
              "class K:\n    def m(self):\n        from . import x\n\n"
              "    def n(self):\n        pass\n")
    assert function_level_imports(source) == ["K.m", "f"]


def test_no_function_imports_a_module():
    found = {p.name: function_level_imports(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}


def names_used(source):
    """Sorted names that source reads, reads as attributes or imports,
    under their own names and their aliases."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(n for a in node.names
                         for n in (a.name, a.asname) if n)
    return sorted(found)


def test_the_scan_finds_names_used():
    source = "from .rings import ZmodRing as Z\nisinstance(r, Z)\n"
    assert names_used(source) == ["Z", "ZmodRing", "isinstance", "r"]
    assert names_used("rings.ZmodRing\n") == ["ZmodRing", "rings"]


def test_only_rings_names_the_class_of_z_mod_m():
    # a composite Z/m is told apart by ring.free_order, not by its class
    found = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "rings.py"
             and "ZmodRing" in names_used(p.read_text(encoding="utf-8"))]
    assert found == []


def fresh(code, *argv):
    """Run code in a fresh interpreter on the package under test and
    return the JSON it prints on its last line of stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                       capture_output=True, text=True, check=True)
    return json.loads(r.stdout.splitlines()[-1])


# the package modules that have run: one that _on_first_use put in
# sys.modules keeps a subclass of ModuleType until it runs
LOADED = ("sorted(m for m, mod in sys.modules.items() "
          "if m.startswith('ihomology') and type(mod) is types.ModuleType)")

RESOLVE = f"""
import json, sys, types
import ihomology
loaded = {LOADED}
names = ihomology.__all__
star = {{}}
exec("from ihomology import *", star)
homes = {{name: getattr(ihomology, name).__module__ for name in names}}
wrong = [name for name in names if homes[name] == "ihomology"
         or not (getattr(ihomology, name) is star[name]
                 is getattr(sys.modules[homes[name]], name))]
print(json.dumps([loaded, sorted(set(star) - {{"__builtins__"}}), wrong]))
"""


def test_every_public_name_resolves_to_its_home_on_first_use():
    loaded, star, wrong = fresh(RESOLVE)
    import ihomology
    assert loaded == ["ihomology"]
    assert star == sorted(ihomology.__all__)
    assert wrong == []


LAYERS = f"""
import json, sys, types
import ihomology
unlisted = sorted(set(ihomology.__all__) - set(dir(ihomology)))
loaded = {LOADED}
wrong = [m for m in ihomology._LAYERS
         if getattr(ihomology, m) is not sys.modules["ihomology." + m]]
print(json.dumps([unlisted, loaded, wrong]))
"""


def test_layer_modules_are_attributes_of_the_package():
    # as when the package imported every layer: dir() lists the public
    # names before their first use, and ihomology.snf is the snf module
    unlisted, loaded, wrong = fresh(LAYERS)
    assert unlisted == []
    assert loaded == ["ihomology"]
    assert wrong == []


RUN = f"""
import json, sys, types
from ihomology.cli import main
status = main(sys.argv[1:])
print()
print(json.dumps([status, {LOADED}]))
"""

DUALITY_LAYERS = ["ihomology.blowup", "ihomology.cap", "ihomology.perversity"]


def test_homology_loads_no_duality_layer(tmp_path, wedge_text):
    path = tmp_path / "wedge.txt"
    path.write_text(wedge_text)
    status, loaded = fresh(RUN, "homology", "--input", str(path))
    assert status == 0
    assert "ihomology.intersection" in loaded
    assert set(DUALITY_LAYERS).isdisjoint(loaded)


def test_verify_factorization_loads_the_duality_layers():
    status, loaded = fresh(RUN, "verify", "factorization", "--builtin", "s2")
    assert status == 0
    assert set(DUALITY_LAYERS) <= set(loaded)


BASE_LAYERS = ["cli", "complexes", "filtered", "intersection", "matrices",
               "rings", "snf"]


def as_text(space):
    """space in the text format of the --input files."""
    names = space.vertex_names
    return (f"dim {space.n}\n"
            + "".join(f"vertex {v} stratum {s}\n"
                      for v, s in zip(names, space.strata))
            + "".join("facet " + " ".join(names[v] for v in f) + "\n"
                      for f in space.facets))


@pytest.mark.parametrize("command, extra", [
    (["homology"], []),
    (["verify", "zero-top"], ["cap", "perversity"]),
    (["verify", "factorization"], ["blowup", "cap", "perversity"]),
], ids=["homology", "zero-top", "factorization"])
def test_an_input_job_runs_exactly_its_layers(tmp_path, command, extra):
    # no builtin construction runs on a file, and zero-top, which needs
    # only the classical cap, never compiles the blown-up layer
    path = tmp_path / "s2.txt"
    path.write_text(as_text(builtin("s2")))
    status, loaded = fresh(RUN, *command, "--input", str(path))
    assert status == 0
    assert loaded == sorted(["ihomology"] + [f"ihomology.{m}" for m in
                                             BASE_LAYERS + extra])


def test_demo_runs_the_checks_and_constructions_but_no_blowup():
    status, loaded = fresh(RUN, "demo", "sigma-rp3")
    assert status == 0
    assert loaded == sorted(["ihomology"] + [
        f"ihomology.{m}" for m in
        BASE_LAYERS + ["cap", "checks", "perversity", "spaces"]])
