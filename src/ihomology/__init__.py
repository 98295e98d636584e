"""Exact intersection homology and blown-up intersection cohomology.

Chain-level computations over Z, Q, and Z/m for filtered simplicial
complexes: simplicial and intersection homology, the blown-up cochain
complex with its perverse filtration, cap products in both worlds, the
comparison maps between them, and verification drivers for the duality
statements those caps induce.

Importing the package loads no layer: each name below, and each layer
module as an attribute of the package, is looked up on first use (PEP
562), so a job loads only the layers it runs.  Inside the package a
module binds a layer only some of its callers need with _on_first_use,
and the standard fractions module, which only true rationals need, the
same way.
"""

import sys
from importlib import import_module, util

_LAYERS = {
    "rings": ("ZZ", "QQ", "Zmod", "ring_by_name"),
    "matrices": ("Matrix",),
    "snf": ("smith_normal_form", "invariant_factors", "integer_kernel",
            "kernel"),
    "complexes": (),
    "filtered": ("FilteredComplex", "NonOrientableError", "builtin",
                 "load_complex", "parse_complex"),
    "spaces": ("cone", "suspension"),
    "perversity": ("Perversity", "zero", "top", "clip", "gm_lattice",
                   "parse_perversity"),
    "intersection": ("intersection_homology", "perverse_complex",
                     "comparison_map", "cohomology", "gm_cohomology"),
    "blowup": ("blowup_complex", "tw_complex", "tw_cohomology",
               "tw_comparison"),
    "cap": ("classical_duality", "classical_duality_induced",
            "duality_map", "verify_factorization", "check_zero_top"),
    "checks": ("classical_cap", "intersection_cap", "leibniz_holds",
               "gm_demo"),
}
_HOME = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def _on_first_use(name, package=__name__):
    """The module name of package (a top-level module when package is
    None), put in sys.modules now and compiled and run on the first
    access to one of its attributes (LazyLoader); a module already
    imported comes back as it is."""
    full = f"{package}.{name}" if package else name
    module = sys.modules.get(full)
    if module is None:
        spec = util.find_spec(full)
        spec.loader = util.LazyLoader(spec.loader)
        module = sys.modules[full] = util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def __getattr__(name):
    """A public name from its home module, or a layer module, imported
    on first use and then kept as a global of the package."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _LAYERS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
