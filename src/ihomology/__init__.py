"""Exact intersection homology and blown-up intersection cohomology.

Chain-level computations over Z, Q, and Z/m for filtered simplicial
complexes: simplicial and intersection homology, the blown-up cochain
complex with its perverse filtration, cap products in both worlds, the
comparison maps between them, and verification drivers for the duality
statements those caps induce.
"""

from .rings import ZZ, QQ, Zmod, ring_by_name
from .matrices import Matrix
from .snf import smith_normal_form, invariant_factors, integer_kernel, kernel
from .filtered import (FilteredComplex, NonOrientableError, builtin,
                       cone, suspension, load_complex, parse_complex)
from .perversity import (Perversity, zero, top, clip, gm_lattice,
                         parse_perversity)
from .intersection import (intersection_homology, perverse_complex,
                           comparison_map, cohomology, gm_cohomology)
from .blowup import (blowup_complex, tw_complex, tw_cohomology,
                     tw_comparison)
from .cap import (classical_cap, intersection_cap, classical_duality,
                  classical_duality_induced, duality_map, leibniz_holds,
                  verify_factorization, check_zero_top, gm_demo)

__all__ = [
    "ZZ", "QQ", "Zmod", "ring_by_name",
    "Matrix",
    "smith_normal_form", "invariant_factors", "integer_kernel", "kernel",
    "FilteredComplex", "NonOrientableError", "builtin",
    "cone", "suspension", "load_complex", "parse_complex",
    "Perversity", "zero", "top", "clip", "gm_lattice", "parse_perversity",
    "intersection_homology", "perverse_complex", "comparison_map",
    "cohomology", "gm_cohomology",
    "blowup_complex", "tw_complex", "tw_cohomology", "tw_comparison",
    "classical_cap", "intersection_cap", "classical_duality",
    "classical_duality_induced", "duality_map", "leibniz_holds",
    "verify_factorization", "check_zero_top", "gm_demo",
]
