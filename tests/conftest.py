import sys

import pytest

from ihomology import snf
from ihomology.filtered import builtin


@pytest.fixture
def patch_snf(monkeypatch):
    """patch_snf(name, fake) puts fake in place of the snf function name
    in every loaded ihomology module that binds it, snf included, so a
    test need not know which modules import it."""
    def patch(name, fake):
        real = getattr(snf, name)
        for module_name, module in list(sys.modules.items()):
            if (module_name.partition(".")[0] == "ihomology"
                    and vars(module).get(name) is real):
                monkeypatch.setattr(module, name, fake)
    return patch


@pytest.fixture(scope="session")
def s4():
    return builtin("s4")


@pytest.fixture(scope="session")
def rp3():
    return builtin("rp3")


@pytest.fixture(scope="session")
def sigma_rp3():
    return builtin("sigma-rp3")


@pytest.fixture(scope="session")
def wedge_text():
    """Two tetrahedron boundaries glued at the singular vertex p: a valid,
    orientable, non-normal 2-pseudomanifold, in the input format."""
    return ("dim 2\nvertex p stratum 0\n"
            + "".join(f"vertex {v} stratum 2\n" for v in "abcdef")
            + "".join(f"facet {f}\n" for f in (
                "p a b", "p a c", "p b c", "a b c",
                "p d e", "p d f", "p e f", "d e f")))
