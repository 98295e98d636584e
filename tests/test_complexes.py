import pytest

from ihomology import complexes
from ihomology.matrices import Matrix
from ihomology.rings import ZZ, QQ, Zmod
from ihomology.complexes import (ChainMap, PresentedComplex, homology_of,
                                 homology_type_of)
from ihomology.snf import kernel


def doubling_complex(ring):
    # 0 -> C_1 = R --(2)--> C_0 = R -> 0
    return PresentedComplex(ring, {0: 1, 1: 1},
                            {1: Matrix.from_rows(ring, [[2]])})


def test_doubling_over_z():
    C = doubling_complex(ZZ)
    h0 = C.homology(0)
    assert h0.free_rank == 0
    assert h0.torsion == [2]
    assert str(h0) == "Z/2"
    assert C.homology(1).is_trivial()


def test_doubling_over_q():
    C = doubling_complex(QQ)
    assert C.homology(0).is_trivial()
    assert C.homology(1).is_trivial()


def test_doubling_over_z2():
    C = doubling_complex(Zmod(2))
    assert str(C.homology(0)) == "(Z/2)"
    assert str(C.homology(1)) == "(Z/2)"


def test_doubling_over_z4():
    # multiplication by 2 on Z/4 has kernel and cokernel both Z/2
    C = doubling_complex(Zmod(4))
    h0 = C.homology(0)
    assert h0.orders == [2]
    assert h0.free_rank == 0
    assert h0.torsion == [2]
    h1 = C.homology(1)
    assert h1.torsion == [2]
    rep = h1.reps[0]
    assert rep == {0: 2}


def test_projective_plane_cw():
    # minimal cell structure: Z --2--> Z --0--> Z
    C = PresentedComplex(ZZ, {0: 1, 1: 1, 2: 1},
                         {1: Matrix.zeros(ZZ, 1, 1),
                          2: Matrix.from_rows(ZZ, [[2]])})
    assert str(C.homology(0)) == "Z"
    assert str(C.homology(1)) == "Z/2"
    assert str(C.homology(2)) == "0"
    C2 = C.map_ring(Zmod(2))
    assert [C2.homology(k).free_rank for k in (0, 1, 2)] == [1, 1, 1]
    assert homology_type_of(C.boundary(1), C.boundary(2)) == (0, (2,))


def test_triangle_circle():
    # boundary of a triangle: vertices a,b,c and the three edges
    d1 = Matrix.from_rows(ZZ, [[-1, -1, 0],
                               [1, 0, -1],
                               [0, 1, 1]])
    C = PresentedComplex(ZZ, {0: 3, 1: 3}, {1: d1})
    assert str(C.homology(0)) == "Z"
    assert str(C.homology(1)) == "Z"
    assert C.euler_characteristic() == 0


def test_boundary_squared_checked():
    bad1 = Matrix.from_rows(ZZ, [[1, 0], [0, 1]])
    bad2 = Matrix.from_rows(ZZ, [[1], [0]])
    with pytest.raises(ValueError, match="squared"):
        PresentedComplex(ZZ, {0: 2, 1: 2, 2: 1}, {1: bad1, 2: bad2})


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(3), Zmod(4)], ids=str)
def test_homology_of_rejects_boundaries_outside_the_cycles(R):
    # bd_in hits a vector that bd_out does not kill
    bd_out = Matrix.from_rows(R, [[1, 0]])
    bd_in = Matrix.from_rows(R, [[1], [1]])
    with pytest.raises(ValueError, match="do not lie in the cycle span"):
        homology_of(bd_out, bd_in)


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(3), Zmod(4)], ids=str)
def test_failed_group_does_not_prune_the_next_degree(R, monkeypatch):
    # d1 d2 != 0: H_1 refuses its boundaries, so H_2 must not decide its
    # cycles on H_1's pivot rows (none, as H_1 has no cycles, which would
    # make every 2-chain a cycle); it takes every row of d2
    rows = []

    def recording(M):
        rows.append(len(M.rows))
        return kernel(M)
    monkeypatch.setattr(complexes, "kernel", recording)
    C = PresentedComplex(R, {0: 1, 1: 1, 2: 1},
                         {1: Matrix.from_rows(R, [[1]]),
                          2: Matrix.from_rows(R, [[1]])}, check=False)
    assert str(C.homology(0)) == "0"
    with pytest.raises(ValueError,
                       match="boundary columns do not lie in the cycle span"):
        C.homology(1)
    rows.clear()
    assert str(C.homology(2)) == "0"
    assert rows == [1]


def test_class_equal_mod_boundary():
    C = doubling_complex(ZZ)
    h0 = C.homology(0)
    assert h0.class_equal({0: 1}, {0: 3})
    assert h0.is_zero_class({0: 2})
    assert not h0.class_equal({0: 1}, {0: 2})
    with pytest.raises(ValueError, match="cycle"):
        C.homology(1).coords({0: 1})


def test_coords_free_part():
    # two disjoint circles: H_1 = Z^2 with visible coordinates
    C = PresentedComplex(ZZ, {0: 1, 1: 2}, {1: Matrix.zeros(ZZ, 1, 2)})
    h1 = C.homology(1)
    assert h1.free_rank == 2
    assert str(h1) == "Z^2"
    a = h1.coords({0: 1, 1: 2})
    b = h1.coords({0: 1, 1: 2})
    assert a == b
    assert h1.coords({}) == (0, 0)


def mod3_complex():
    return PresentedComplex(ZZ, {0: 1, 1: 1},
                            {1: Matrix.from_rows(ZZ, [[3]])})


def test_induced_iso_on_torsion():
    C = mod3_complex()
    f = ChainMap(C, C, {0: Matrix.from_rows(ZZ, [[2]]),
                        1: Matrix.from_rows(ZZ, [[2]])})
    f.verify()
    ind = f.induced(0)
    assert ind.is_surjective()
    assert ind.is_isomorphism()
    g = ChainMap(C, C, {0: Matrix.from_rows(ZZ, [[3]]),
                        1: Matrix.from_rows(ZZ, [[3]])})
    g.verify()
    assert not g.induced(0).is_surjective()
    assert not g.induced(0).is_isomorphism()


def test_induced_not_iso_on_free():
    C = PresentedComplex(ZZ, {0: 1}, {})
    f = ChainMap(C, C, {0: Matrix.from_rows(ZZ, [[2]])})
    f.verify()
    assert not f.induced(0).is_isomorphism()
    ident = ChainMap(C, C, {0: Matrix.identity(ZZ, 1)})
    assert ident.induced(0).is_isomorphism()


@pytest.mark.parametrize("R, c, iso", [(Zmod(4), 2, False), (Zmod(4), 3, True),
                                       (QQ, 0, False), (QQ, 2, True)],
                         ids=["Z4-times-2", "Z4-times-3", "Q-times-0", "Q-times-2"])
def test_induced_multiplication_on_free_module(R, c, iso):
    C = PresentedComplex(R, {0: 1}, {})
    f = ChainMap(C, C, {0: Matrix.from_rows(R, [[c]])})
    f.verify()
    assert f.induced(0).is_surjective() == iso
    assert f.induced(0).is_isomorphism() == iso


def test_induced_surjective_needs_the_orders():
    # over Z/12, H_0 of Z/12 --(4)--> Z/12 is Z/4; times 3 is onto it,
    # although 3 is not a unit of Z/12
    R = Zmod(12)
    C = PresentedComplex(R, {0: 1, 1: 1}, {1: Matrix.from_rows(R, [[4]])})
    f = ChainMap(C, C, {0: Matrix.from_rows(R, [[3]]),
                        1: Matrix.from_rows(R, [[3]])})
    f.verify()
    assert C.homology(0).orders == [4]
    assert f.induced(0).is_isomorphism()
    g = ChainMap(C, C, {0: Matrix.from_rows(R, [[2]]),
                        1: Matrix.from_rows(R, [[2]])})
    assert not g.induced(0).is_surjective()


def test_chain_map_verify_reports_degree():
    C = PresentedComplex(ZZ, {0: 1, 1: 1}, {1: Matrix.from_rows(ZZ, [[2]])})
    f = ChainMap(C, C, {0: Matrix.identity(ZZ, 1),
                        1: Matrix.from_rows(ZZ, [[2]])})
    with pytest.raises(ValueError, match="degree 1"):
        f.verify()


def test_negative_degrees_as_cochains():
    # cochain complex of the doubling complex, stored on negated degrees
    d0 = Matrix.from_rows(ZZ, [[2]])  # C^0 -> C^1 is again times 2
    C = PresentedComplex(ZZ, {0: 1, -1: 1}, {0: d0})
    # H^0 = ker = 0, H^1 = coker = Z/2
    assert C.homology(0).is_trivial()
    assert str(C.homology(-1)) == "Z/2"
