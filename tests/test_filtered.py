from itertools import combinations

import pytest

from ihomology.filtered import (FilteredComplex, NonOrientableError,
                                builtin, builtin_size, parse_complex)
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.spaces import (antipodal_quotient, barycentric_subdivision,
                              cone, cross_polytope_antipode,
                              cross_polytope_boundary, projective_space,
                              simplex_sphere, suspension)


def test_sphere_f_vectors():
    s2 = simplex_sphere(2)
    # boundary of a tetrahedron
    assert s2.f_vector() == (4, 6, 4)
    assert s2.euler_characteristic() == 2
    s3 = simplex_sphere(3)
    assert s3.f_vector() == (5, 10, 10, 5)
    assert s3.euler_characteristic() == 0


def test_sphere_homology():
    s4 = simplex_sphere(4)
    for k in range(1, 4):
        assert s4.homology(k, ZZ).is_trivial()
    assert str(s4.homology(0, ZZ)) == "Z"
    assert str(s4.homology(4, ZZ)) == "Z"


def test_vertex_order_must_refine_strata():
    with pytest.raises(ValueError):
        FilteredComplex(1, ["a", "b"], [1, 0], [(0, 1)])


def test_sd_f_vector_by_flag_count():
    # k-simplices of the subdivision are strict chains of k+1 faces in the
    # face poset of the original complex; count those chains directly
    s2 = simplex_sphere(2)
    sd = barycentric_subdivision(s2)
    all_faces = []
    for f in s2.facets:
        for r in range(1, 4):
            all_faces.extend(combinations(f, r))
    all_faces = sorted(set(all_faces))

    def chains_from(a, remaining, memo={}):
        if remaining == 1:
            return 1
        key = (a, remaining)
        if key not in memo:
            memo[key] = sum(chains_from(b, remaining - 1, memo)
                            for b in all_faces if set(a) < set(b))
        return memo[key]

    def chains(length):
        return sum(chains_from(a, length) for a in all_faces)

    assert sd.f_vector() == (chains(1), chains(2), chains(3))
    assert sd.f_vector() == (14, 36, 24)
    assert sd.euler_characteristic() == s2.euler_characteristic()


def test_sd_carriers_and_homology():
    s2 = simplex_sphere(2)
    sd = barycentric_subdivision(s2)
    assert len(sd.carriers) == sd.vertex_count
    assert str(sd.homology(2, ZZ)) == "Z"
    assert sd.homology(1, ZZ).is_trivial()


def test_circle_from_square_quotient():
    # boundary of a square: 4 vertices, 4 edges; antipodal map is free on
    # the subdivision
    sq = cross_polytope_boundary(2)
    pairing = cross_polytope_antipode(2)
    sd = barycentric_subdivision(sq)
    from ihomology.spaces import lift_involution
    circle = antipodal_quotient(sd, lift_involution(sq, pairing, sd))
    assert circle.f_vector() == (4, 4)
    assert circle.euler_characteristic() == 0
    assert str(circle.homology(1, ZZ)) == "Z"


def test_quotient_rejects_bad_actions():
    # an edge swapped onto itself meets its own image
    K = FilteredComplex(1, ["a", "b"], [1, 1], [(0, 1)])
    with pytest.raises(ValueError, match="meets its image"):
        antipodal_quotient(K, {0: 1, 1: 0})
    # on the square boundary two distinct edges get identified by accident
    sq = cross_polytope_boundary(2)
    with pytest.raises(ValueError, match="identification clash"):
        antipodal_quotient(sq, cross_polytope_antipode(2))


def test_rp2_homology():
    oct_ = cross_polytope_boundary(3)
    pairing = cross_polytope_antipode(3)
    sd1 = barycentric_subdivision(oct_)
    from ihomology.spaces import lift_involution
    p1 = lift_involution(oct_, pairing, sd1)
    sd2 = barycentric_subdivision(sd1)
    p2 = lift_involution(sd1, p1, sd2)
    rp2 = antipodal_quotient(sd2, p2)
    # octahedron boundary (6,12,8); sd multiplies top count by 3! = 6 and
    # makes one vertex per face: sd1 = (26,72,48), sd2 = (146,432,288)
    assert sd2.f_vector() == (146, 432, 288)
    assert rp2.f_vector() == (73, 216, 144)
    assert str(rp2.homology(0, ZZ)) == "Z"
    assert str(rp2.homology(1, ZZ)) == "Z/2"
    assert rp2.homology(2, ZZ).is_trivial()
    # characteristic 2 sees the top class
    assert rp2.homology(2, Zmod(2)).iso_type() == (1, ())
    # over Z/4 the top cycles are 2w, with no unit coefficient
    Z4 = rp2.homology(2, Zmod(4)).cycles
    assert Z4.ncols == 1 and set(Z4.columns()[0].values()) == {2}
    first = rp2.simplex_names(rp2.simplices(2)[0])
    for R in (ZZ, QQ, Zmod(3), Zmod(4)):
        with pytest.raises(NonOrientableError) as refused:
            rp2.fundamental_class(R)
        assert str(refused.value) == (
            f"not orientable over {R.name}: top simplex {first} has no "
            "unit coefficient in any top cycle")
    z = rp2.fundamental_class(Zmod(2))
    assert sorted(z) == list(range(144))


def test_rp3_homology():
    rp3 = builtin("rp3")
    assert rp3.f_vector() == (40, 232, 384, 192)
    assert rp3.euler_characteristic() == 0
    assert str(rp3.homology(0, ZZ)) == "Z"
    assert str(rp3.homology(1, ZZ)) == "Z/2"
    assert rp3.homology(2, ZZ).is_trivial()
    assert str(rp3.homology(3, ZZ)) == "Z"
    for k in range(4):
        assert rp3.homology(k, Zmod(2)).iso_type() == (1, ())


def test_rp3_is_orientable():
    rp3 = builtin("rp3")
    z = rp3.fundamental_class(ZZ)
    assert len(z) == 192
    assert all(v in (1, -1) for v in z.values())


def test_rp3_finer_model_agrees():
    # one more barycentric subdivision: much larger, same homology
    fine = projective_space(4, subdivisions=2)
    assert fine.euler_characteristic() == 0
    assert str(fine.homology(1, ZZ)) == "Z/2"
    assert str(fine.homology(3, ZZ)) == "Z"


@pytest.mark.slow
def test_suspension_of_finer_rp3_model():
    # the 60k-simplex model: suspension shifts H_1(RP^3) = Z/2 and
    # H_3(RP^3) = Z up one degree
    X = suspension(projective_space(4, subdivisions=2))
    assert X.f_vector() == (850, 7152, 20128, 23040, 9216)
    assert [str(X.homology(k, ZZ)) for k in range(5)] == [
        "Z", "0", "Z/2", "0", "Z"]


def test_fundamental_class_of_sphere():
    s3 = simplex_sphere(3)
    z = s3.fundamental_class(ZZ)
    # oracle: the boundary of the solid 4-simplex [01234] with alternating
    # signs is a cycle; our class must be that chain up to global sign
    signs = {}
    verts = list(range(5))
    for i in range(5):
        face = tuple(verts[:i] + verts[i + 1:])
        signs[s3.index_of(face)] = (-1) ** i
    flip = z[s3.index_of((1, 2, 3, 4))] * signs[s3.index_of((1, 2, 3, 4))]
    assert z == {j: flip * v for j, v in signs.items()}


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(3)], ids=str)
def test_fundamental_class_of_two_disjoint_spheres(R):
    # two boundaries of a solid 3-simplex, on vertices 0-3 and 4-7: one
    # top cycle per component, each the alternating-sign boundary of its
    # simplex, signed to be +1 on the component's first top simplex
    K = FilteredComplex(2, [str(v) for v in range(8)], [2] * 8,
                        [f for v in (0, 4) for f in combinations(
                            range(v, v + 4), 3)])
    z = K.fundamental_class(R)
    expected = {}
    for v in (0, 4):
        verts = list(range(v, v + 4))
        signs = {K.index_of(tuple(verts[:i] + verts[i + 1:])): (-1) ** i
                 for i in range(4)}
        flip = signs[min(signs)]
        expected.update({j: R.el(flip * e) for j, e in signs.items()})
    assert z == expected
    assert list(z) == sorted(z)


def test_suspension_strata_layout():
    rp3 = builtin("rp3")
    srp3 = builtin("sigma-rp3")
    assert srp3.n == 4
    assert srp3.vertex_names[:2] == ["north", "south"]
    assert srp3.strata[:2] == [0, 0]
    assert set(srp3.strata[2:]) == {4}
    assert srp3.f_vector() == (42, 312, 848, 960, 384)
    assert srp3.euler_characteristic() == 2
    assert srp3.vertex_count == rp3.vertex_count + 2


def test_sigma_rp3_valid_and_orientable():
    srp3 = builtin("sigma-rp3")
    report = srp3.validate()
    assert report.valid, str(report)
    assert report.normal, str(report)
    z = srp3.fundamental_class(ZZ)
    assert len(z) == 384


def test_sigma_rp3_homology():
    srp3 = builtin("sigma-rp3")
    assert str(srp3.homology(0, ZZ)) == "Z"
    assert srp3.homology(1, ZZ).is_trivial()
    assert str(srp3.homology(2, ZZ)) == "Z/2"
    assert srp3.homology(3, ZZ).is_trivial()
    assert str(srp3.homology(4, ZZ)) == "Z"


def test_suspension_shifts_homology():
    # reduced homology moves up one degree under suspension
    for name in ["s2", "s3", "rp3"]:
        K = builtin(name)
        SK = suspension(K)
        comps = K.homology(0, ZZ).free_rank
        h1 = SK.homology(1, ZZ)
        assert h1.iso_type() == (comps - 1, ())
        for k in range(2, SK.n + 1):
            hk = SK.homology(k, ZZ)
            hk_low = K.homology(k - 1, ZZ)
            assert hk.iso_type() == hk_low.iso_type()


def test_cone_is_acyclic():
    c = cone(builtin("s2"))
    assert str(c.homology(0, ZZ)) == "Z"
    for k in range(1, 4):
        assert c.homology(k, ZZ).is_trivial()
    assert c.strata[0] == 0
    assert c.vertex_names[0] == "apex"


def test_iterated_cone_and_suspension_pick_fresh_apex_names():
    cc = cone(cone(builtin("s2")))
    assert cc.vertex_names[0] == "apex2"
    ss = suspension(builtin("sigma-rp3"))
    assert ss.vertex_names[:2] == ["north2", "south2"]
    assert ss.n == 5
    assert ss.euler_characteristic() == 0


def test_join_decomposition():
    srp3 = builtin("sigma-rp3")
    north = 0
    v = 2  # first vertex of the rp3 part
    jd = srp3.join_decomposition((north, v))
    assert jd.parts[0] == (north,)
    assert jd.parts[4] == (v,)
    assert jd.parts[1] == jd.parts[2] == jd.parts[3] == ()
    assert jd.regular
    jd2 = srp3.join_decomposition((north,))
    assert not jd2.regular
    assert srp3.is_regular((north, v))
    assert not srp3.is_regular((0, 1))


def test_filtration_dim():
    srp3 = builtin("sigma-rp3")
    assert srp3.filtration_dim((0, 1), 0) == 1
    assert srp3.filtration_dim((0, 2), 0) == 0
    assert srp3.filtration_dim((2, 3), 0) is None
    assert srp3.filtration_dim((0, 2), 4) == 1


def test_validation_witnesses():
    # a dangling edge breaks purity
    K = FilteredComplex(2, ["a", "b", "c", "d"], [2, 2, 2, 2],
                        [(0, 1, 2), (2, 3)])
    report = K.validate()
    failed = dict(report.failures())
    assert "purity" in failed
    assert failed["purity"] == ("c", "d")
    # suspension of s0 has its two original points at stratum 1 = n-1
    s0 = simplex_sphere(0)
    sus = suspension(s0)
    report2 = sus.validate()
    assert not report2.valid
    assert "no_codim_one" in dict(report2.failures())


def test_two_cofaces_check():
    # three triangles sharing one edge
    K = FilteredComplex(2, list("abcde"), [2] * 5,
                        [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    failed = dict(K.validate().failures())
    assert "two_cofaces" in failed
    assert failed["two_cofaces"] == (("a", "b"), "3 cofacets")


def test_singular_dimension_check():
    # three tetrahedron boundaries sharing the edge p q, with p and q at
    # stratum 0 of a 2-dimensional filtration: X_0 is that edge, of
    # dimension 1 > 0, and the walls on it escape the two_cofaces check
    K = FilteredComplex(2, list("pqabcdef"), [0, 0] + [2] * 6, [
        f for a, b in ((2, 3), (4, 5), (6, 7))
        for f in ((0, 1, a), (0, 1, b), (0, a, b), (1, a, b))])
    report = K.validate()
    failed = dict(report.failures())
    assert failed["singular_dimension"] == ("p", "q")
    assert "two_cofaces" not in failed
    assert not report.valid
    # an edge at stratum 1 of a 3-dimensional filtration is allowed
    edge = FilteredComplex(3, list("pqabcd"), [1, 1] + [3] * 4, [
        (0, 1, 2, 3), (0, 1, 3, 4), (0, 1, 4, 5), (0, 1, 2, 5)])
    assert "singular_dimension" not in dict(edge.validate().failures())


def test_parse_complex():
    text = """
    # an interval filtered by an endpoint
    dim 1
    vertex p stratum 0
    vertex a stratum 1
    vertex b stratum 1
    facet p a
    facet a b
    """
    K = parse_complex(text)
    assert K.n == 1
    assert K.vertex_names == ["p", "a", "b"]
    assert K.strata == [0, 1, 1]
    assert K.f_vector() == (3, 2)


def test_parse_complex_errors():
    with pytest.raises(ValueError, match="dim"):
        parse_complex("vertex a stratum 0\nfacet a")
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_complex("dim 1\nvertex a stratum 1\nfacet a b")
    with pytest.raises(ValueError, match="refinement"):
        parse_complex("dim 1\nvertex a stratum 1\nvertex p stratum 0\nfacet p a")
    with pytest.raises(ValueError, match="duplicate"):
        parse_complex("dim 1\nvertex a stratum 0\nvertex a stratum 1\nfacet a a")
    with pytest.raises(ValueError, match="^line 1: dimension 'x'"):
        parse_complex("dim x\nvertex a stratum 1\nfacet a")
    with pytest.raises(ValueError, match="^line 2: stratum 'x'"):
        parse_complex("dim 1\nvertex a stratum x\nfacet a")
    with pytest.raises(ValueError,
                       match=r"^line 5: second 'dim' line \(first on line 1\)$"):
        parse_complex("dim 1\nvertex a stratum 1\nvertex b stratum 1\n"
                      "facet a b\ndim 5")
    with pytest.raises(ValueError, match="^line 4: facet has no vertex$"):
        parse_complex("dim 1\nvertex a stratum 1\nvertex b stratum 1\n"
                      "facet\nfacet a b")


def test_parse_complex_checks_each_stratum_at_its_line():
    with pytest.raises(ValueError, match=r"^line 2: stratum 5 outside 0\.\.2$"):
        parse_complex("dim 2\nvertex a stratum 5\nvertex b stratum 2\n"
                      "facet a b")
    with pytest.raises(ValueError, match=r"^line 3: stratum 5 outside 0\.\.2$"):
        parse_complex("dim 2\nvertex b stratum 2\nvertex a stratum 5")
    with pytest.raises(ValueError, match="^line 1: dimension -1 is negative$"):
        parse_complex("dim -1\nvertex a stratum 2\nfacet a")
    # a dim line after the vertices checks them at their own lines
    with pytest.raises(ValueError, match=r"^line 2: stratum 3 outside 0\.\.1$"):
        parse_complex("vertex a stratum 0\nvertex b stratum 3\ndim 1\n"
                      "facet a b")


def test_parse_complex_names_a_repeated_facet_vertex():
    with pytest.raises(ValueError, match="^line 5: facet repeats vertex 'a'$"):
        parse_complex("dim 2\nvertex a stratum 2\nvertex b stratum 2\n"
                      "vertex c stratum 2\nfacet a a c")


def test_builtin_registry():
    assert builtin("s4").f_vector() == (6, 15, 20, 15, 6)
    assert builtin("cone:s2").n == 3
    assert builtin("susp:s2").n == 3
    assert str(builtin("susp:s2").homology(3, ZZ)) == "Z"
    assert builtin("rp3") is builtin("rp3")
    with pytest.raises(ValueError):
        builtin("nope")


def test_builtin_size_matches_the_built_space():
    for name in ("s0", "s3", "rp3", "sigma-rp3", "cone:s2", "susp:cone:s3",
                 "rp3-fine", "susp:rp3-fine"):
        assert builtin_size(name) == sum(builtin(name).f_vector()), name
    assert builtin_size("s40") == 2 ** 42 - 2
    assert builtin_size("susp:s40") == 3 * (2 ** 42 - 2) + 2
    assert builtin_size("s" + "9" * 30) == 2 ** 64
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_size("cone:nosuch")
