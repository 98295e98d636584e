"""Blown-up cochain complexes: tuples, differentials, perverse subcomplexes."""

import pytest

from ihomology.blowup import (LocalBlowup, blown_cap, blowup_complex,
                              cochain_embedding, cochain_embedding_induced,
                              cochain_embedding_terms, tuple_allowable,
                              tuple_degree, tuple_flatten, tuple_norm,
                              tw_cohomology, tw_comparison, tw_complex)
from ihomology.perversity import clip, gm_lattice, top, zero
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.snf import hermite_column_form


SUSP_PARTS = ((0,), (), (), (), (1, 2, 3, 4))


def test_tuple_degree_and_norm():
    b = (((0,), 0), ((), 1), ((), 1), ((), 1), ((1, 2), 0))
    assert tuple_degree(b) == 1
    # codimension 1..3 factors sit at the apex: no constraint
    assert tuple_norm(b, 1) is None
    assert tuple_norm(b, 2) is None
    assert tuple_norm(b, 3) is None
    # codimension 4 sees the degree of everything after factor 0
    assert tuple_norm(b, 4) == 1
    assert tuple_allowable(b, top(4))
    assert not tuple_allowable(b, zero(4))
    apex = (((0,), 1), ((), 1), ((), 1), ((), 1), ((1, 2), 0))
    assert tuple_norm(apex, 4) is None
    assert tuple_allowable(apex, zero(4))


def test_embedding_terms_vertex():
    # a singular vertex cones off and picks up every tail choice
    sign, terms = cochain_embedding_terms((0,), SUSP_PARTS)
    assert sign == 1
    assert sorted(terms) == sorted(
        (((0,), 0), ((), 1), ((), 1), ((), 1), ((a,), 0)) for a in (1, 2, 3, 4))


def test_embedding_terms_regular_face():
    # a face meeting the top stratum has one term and no tail
    sign, terms = cochain_embedding_terms((0, 1, 2), SUSP_PARTS)
    assert sign == -1
    assert terms == [(((0,), 1), ((), 1), ((), 1), ((), 1), ((1, 2), 0))]
    sign, terms = cochain_embedding_terms((1, 3), SUSP_PARTS)
    assert sign == 1
    assert terms == [(((), 1), ((), 1), ((), 1), ((), 1), ((1, 3), 0))]


def test_tuple_flatten():
    assert tuple_flatten(
        (((0,), 1), ((), 1), ((), 1), ((), 1), ((1, 2), 0))) == (0, 1, 2)
    # a positive-degree factor past the first apex-free one collapses
    assert tuple_flatten(
        (((0,), 0), ((), 1), ((), 1), ((), 1), ((1, 2), 0))) is None
    assert tuple_flatten(
        (((0,), 0), ((), 1), ((), 1), ((), 1), ((2,), 0))) == (0,)


def test_blown_cap_cases():
    b = (((0,), 0), ((), 1), ((), 1), ((), 1), ((1, 2), 0))
    out = blown_cap(b, SUSP_PARTS)
    assert out == (-1, (((0,), 1), ((), 1), ((), 1), ((), 1), ((2, 3, 4), 0)))
    full = (((0,), 1), ((), 1), ((), 1), ((), 1), ((1, 2, 3, 4), 0))
    assert blown_cap(full, SUSP_PARTS) == (
        -1, (((), 1), ((), 1), ((), 1), ((), 1), ((4,), 0)))
    # (1,3) is not a front face of (1,2,3,4)
    bad = (((0,), 0), ((), 1), ((), 1), ((), 1), ((1, 3), 0))
    assert blown_cap(bad, SUSP_PARTS) is None


def test_local_blowup_squares_to_zero():
    lb = LocalBlowup(((0, 1), (), (2,), (), (3, 4)))
    for k in range(lb.top):
        assert (lb.differential(k + 1) @ lb.differential(k)).is_zero()


def test_tuple_counts_sphere(s4):
    # trivial filtration: tuples are ordinary cochains
    B = blowup_complex(s4)
    assert [B.dim(k) for k in range(5)] == [6, 15, 20, 15, 6]


def test_tuple_counts_suspension(sigma_rp3):
    # heads (empty,1) / (apex,0) / (apex,1) give 3 f_k + 2 f_{k-1} tuples
    # from the rp3 face counts (40, 232, 384, 192)
    B = blowup_complex(sigma_rp3)
    assert [B.dim(k) for k in range(5)] == [120, 776, 1616, 1344, 384]


def test_global_coboundary_squares_to_zero(sigma_rp3):
    B = blowup_complex(sigma_rp3)
    for k in range(5):
        assert (B.differential(k + 1) @ B.differential(k)).is_zero()


def test_tw_cohomology_sphere_all_perversities(s4):
    # no singular strata: every perversity gives the sphere cohomology
    for p in gm_lattice(4):
        groups = [str(tw_cohomology(s4, p, ZZ, k)) for k in range(5)]
        assert groups == ["Z", "0", "0", "0", "Z"]


def test_tw_cohomology_suspension_integers(sigma_rp3):
    z = [str(tw_cohomology(sigma_rp3, zero(4), ZZ, k)) for k in range(5)]
    assert z == ["Z", "0", "0", "Z/2", "Z"]
    c = [str(tw_cohomology(sigma_rp3, clip(1, 4), ZZ, k)) for k in range(5)]
    assert c == ["Z", "0", "0", "Z/2", "Z"]
    t = [str(tw_cohomology(sigma_rp3, top(4), ZZ, k)) for k in range(5)]
    assert t == ["Z", "0", "Z/2", "0", "Z"]


def test_tw_cohomology_suspension_rationals(sigma_rp3):
    groups = [str(tw_cohomology(sigma_rp3, zero(4), QQ, k)) for k in range(5)]
    assert groups == ["Q", "0", "0", "0", "Q"]


def test_tw_cohomology_suspension_mod2(sigma_rp3):
    # over Z/2 the universal coefficients ranks of H^*(suspension rp3)
    # are (1, 0, 1, 1, 1)
    dims = [tw_cohomology(sigma_rp3, zero(4), Zmod(2), k).free_rank
            for k in range(5)]
    assert dims == [1, 0, 1, 1, 1]


def test_tw_rejects_composite_modulus(sigma_rp3):
    with pytest.raises(ValueError):
        tw_complex(sigma_rp3, zero(4), Zmod(6))


def test_embedding_is_chain_map(s4, rp3, sigma_rp3):
    # a chain map into the whole blown-up complex, whatever the perversity
    for space in (s4, rp3, sigma_rp3):
        for ring in (ZZ, QQ):
            cochain_embedding(space, ring).verify()


def test_embedding_induces_isomorphism(sigma_rp3):
    # ordinary cohomology is the zero-perversity blown-up cohomology
    for k in range(5):
        ind = cochain_embedding_induced(sigma_rp3, zero(4), ZZ, k)
        assert ind.is_isomorphism()


def test_embedding_identity_on_trivial_filtration(s4):
    # with no singular strata the embedding is a permutation matrix
    B = blowup_complex(s4)
    for k in range(5):
        M = B.embedding_matrix(k)
        assert M.nrows == M.ncols == len(s4.simplices(k))
        cols = M.columns()
        seen_rows = set()
        for j in range(M.ncols):
            col = cols.get(j, {})
            assert list(col.values()) == [1]
            seen_rows.update(col)
        assert seen_rows == set(range(M.nrows))


def test_per_simplex_embedding_matches_kernel(sigma_rp3):
    """One regular simplex per join profile: the embedding image equals
    the zero-perversity subcomplex as a lattice."""
    X = sigma_rp3
    profiles = {}
    for k in range(X.n + 1):
        for s in X.simplices(k):
            if not X.is_regular(s):
                continue
            parts = X.join_decomposition(s).parts
            profiles.setdefault(tuple(len(P) for P in parts), parts)
    assert len(profiles) == 8
    p = zero(X.n)
    for parts in profiles.values():
        lb = LocalBlowup(parts)
        m = sum(len(P) for P in parts)
        for k in range(m):
            M, faces = lb.cochain_embedding_matrix(k)
            image = hermite_column_form(M)
            kernel = lb.perverse_kernel(k, p)
            assert image.to_lists() == kernel.to_lists()
            assert image.ncols == len(faces)


def test_tw_comparison_maps(sigma_rp3):
    iso_00 = tw_comparison(sigma_rp3, zero(4), top(4), ZZ, 0)
    assert iso_00.is_isomorphism()
    iso_44 = tw_comparison(sigma_rp3, zero(4), top(4), ZZ, 4)
    assert iso_44.is_isomorphism()
    # torsion moves from degree 3 to degree 2 across the lattice
    drop = tw_comparison(sigma_rp3, zero(4), top(4), ZZ, 3)
    assert drop.source.iso_type() == (0, (2,))
    assert drop.target.is_trivial()
    assert not drop.is_isomorphism()
    gain = tw_comparison(sigma_rp3, zero(4), top(4), ZZ, 2)
    assert gain.source.is_trivial()
    assert gain.target.iso_type() == (0, (2,))
    assert not gain.is_isomorphism()
    with pytest.raises(ValueError):
        tw_comparison(sigma_rp3, top(4), zero(4), ZZ, 0)
