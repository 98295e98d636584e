"""Blown-up cochain complexes: tuples, differentials, perverse subcomplexes."""

import copy
import random
from itertools import combinations, product

import pytest

from ihomology import blowup, cap, checks
from ihomology.blowup import (LocalBlowup, blown_cap, blowup_complex,
                              cochain_embedding, cochain_embedding_terms,
                              cone_faces, last_faces, tuple_allowable,
                              tuple_cofacets, tuple_degree, tuple_flatten,
                              tuple_norm, tw_cohomology, tw_comparison,
                              tw_complex)
from ihomology.cap import verify_factorization
from ihomology.complexes import InducedMap
from ihomology.filtered import FilteredComplex, parse_complex
from ihomology.intersection import cochain_complex
from ihomology.matrices import Matrix
from ihomology.perversity import clip, gm_lattice, top, zero
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.snf import hermite_column_form
from ihomology.spaces import projective_space, simplex_sphere, suspension


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
    # ordinary cohomology is the zero-perversity blown-up cohomology; the
    # embedding lands in the zero-perversity part, which sits inside
    # every GM perversity
    tw = tw_complex(sigma_rp3, zero(4), ZZ)
    C = cochain_complex(sigma_rp3, ZZ)
    B = blowup_complex(sigma_rp3)
    for k in range(5):
        M = B.embedding_matrix(k)
        assert tw.contains(k, M), k
        assert InducedMap(C.homology(-k), tw.homology(k),
                          M).is_isomorphism(), k


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


# --- one template per join shape, against the direct construction ---

def relabelled(K, seed):
    """K with its vertices shuffled inside each stratum, so that the
    vertex order still refines the stratum order."""
    rng = random.Random(seed)
    perm = list(range(K.vertex_count))
    for stratum in sorted(set(K.strata)):
        run = [v for v in perm if K.strata[v] == stratum]
        for v, w in zip(run, rng.sample(run, len(run))):
            perm[v] = w
    names = [None] * K.vertex_count
    for v, w in enumerate(perm):
        names[w] = K.vertex_names[v]
    return FilteredComplex(K.n, names, K.strata,
                           [[perm[v] for v in f] for f in K.facets])


def fresh_spaces(wedge_text):
    return {"s4": simplex_sphere(4),
            "rp3": projective_space(4),
            "sigma-rp3": suspension(projective_space(4)),
            "wedge": parse_complex(wedge_text),
            "sigma-rp3-relabelled": relabelled(
                suspension(projective_space(4)), 17)}


def direct_blowup(space):
    """The blown-up complex built simplex by simplex from the real join
    parts: the product of cone faces with tuple_cofacets for the
    coboundary, cochain_embedding_terms per face for the embedding, and
    blown_cap with tuple_flatten for the cap support of every regular
    simplex, as (global index of the tuple, sign, image simplex index).
    Rows and entries come in order of first arrival."""
    tops = [s for s in space.simplices(space.n) if space.is_regular(s)]
    parts_of = {s: space.join_decomposition(s).parts for s in tops}

    def made(parts):
        factors = [cone_faces(P) for P in parts[:-1]]
        return product(*factors, last_faces(parts[-1]))

    seen = {}
    for s in tops:
        for b in made(parts_of[s]):
            seen.setdefault(tuple_degree(b), set()).add(b)
    tuples = {k: sorted(v) for k, v in seen.items()}
    index = {b: (k, i) for k, tl in tuples.items() for i, b in enumerate(tl)}
    D, E = {}, {}
    for s in tops:
        parts = parts_of[s]
        for b in made(parts):
            k, j = index[b]
            for b2, sign in tuple_cofacets(b, parts):
                D.setdefault(k, {}).setdefault(index[b2][1], {})[j] = sign
        for r in range(1, len(s) + 1):
            for F in combinations(s, r):
                sign, terms = cochain_embedding_terms(F, parts)
                for t in terms:
                    E.setdefault(r - 1, {}).setdefault(
                        index[t][1], {})[space.index_of(F)] = sign
    support = {}
    for m in range(space.n + 1):
        for si, s in enumerate(space.simplices(m)):
            if not space.is_regular(s):
                continue
            parts = space.join_decomposition(s).parts
            opts = [[(P[:r + 1], 0) for r in range(len(P))]
                    + ([(P, 1)] if i < space.n else [])
                    for i, P in enumerate(parts)]
            sup = {}
            for b in product(*opts):
                sign, t = blown_cap(b, parts)
                G = tuple_flatten(t)
                if G is not None:
                    sup.setdefault(tuple_degree(b), []).append(
                        (index[b][1], sign, space.index_of(G)))
            support[m, si] = sup
    return tuples, index, D, E, support


def in_order(M):
    return M.nrows, M.ncols, [(i, list(r.items())) for i, r in M.rows.items()]


def test_templates_give_the_direct_construction(wedge_text):
    # every matrix equal to the direct one, rows and entries in the same
    # order, on every regular simplex of every degree
    for name, X in fresh_spaces(wedge_text).items():
        tuples, index, D, E, support = direct_blowup(X)
        B = blowup_complex(X)
        assert B.tuples == tuples and B.index == index, name
        for k in range(B.top + 1):
            want = Matrix(ZZ, B.dim(k + 1), B.dim(k), D.get(k, {}))
            assert in_order(B.differential(k)) == in_order(want), (name, k)
        for k in range(X.n + 1):
            want = Matrix(ZZ, B.dim(k), len(X.simplices(k)), E.get(k, {}))
            assert in_order(B.embedding_matrix(k)) == in_order(want), \
                (name, k)
        for (m, si), sup in support.items():
            got = {k: B.cap_terms(m, si, k) for k in range(m + 1)}
            assert {k: v for k, v in got.items() if v} == sup, (name, m, si)


@pytest.fixture
def built(monkeypatch):
    """Counts the LocalBlowup constructions from here on."""
    made = []

    class Counted(LocalBlowup):
        def __init__(self, parts):
            super().__init__(parts)
            made.append(self.parts)

    monkeypatch.setattr(blowup, "LocalBlowup", Counted)
    return made


def test_one_local_blowup_per_join_shape(built, wedge_text):
    X = suspension(projective_space(4))
    B = blowup_complex(X)
    for k in range(X.n + 1):
        B.embedding_matrix(k)
    cap._duality_caps(X, ZZ, True)
    assert len(built) == 1
    del built[:]
    W = parse_complex(wedge_text)
    B = blowup_complex(W)
    for k in range(W.n + 1):
        B.embedding_matrix(k)
    cap._duality_caps(W, ZZ, True)
    assert sorted(tuple(map(len, P)) for P in built) == [
        (0, 0, 3), (1, 0, 2)]
    # every join profile of a regular simplex of sigma-rp3, as counted by
    # test_per_simplex_embedding_matches_kernel
    del built[:]
    checks.check_chain_identity(suspension(projective_space(4)))
    assert len(built) == 8


def test_each_top_simplex_is_put_once(monkeypatch):
    # verify factorization looks up each regular top simplex's template
    # once and puts it once, for the basis, both glues and the blown caps
    puts, looked_up = [], []
    real_put, real_template = LocalBlowup.put, blowup.template
    monkeypatch.setattr(LocalBlowup, "put",
                        lambda self, s: puts.append(s) or real_put(self, s))
    monkeypatch.setattr(blowup, "template", lambda X, s: (
        looked_up.append(s) or real_template(X, s)))
    for X, count in ((projective_space(4), 192),
                     (suspension(projective_space(4)), 384)):
        del puts[:], looked_up[:]
        assert verify_factorization(X, ZZ).ok
        B = blowup_complex(X)
        assert len(B.tops) == count
        assert sorted(puts) == sorted(looked_up) == sorted(
            X.simplices(X.n)[si] for si in B.tops)


def flip_one(monkeypatch, space, kind):
    """Makes template() give the top simplex (p, a, b) of the wedge a copy
    of its template with one sign flipped, at an entry it shares with
    the top simplex (a, b, c): the coboundary from ((), 1), ((), 1),
    ((a,), 0) to the same with the edge (a, b), or the embedding of the
    edge (a, b)."""
    target = tuple(space.vertex_names.index(v) for v in "pab")
    real = blowup.template
    head = ((), 1), ((), 1)

    def flipped(X, s):
        T = real(X, s)
        if X is not space or tuple(s) != target:
            return T
        bad = copy.copy(T)
        if kind == "coboundary":
            k, j = T.index[head + (((1,), 0),)]
            i = T.index[head + (((1, 2), 0),)][1]
            M = T.differential(k)
            bad.differential = lambda d: (
                flip(M, i, j) if d == k else T.differential(d))
        else:
            k, i = T.index[head + (((1, 2), 0),)]
            M, faces = T.cochain_embedding_matrix(k)
            bad.cochain_embedding_matrix = lambda d: (
                (flip(M, i, faces.index((1, 2))), faces) if d == k
                else T.cochain_embedding_matrix(d))
        return bad

    def flip(M, i, j):
        assert M.rows[i][j]
        rows = {r: dict(row) for r, row in M.rows.items()}
        rows[i][j] = -rows[i][j]
        return Matrix(M.ring, M.nrows, M.ncols, rows)

    monkeypatch.setattr(blowup, "template", flipped)


@pytest.mark.parametrize("kind, message", [
    ("coboundary", "inconsistent blown-up coboundary"),
    ("embedding", "inconsistent embedding coefficients")])
def test_glue_checks_catch_a_flipped_local_sign(monkeypatch, wedge_text,
                                                kind, message):
    W = parse_complex(wedge_text)
    flip_one(monkeypatch, W, kind)
    with pytest.raises(AssertionError, match=message):
        B = blowup_complex(W)
        for k in range(W.n + 1):
            B.embedding_matrix(k)
