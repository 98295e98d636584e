import random
from itertools import product
from math import gcd

import pytest

from ihomology import cli, filtered
from ihomology.blowup import blowup_complex, tw_complex
from ihomology.cap import _build_ascending
from ihomology.complexes import PresentedComplex, homology_of
from ihomology.filtered import FilteredComplex, builtin
from ihomology.intersection import (allowable_indices, chain_memo,
                                    cohomology, comparison_map,
                                    gm_cohomology, inclusion_map,
                                    intersection_homology, is_allowable,
                                    perverse_complex)
from ihomology.matrices import Matrix
from ihomology.perversity import Perversity, clip, gm_lattice, top, zero
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.snf import hermite_column_form, kernel
from ihomology.spaces import (barycentric_subdivision, cone, projective_space,
                              simplex_sphere, suspension)


def test_allowability_on_suspension(sigma_rp3):
    K = sigma_rp3
    cone_edge = next(s for s in K.simplices(1) if s[0] == 0)
    cone_tri = next(s for s in K.simplices(2) if s[0] == 0)
    body_tri = next(s for s in K.simplices(2) if K.stratum(s[0]) == 4)
    # an edge through an apex is never allowable at these perversities:
    # its apex part has dimension 0, far above k - 4 + p(4)
    assert not is_allowable(K, cone_edge, zero(4))
    assert not is_allowable(K, cone_edge, top(4))
    # a triangle through an apex needs p(4) = 2
    assert not is_allowable(K, cone_tri, zero(4))
    assert not is_allowable(K, cone_tri, clip(1, 4))
    assert is_allowable(K, cone_tri, top(4))
    # simplices away from the apexes are always allowable
    assert is_allowable(K, body_tri, zero(4))
    # top simplices meet the apex in dimension 0 = k - 4 + 0: allowable
    assert all(is_allowable(K, s, zero(4)) for s in K.simplices(4))


def test_allowable_counts(sigma_rp3):
    K = sigma_rp3
    # body simplices: 40, 232, 384, 192; cone simplices: two per body face
    assert len(allowable_indices(K, 0, zero(4))) == 40
    assert len(allowable_indices(K, 1, zero(4))) == 232
    assert len(allowable_indices(K, 2, top(4))) == 848
    assert len(allowable_indices(K, 1, top(4))) == 232
    assert len(allowable_indices(K, 4, zero(4))) == 384


def test_trivial_filtration_recovers_homology(s4):
    for p in gm_lattice(4):
        for k in range(5):
            ih = intersection_homology(s4, p, ZZ, k)
            assert ih.iso_type() == s4.homology(k, ZZ).iso_type()


def test_ih_sigma_rp3_integers(sigma_rp3):
    expect = [
        (zero(4), ["Z", "Z/2", "0", "0", "Z"]),
        (clip(1, 4), ["Z", "Z/2", "0", "0", "Z"]),
        (top(4), ["Z", "0", "Z/2", "0", "Z"]),
    ]
    for p, groups in expect:
        for k, g in enumerate(groups):
            ih = intersection_homology(sigma_rp3, p, ZZ, k)
            assert str(ih) == g, (str(p), k, str(ih))


def test_ih_sigma_rp3_rationals(sigma_rp3):
    for p in (zero(4), top(4)):
        for k, g in enumerate(["Q", "0", "0", "0", "Q"]):
            ih = intersection_homology(sigma_rp3, p, QQ, k)
            assert str(ih) == g, (str(p), k)


def test_ih_sigma_rp3_mod2(sigma_rp3):
    dims = [1, 1, 1, 0, 1]
    for k, d in enumerate(dims):
        ih = intersection_homology(sigma_rp3, zero(4), Zmod(2), k)
        assert ih.iso_type() == (d, ()), k


def test_ih_sigma_rp3_mod4(sigma_rp3):
    # composite coefficients exercise the lattice route; the suspension
    # formula over Z/4 uses H_*(rp3; Z/4) = (Z/4, Z/2, Z/2, Z/4)
    expect = [(1, ()), (0, (2,)), (0, (2,)), (0, ()), (1, ())]
    for k, t in enumerate(expect):
        ih = intersection_homology(sigma_rp3, zero(4), Zmod(4), k)
        assert ih.iso_type() == t, k


def test_rp3_homology_mod4(rp3):
    # sanity for the coefficients used above
    types = [rp3.homology(k, Zmod(4)).iso_type() for k in range(4)]
    assert types == [(1, ()), (0, (2,)), (0, (2,)), (1, ())]


def test_cone_formula(rp3):
    c = cone(rp3)
    for k, g in enumerate(["Z", "Z/2", "0", "0", "0"]):
        assert str(intersection_homology(c, zero(4), ZZ, k)) == g, k
    for k, g in enumerate(["Z", "0", "0", "0", "0"]):
        assert str(intersection_homology(c, top(4), ZZ, k)) == g, k


def test_comparison_map_zero_to_one(sigma_rp3):
    f = comparison_map(sigma_rp3, zero(4), clip(1, 4), ZZ, 1)
    assert f.source.iso_type() == (0, (2,))
    assert f.target.iso_type() == (0, (2,))
    assert f.is_isomorphism()


def test_comparison_map_zero_to_top_integers(sigma_rp3):
    f1 = comparison_map(sigma_rp3, zero(4), top(4), ZZ, 1)
    assert not f1.is_isomorphism()
    f2 = comparison_map(sigma_rp3, zero(4), top(4), ZZ, 2)
    assert not f2.is_isomorphism()
    for k in (0, 3, 4):
        assert comparison_map(sigma_rp3, zero(4), top(4), ZZ, k).is_isomorphism()


def test_comparison_map_zero_to_top_rationals(sigma_rp3):
    for k in range(5):
        f = comparison_map(sigma_rp3, zero(4), top(4), QQ, k)
        assert f.is_isomorphism(), k


def test_comparison_requires_order(sigma_rp3):
    with pytest.raises(ValueError):
        comparison_map(sigma_rp3, top(4), zero(4), ZZ, 1)


def test_rank_monotone_in_perversity(sigma_rp3):
    lat = gm_lattice(4)
    for p in lat:
        for q in lat:
            if p <= q:
                Cp = perverse_complex(sigma_rp3, p, ZZ)
                Cq = perverse_complex(sigma_rp3, q, ZZ)
                for k in range(5):
                    assert Cp.rank(k) <= Cq.rank(k)


def test_ordinary_cohomology(sigma_rp3):
    for k, g in enumerate(["Z", "0", "0", "Z/2", "Z"]):
        assert str(cohomology(sigma_rp3, ZZ, k)) == g, k


def negated_cochains(K, R):
    """The cochains of K over R as a complex whose differential lowers
    the degree: degree k at -k, with the transposed boundaries."""
    top = K.top_dim()
    return PresentedComplex(
        R, {-k: len(K.simplices(k)) for k in range(top + 1)},
        {1 - k: K.boundary_matrix(k, R).transpose()
         for k in range(1, top + 1)})


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(4)], ids=str)
@pytest.mark.parametrize("name", ["s4", "rp3", "sigma-rp3", "cone:rp3"])
def test_cohomology_is_the_homology_at_negated_degrees(name, R):
    # the step +1 groups of the cochain memo against the cochains
    # presented at negated degrees, group by group from the top degree
    # down: the same orders and the same cycle basis
    K = builtin(name)
    C = negated_cochains(K, R)
    n = K.top_dim()
    for k in range(n, -1, -1):
        H, G = cohomology(K, R, k), C.homology(-k)
        assert H.orders == G.orders, k
        assert H.cycles == G.cycles, k
        assert cohomology(K, R, k) is H
    for k in (-2, -1, n + 1, n + 2):
        assert cohomology(K, R, k).is_trivial()


def test_gm_cohomology_degree3(sigma_rp3):
    assert str(gm_cohomology(sigma_rp3, clip(2, 4), ZZ, 3)) == "Z/2"
    assert gm_cohomology(sigma_rp3, clip(1, 4), ZZ, 3).is_trivial()
    assert gm_cohomology(sigma_rp3, zero(4), ZZ, 3).is_trivial()


def test_gm_cohomology_rejects_composite(sigma_rp3):
    from ihomology.intersection import gm_cochain_complex
    with pytest.raises(ValueError):
        gm_cochain_complex(sigma_rp3, zero(4), Zmod(4))


def test_class_coords_and_equality(sigma_rp3):
    H = perverse_complex(sigma_rp3, zero(4), ZZ).homology(1)
    assert len(H.reps) == 1
    g = H.reps[0]
    assert H.coords(g) == (1,)
    doubled = {i: 2 * v for i, v in g.items()}
    assert H.coords(doubled) == (0,)
    assert H.coords(doubled) == H.coords({})


def test_comparison_map_over_composite_modulus():
    # the lattice path of Z/4 through the shared inclusion map
    K = suspension(projective_space(3, 1))
    want = [("(Z/4)", "(Z/4)", True), ("Z/2", "0", False),
            ("0", "Z/2", False), ("Z/2", "Z/2", True)]
    for k, (src, dst, iso) in enumerate(want):
        beta = comparison_map(K, zero(3), top(3), Zmod(4), k)
        assert (str(beta.source), str(beta.target)) == (src, dst), k
        assert beta.is_isomorphism() == iso, k


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(5)], ids=["Z", "Q", "Z5"])
def test_perverse_bases_are_canonical(sigma_rp3, R):
    # a canonical kernel placed on ascending columns is already in the
    # echelon form of hermite_column_form, for chains and blown-up cochains
    bases = []
    for p in (zero(4), top(4)):
        bases += perverse_complex(sigma_rp3, p, R).bases.values()
    bases += tw_complex(sigma_rp3, zero(4), R).bases.values()
    for B in bases:
        assert hermite_column_form(B) == B


@pytest.mark.parametrize("R", [QQ, Zmod(3), ZZ], ids=["Q", "Z3", "Z"])
def test_perverse_homology_matches_invariant_factors(sigma_rp3, R):
    # the (co)homology in full coordinates, against the invariant factors
    # of the differentials presented in the perverse bases, with no cycle
    # basis and no solve, for perverse chains and blown-up cochains
    for p in gm_lattice(4):
        for P in (perverse_complex(sigma_rp3, p, R),
                  tw_complex(sigma_rp3, p, R)):
            C = P.complex
            for k in range(5):
                d = -P.step * k
                H = homology_of(C.boundary(d), C.boundary(d + 1))
                assert P.homology(k).build().iso_type() == H.iso_type(), (
                    p, P.step, k)


def primary_parts(orders):
    """Prime-power orders of the cyclic summands of a finite group."""
    out = []
    for o in orders:
        p = 2
        while o > 1:
            q = 1
            while o % p == 0:
                o //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def test_ih_mod_six_is_mod_two_plus_mod_three(sigma_rp3):
    # Chinese remainder: IH over Z/6 splits as IH over Z/2 plus IH over Z/3
    for p in gm_lattice(4):
        for k in range(5):
            H6 = intersection_homology(sigma_rp3, p, Zmod(6), k)
            d2 = intersection_homology(sigma_rp3, p, Zmod(2), k).free_rank
            d3 = intersection_homology(sigma_rp3, p, Zmod(3), k).free_rank
            assert primary_parts(H6.orders) == [2] * d2 + [3] * d3, (p, k)


@pytest.mark.parametrize("m", [4, 6])
def test_homology_mod_m_by_universal_coefficients(sigma_rp3, m):
    # H_k(Z/m) = H_k (x) Z/m + Tor(H_{k-1}, Z/m), from the integral groups
    got = []
    for k in range(5):
        H = sigma_rp3.homology(k, ZZ)
        tor = sigma_rp3.homology(k - 1, ZZ).torsion if k else []
        want = [m] * H.free_rank + [gcd(d, m) for d in H.torsion + tor]
        Hm = sigma_rp3.homology(k, Zmod(m))
        assert primary_parts(Hm.orders) == primary_parts(want), k
        got.append(str(Hm))
    if m == 4:
        assert got == ["(Z/4)", "0", "Z/2", "Z/2", "(Z/4)"]


def test_ih_mod_four_is_subdivision_invariant():
    K = suspension(projective_space(3, 1))
    sd = barycentric_subdivision(K)
    assert sum(len(sd.simplices(k)) for k in range(4)) == 5049
    for p in gm_lattice(3):
        for k in range(4):
            assert str(intersection_homology(sd, p, Zmod(4), k)) == str(
                intersection_homology(K, p, Zmod(4), k)), (p, k)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(5), Zmod(4)], ids=str)
def test_inclusion_map_matches_per_column_construction(sigma_rp3, ring):
    # in full coordinates a chain keeps its vector across the inclusion,
    # so the image of seeded combinations of source generators, read off
    # the induced map, must be the target coordinates of the same chain;
    # coefficients up to 5 exceed the Z/2 orders, so the image must reduce
    rng = random.Random(7)
    src = perverse_complex(sigma_rp3, zero(4), ring)
    reduced = 0
    for k, q in product(range(5), (clip(1, 4), top(4))):
        beta = inclusion_map(src, perverse_complex(sigma_rp3, q, ring), k)
        reps = beta.source.reps
        for _ in range(6 if reps else 0):
            c = [rng.randrange(-5, 6) for _ in reps]
            chain = {}
            for a, rep in zip(c, reps):
                for i, v in rep.items():
                    chain[i] = ring.add(chain.get(i, ring.zero),
                                        ring.mul(ring.el(a), v))
            chain = {i: v for i, v in chain.items() if not ring.is_zero(v)}
            assert beta.source.coords(chain) == tuple(
                ring.el(a) % o if o else ring.el(a)
                for a, o in zip(c, beta.source.orders))
            assert beta.image(c) == beta.target.coords(chain), (k, c)
            raw = [sum(a * im[j] for a, im in zip(c, beta.image_coords))
                   for j in range(len(beta.target.orders))]
            reduced += any(o and not 0 <= r < o
                           for r, o in zip(raw, beta.target.orders))
    assert reduced or ring.is_field
    with pytest.raises(AssertionError, match="not nested"):
        inclusion_map(perverse_complex(sigma_rp3, top(4), ring), src, 2)


def contains_by_definition(P, k, M):
    """PerverseSubcomplex.contains as defined, the image always formed."""
    return (set(P.allowable(k)).issuperset(M.rows)
            and set(P.allowable(k + P.step)).issuperset(
                (P.differential(k) @ M).rows))


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["Z", "Q"])
def test_contains_is_the_full_product_definition(ring):
    # each perverse basis, and seeded random columns: combinations of
    # allowable elements, whose image may leave the allowable set, and
    # single entries anywhere, which may leave it themselves
    rng = random.Random(25)
    seen = set()
    for name in ("s4", "rp3", "sigma-rp3", "cone:rp3"):
        K = builtin(name)
        for p in (zero(K.n), clip(1, K.n), top(K.n)):
            for P in (perverse_complex(K, p, ring), tw_complex(K, p, ring)):
                for k, basis in P.bases.items():
                    ok, dim = P.allowable(k), P.dim(k)
                    columns = [{i: ring.el(rng.choice([-2, -1, 1, 3]))
                                for i in rng.sample(ok, min(3, len(ok)))}
                               for _ in range(4) if ok]
                    columns += [{rng.randrange(dim): ring.one}
                                for _ in range(4) if dim]
                    for M in [basis] + [Matrix.from_columns(ring, dim, [c])
                                        for c in columns]:
                        want = contains_by_definition(P, k, M)
                        assert P.contains(k, M) == want, \
                            (name, str(p), P.step, k)
                        t = k + P.step
                        seen.add((len(P.allowable(t)) == P.dim(t), want))
    # the shortcut where every element of degree k + step is allowable,
    # and the product on a proper allowable set, both ways
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


# The memo of bases and groups.  These build fresh spaces, so that no
# other test has filled the memo first.

def fresh_sigma_rp3():
    return suspension(projective_space(4))


def test_groups_are_shared_exactly_when_allowable_sets_agree():
    # a chain group depends on the allowable sets of degrees k and k + 1,
    # a blown-up cochain group on those of degrees k and k - 1
    X = fresh_sigma_rp3()
    B = blowup_complex(X)
    lattice = gm_lattice(4)
    cases = [
        (lambda p, k: intersection_homology(X, p, ZZ, k),
         lambda k, p: allowable_indices(X, k, p), 1),
        (lambda p, k: tw_complex(X, p, QQ).homology(k),
         B.allowable_indices, -1),
    ]
    shared = apart = 0
    for group, allowable, j in cases:
        for p, q in product(lattice, repeat=2):
            for k in range(5):
                same = all(tuple(allowable(d, p)) == tuple(allowable(d, q))
                           for d in (k, k + j))
                assert (group(p, k) is group(q, k)) == same, (p, q, k, j)
                if p != q:
                    shared += same
                    apart += not same
    assert shared and apart


def test_classical_homology_is_the_perverse_group():
    # every simplex of a manifold is allowable, so H_k is the
    # intersection homology group of every perversity, whichever is
    # computed first
    X, Y = projective_space(4), projective_space(4)
    for k in range(4):
        H = X.homology(k, ZZ)
        G = [intersection_homology(Y, p, ZZ, k) for p in gm_lattice(3)]
        assert all(intersection_homology(X, p, ZZ, k) is H
                   for p in gm_lattice(3)), k
        assert all(g is Y.homology(k, ZZ) for g in G), k
    assert [str(X.homology(k, ZZ)) for k in range(4)] == [
        "Z", "Z/2", "0", "Z"]


def test_rings_never_share_a_group():
    X = fresh_sigma_rp3()
    seen = {}
    for R in (ZZ, QQ, Zmod(4)):
        for k in range(5):
            groups = [X.homology(k, R)] + [
                intersection_homology(X, p, R, k) for p in gm_lattice(4)]
            for G in groups:
                assert seen.setdefault(id(G), R) is R, (k, R)


def lattice_snapshot(X, group, perversities):
    out = {}
    for p in perversities:
        for k in range(5):
            H = group(X, p, k)
            out[p.values, k] = (str(H), H.reps,
                                [H.coords(rep) for rep in H.reps])
    return out


@pytest.mark.parametrize("group", [
    lambda X, p, k: intersection_homology(X, p, ZZ, k),
    lambda X, p, k: intersection_homology(X, p, Zmod(4), k),
    lambda X, p, k: tw_complex(X, p, QQ).homology(k),
], ids=["chains-Z", "chains-Z4", "tw-Q"])
def test_lattice_order_does_not_change_groups(group):
    # a shared group is built by whichever perversity asks first; it must
    # not depend on which one that is
    lattice = gm_lattice(4)
    up = lattice_snapshot(fresh_sigma_rp3(), group, lattice)
    down = lattice_snapshot(fresh_sigma_rp3(), group, lattice[::-1])
    assert up == down


# Cycle bases decided on the pivot rows of the group one degree down.

FRESH_SPACES = {"s4": lambda: simplex_sphere(4),
                "rp3": lambda: projective_space(4),
                "sigma-rp3": fresh_sigma_rp3}


def cycles_on_every_row(K, key, ring):
    """The cycle basis under a ("basis", k, cols, None) key of the chain
    memo, from kernel() on every row of the boundary, in full
    coordinates."""
    _, k, cols, _ = key
    D = K.boundary_matrix(k, ring)
    ker = kernel(D.submatrix(range(D.nrows), cols))
    return Matrix(ring, D.ncols, ker.ncols,
                  {cols[i]: dict(r) for i, r in ker.rows.items()})


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(3), Zmod(4)], ids=str)
@pytest.mark.parametrize("space", sorted(FRESH_SPACES))
def test_pruned_cycle_bases_are_the_kernel_on_every_row(space, ring):
    # whatever order the degrees come in, and for the perverse cycles on
    # every allowable set, with the chain groups built before some of
    # them and after the others, each memoised cycle basis is the kernel
    # of the whole boundary; so is each cycle basis of the cochains,
    # whose groups are asked for from the top degree down
    n = FRESH_SPACES[space]().top_dim()
    shuffled = list(range(n + 1))
    random.Random(61).shuffle(shuffled)
    for order in (range(n + 1), range(n, -1, -1), shuffled):
        K = FRESH_SPACES[space]()
        lattice = gm_lattice(K.n) if order is shuffled else []
        for p in lattice[::2]:
            for k in order:
                intersection_homology(K, p, ring, k).build()
        for k in order:
            K.homology(k, ring).build()
        for p in lattice[1::2]:
            for k in order:
                intersection_homology(K, p, ring, k).build()
        memo = chain_memo(K, ring)
        keys = [key for key in memo if key[0] == "basis" and key[3] is None]
        assert len(keys) >= n + 1
        for key in keys:
            assert memo[key] == cycles_on_every_row(K, key, ring), key[:2]
    for d in range(n, -1, -1):
        H = cohomology(K, ring, d)
        if H.cycles is not None:
            assert H.cycles == kernel(K.coboundary_matrix(d, ring)), d


def test_cycles_are_eliminated_on_the_pivot_rows_below(monkeypatch, patch_snf,
                                                       capsys):
    # homology over Z builds no group, so it computes no kernel; over Z/4
    # it builds every group in ascending degree, and each boundary is
    # eliminated only on the pivot rows of the cycle basis one degree
    # down, 3821 of its 4708 rows (the relations kernel(Z) included).
    # Each build decides the cycle basis one degree up, for its
    # clearing, before the relations of its own basis, so after the
    # first pair each pair of rows comes in that order.  Both verify
    # drivers build every memo's groups in pruning order: 3818 rows for
    # zero-top over Q, and 9635 for factorization, whose blown-up cycle
    # bases are now pruned too (11826 before, when they took every row)
    rows = []

    def recording(M):
        rows.append(len(M.rows))
        return kernel(M)
    patch_snf("kernel", recording)
    monkeypatch.setattr(cli, "builtin", lambda name: fresh_sigma_rp3())
    assert cli.main(["homology", "--builtin", "sigma-rp3"]) == 0
    assert rows == []
    rows.clear()
    assert cli.main(["homology", "--builtin", "sigma-rp3",
                     "--degree", "4"]) == 0
    assert rows == []
    assert capsys.readouterr().out == "0: Z\n1: 0\n2: Z/2\n3: 0\n4: Z\nZ\n"
    rows.clear()
    assert cli.main(["homology", "--builtin", "sigma-rp3",
                     "--coeffs", "Zmod:4"]) == 0
    assert rows == [42, 42, 271, 312, 578, 848, 384, 960, 384]
    rows.clear()
    assert cli.main(["verify", "factorization", "--builtin", "sigma-rp3"]) == 0
    assert sum(rows) == 9635
    rows.clear()
    assert cli.main(["verify", "zero-top", "--builtin", "sigma-rp3",
                     "--coeffs", "Q"]) == 0
    assert sum(rows) == 3818


def test_the_fundamental_class_needs_no_kernel_after_the_ascending_build(
        monkeypatch, count_calls, capsys):
    # the class is the cycle basis of H_4: after _build_ascending it is
    # read, not eliminated, and both drivers read it only then; built
    # before, it costs one kernel on every row of d_4
    calls = count_calls(["kernel"])
    X = fresh_sigma_rp3()
    X.fundamental_class(ZZ)
    assert calls["kernel"] == 1
    X = fresh_sigma_rp3()
    _build_ascending(X, ZZ)
    calls["kernel"] = 0
    X.fundamental_class(ZZ)
    assert calls["kernel"] == 0
    inside = []
    real = FilteredComplex.fundamental_class

    def counted(self, ring):
        before = calls["kernel"]
        fc = real(self, ring)
        inside.append(calls["kernel"] - before)
        return fc
    monkeypatch.setattr(FilteredComplex, "fundamental_class", counted)
    monkeypatch.setattr(cli, "builtin", lambda name: fresh_sigma_rp3())
    # over Z the zero-top criteria fail on sigma-rp3, with exit 1
    for what, status in (("factorization", 0), ("zero-top", 1)):
        inside.clear()
        assert cli.main(["verify", what, "--builtin", "sigma-rp3"]) == status
        assert inside and set(inside) == {0}, what
    capsys.readouterr()


@pytest.mark.parametrize("coeffs", ["Z", "Q"])
def test_homology_needs_only_the_invariant_factors(coeffs, monkeypatch,
                                                    count_calls, capsys):
    # the orders of every group come from the invariant factors of the
    # four boundary matrices, each swept once: no cycle basis, no solve.
    # cli makes every group first, so the sweeps run from the top down
    # and each skips the columns the sweep above cleared: 1274 of the
    # 2504 columns are swept over Z (1273 over Q), with 1046 row
    # operations (1051), against 5802 (5848) uncleared
    calls = count_calls(["kernel", "hermite_solve", "invariant_factors",
                         "swept", "_axpy"])
    monkeypatch.setattr(cli, "builtin", lambda name: fresh_sigma_rp3())
    assert cli.main(["homology", "--builtin", "sigma-rp3",
                     "--coeffs", coeffs]) == 0
    assert capsys.readouterr().out == (
        "0: Z\n1: 0\n2: Z/2\n3: 0\n4: Z\n" if coeffs == "Z"
        else "0: Q\n1: 0\n2: 0\n3: 0\n4: Q\n")
    assert calls == {"kernel": 0, "hermite_solve": 0, "invariant_factors": 4,
                     "swept": 1274 if coeffs == "Z" else 1273,
                     "_axpy": 1046 if coeffs == "Z" else 1051}


def sweep_work(argv, monkeypatch, count_calls, capsys):
    """The vectors swept and the row operations of a fresh run of argv,
    over every sweep, kernels and groups included."""
    calls = count_calls(["swept", "_axpy"])
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    assert cli.main(argv) == 0
    capsys.readouterr()
    return calls["swept"], calls["_axpy"]


@pytest.mark.parametrize("argv, work", [
    # one group pulls nothing: the sweep of d_1 alone
    (["homology", "--builtin", "sigma-rp3", "--degree", "0"], (312, 543)),
], ids=["degree-0"])
def test_commands_without_clearing_keep_their_sweep_work(argv, work,
                                                         monkeypatch,
                                                         count_calls, capsys):
    assert sweep_work(argv, monkeypatch, count_calls, capsys) == work


@pytest.mark.parametrize("argv, work", [
    # a composite ring has no rule and builds in ascending degree, every
    # group made first: (6328, 27207) before the builds cleared
    (["homology", "--builtin", "sigma-rp3", "--coeffs", "Zmod:4"],
     (5097, 16835)),
    # the verify commands build their groups and never run the rule:
    # (3785, 11281) and (2316, 6256) before
    (["verify", "factorization", "--builtin", "rp3"], (2550, 2980)),
    (["verify", "zero-top", "--builtin", "rp3", "--coeffs", "Q"],
     (1698, 1902)),
], ids=["Z4", "factorization", "zero-top-Q"])
def test_cleared_builds_keep_their_sweep_work(argv, work, monkeypatch,
                                              count_calls, capsys):
    # each group built with the next degree's group made leaves out of
    # its sweep the boundary columns that group's cycles clear
    assert sweep_work(argv, monkeypatch, count_calls, capsys) == work


@pytest.mark.parametrize("R", [ZZ, QQ], ids=str)
def test_cochain_orders_need_only_the_invariant_factors(R, count_calls):
    # each of the four coboundaries is swept once, for the rank out of
    # one degree and the torsion of the next, and each group is made once
    calls = count_calls(["kernel", "hermite_solve", "invariant_factors"])
    K = fresh_sigma_rp3()
    orders = [cohomology(K, R, d).orders for d in range(4, -1, -1)]
    assert orders == ([[0], [2], [], [], [0]] if R is ZZ
                      else [[0], [], [], [], [0]])
    assert calls == {"kernel": 0, "hermite_solve": 0, "invariant_factors": 4}
    assert all(cohomology(K, R, d) is cohomology(K, R, d) for d in range(5))


@pytest.mark.slow
def test_homology_of_the_60k_model_builds_no_group(monkeypatch, count_calls,
                                                   capsys):
    calls = count_calls(["kernel", "hermite_solve"])
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    assert cli.main(["homology", "--builtin", "susp:rp3-fine"]) == 0
    assert capsys.readouterr().out == "0: Z\n1: 0\n2: Z/2\n3: 0\n4: Z\n"
    assert calls == {"kernel": 0, "hermite_solve": 0}


@pytest.mark.slow
def test_homology_of_the_181k_model(monkeypatch, count_calls, capsys):
    # susp:susp:rp3-fine, 181,160 simplices in dimension 5
    calls = count_calls(["kernel", "hermite_solve"])
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    assert cli.main(["homology", "--builtin", "susp:susp:rp3-fine"]) == 0
    assert capsys.readouterr().out == (
        "0: Z\n1: 0\n2: 0\n3: Z/2\n4: 0\n5: Z\n")
    assert calls == {"kernel": 0, "hermite_solve": 0}


@pytest.mark.slow
def test_ih_lattice_is_subdivision_invariant(sigma_rp3):
    # the 60k model is sigma-rp3 with its link subdivided once more, and
    # intersection homology of GM perversities is a topological invariant
    X = builtin("susp:rp3-fine")
    for p in gm_lattice(4):
        for k in range(5):
            assert str(intersection_homology(X, p, ZZ, k)) == str(
                intersection_homology(sigma_rp3, p, ZZ, k)), (p, k)
