"""Cap products, duality chain maps, and the verification drivers."""

import random

import pytest

from ihomology import blowup, cli
from ihomology.blowup import (BlowupComplex, blown_cap, blowup_complex,
                              cochain_embedding_terms, tuple_flatten,
                              tw_complex)
import ihomology.cap as cap
from ihomology.cap import (check_zero_top, classical_duality,
                           classical_duality_induced, duality_map,
                           duality_sign, verify_factorization)
from ihomology.checks import (cap_bookkeeping_ok, check_chain_identity,
                              check_local_cap_factorization, classical_cap,
                              classical_cap_local, gm_demo,
                              intersection_cap, leibniz_holds)
from ihomology.filtered import parse_complex
from ihomology.intersection import (PerverseSubcomplex, comparison_map,
                                    perverse_complex)
from ihomology.matrices import Matrix
from ihomology.perversity import clip, gm_lattice, top, zero
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.spaces import projective_space, simplex_sphere, suspension


def test_classical_cap_local():
    assert classical_cap_local((0,), (0, 1, 2)) == (0, 1, 2)
    assert classical_cap_local((0, 1), (0, 1, 2)) == (1, 2)
    assert classical_cap_local((0, 1, 2), (0, 1, 2)) == (2,)
    assert classical_cap_local((1,), (0, 1, 2)) is None
    assert classical_cap_local((0, 2), (0, 1, 2)) is None


def test_duality_sign_period():
    assert [duality_sign(k) for k in range(8)] == [1, -1, -1, 1, 1, -1, -1, 1]


def test_local_cap_factorization_on_a_join():
    # one cone factor and a regular factor; runs through both the
    # coned and the empty-meets-the-singular-part cases
    parts = ((0, 1), (2, 3))
    simplex = (0, 1, 2, 3)
    from itertools import combinations
    for r in range(1, 5):
        for F in combinations(simplex, r):
            sign, terms = cochain_embedding_terms(F, parts)
            acc = {}
            for b in terms:
                res = blown_cap(b, parts)
                if res is None:
                    continue
                s2, t = res
                G = tuple_flatten(t)
                if G is None:
                    continue
                acc[G] = acc.get(G, 0) + sign * s2
            acc = {G: v for G, v in acc.items() if v}
            back = classical_cap_local(F, simplex)
            assert acc == ({back: 1} if back is not None else {}), F


def test_local_cap_factorization_exhaustive(s4, sigma_rp3):
    assert check_local_cap_factorization(s4) == 602
    assert check_local_cap_factorization(sigma_rp3) == 33216


def test_chain_identity_exhaustive(s4, sigma_rp3):
    # embedded cochains cap exactly like the originals, on every
    # (cochain, simplex) pair; counts are (number of simplices)^2
    assert check_chain_identity(s4) == 62 * 62
    assert check_chain_identity(sigma_rp3) == 2546 * 2546


def test_unit_cochain_caps_to_fundamental_class(s4):
    B = blowup_complex(s4)
    unit = {b: 1 for b in B.tuples[0]}
    fc = s4.fundamental_class(ZZ)
    assert intersection_cap(s4, ZZ, 0, unit, 4, fc) == fc


def test_cap_of_non_front_face_is_zero(s4):
    b = (((), 1), ((), 1), ((), 1), ((), 1), ((1, 2), 0))
    si = s4.index_of((0, 1, 2, 3, 4))
    assert intersection_cap(s4, ZZ, 1, {b: 1}, 4, {si: 1}) == {}


def test_classical_cap_skips_singular_vertices(sigma_rp3):
    # the apex vertices miss the top stratum, so capping on them gives 0
    X = sigma_rp3
    apex = next(i for i, s in enumerate(X.simplices(0))
                if not X.is_regular(s))
    regular = next(i for i, s in enumerate(X.simplices(0))
                   if X.is_regular(s))
    omega = {i: 1 for i in range(len(X.simplices(0)))}
    assert classical_cap(X, ZZ, 0, omega, 0, {apex: 1}) == {}
    assert classical_cap(X, ZZ, 0, omega, 0, {regular: 1}) == {regular: 1}


def test_classical_duality_verified_chain_map(s4, sigma_rp3):
    classical_duality(s4, ZZ)
    classical_duality(sigma_rp3, ZZ)


def test_classical_duality_sphere(s4):
    for k in range(5):
        assert classical_duality_induced(s4, ZZ, k).is_isomorphism()


def test_classical_duality_suspension_integers(sigma_rp3):
    iso = [classical_duality_induced(sigma_rp3, ZZ, k).is_isomorphism()
           for k in range(5)]
    assert iso == [True, True, False, False, True]


def test_classical_duality_suspension_rationals(sigma_rp3):
    iso = [classical_duality_induced(sigma_rp3, QQ, k).is_isomorphism()
           for k in range(5)]
    assert iso == [True, True, True, True, True]


def test_blown_duality_isomorphism(s4, sigma_rp3):
    # chain maps are verified at construction; the induced maps are
    # isomorphisms in every degree for every tested perversity
    for space in (s4, sigma_rp3):
        for p in (zero(4), clip(1, 4), top(4)):
            dm = duality_map(space, p, ZZ)
            for k in range(5):
                assert dm.is_isomorphism(k), (str(p), k)


def test_each_distinct_duality_check_runs_once(monkeypatch):
    # the check of degree k reads only the blown-up basis, fixed by the
    # allowable tuples of degrees k and k + 1, and the perverse allowable
    # sets of degrees n - k and n - k - 1: on a fresh sigma-rp3, 6 of the
    # 15 (perversity, degree) checks repeat an earlier one
    space = suspension(projective_space(4))
    n = space.n
    ran = []
    real = PerverseSubcomplex.contains

    def counting(self, k, M):
        ran.append((k, self.allowable(k), self.allowable(k - 1), M.ncols))
        return real(self, k, M)

    monkeypatch.setattr(PerverseSubcomplex, "contains", counting)
    distinct = set()
    for p in (zero(n), clip(1, n), top(n)):
        dm = duality_map(space, p, ZZ)
        distinct.update((k, dm.tw.allowable(k), dm.tw.allowable(k + 1),
                         dm.pc.allowable(n - k), dm.pc.allowable(n - k - 1))
                        for k in range(n + 1))
    assert len(ran) == len(set(ran)) == len(distinct) == 9


def test_replaced_blown_caps_get_no_old_verdicts(monkeypatch):
    # checks passed on the real caps do not count for other caps on the
    # same space: after a passing verify factorization, a map built on
    # broken caps still fails its chain-map check
    space = simplex_sphere(2)
    assert verify_factorization(space, ZZ).ok
    real = cap._duality_caps

    def broken(space, ring, blown):
        mats = dict(real(space, ring, blown))
        if blown:
            mats[1] = mats[1].scale(ring.el(2))
        return mats

    monkeypatch.setattr(cap, "_duality_caps", broken)
    for p in (zero(2), top(2)):
        with pytest.raises(AssertionError, match="chain map"):
            cap.DualityMap(space, p, ZZ)


def test_every_duality_map_reads_the_one_signed_table(monkeypatch):
    # the twisted caps against [X] are built once per space, ring and
    # kind of cap: every perversity's duality map holds the blown-up
    # table itself, classical duality is the classical one, and no
    # matrix is scaled on the way
    def refused(self, c):
        raise AssertionError("a duality map scaled a matrix")

    monkeypatch.setattr(Matrix, "scale", refused)
    X = suspension(projective_space(4))
    lattice = gm_lattice(X.n)
    for ring in (ZZ, QQ):
        table = cap._duality_caps(X, ring, True)
        for p in lattice:
            for q in lattice:
                assert duality_map(X, p, ring).matrices is \
                    duality_map(X, q, ring).matrices is table
        classical = cap._duality_caps(X, ring, False)
        assert classical_duality(X, ring) is classical


def test_blown_duality_torsion_degree(sigma_rp3):
    dm = duality_map(sigma_rp3, zero(4), ZZ)
    ind = dm.induced(3)
    assert ind.source.iso_type() == (0, (2,))
    assert ind.target.iso_type() == (0, (2,))
    assert ind.is_isomorphism()


def test_duality_rejects_composite(s4):
    with pytest.raises(ValueError):
        duality_map(s4, zero(4), Zmod(6))
    with pytest.raises(ValueError):
        check_zero_top(s4, Zmod(6))


def test_fundamental_class_is_zero_allowable(sigma_rp3):
    fc = sigma_rp3.fundamental_class(ZZ)
    pc = perverse_complex(sigma_rp3, zero(4), ZZ)
    n4 = len(sigma_rp3.simplices(4))
    assert pc.contains(4, Matrix.from_columns(ZZ, n4, [fc]))
    # one top simplex through an apex is allowable, but its boundary
    # holds non-allowable tetrahedra through that apex
    apex = next(j for j, s in enumerate(sigma_rp3.simplices(4)) if s[0] == 0)
    assert apex in pc.allowable(4)
    assert not pc.contains(4, Matrix.from_columns(ZZ, n4, [{apex: 1}]))


def test_zero_top_truth_table(s4, sigma_rp3):
    r = check_zero_top(s4, ZZ)
    assert r.lines == ["PASS: (i) holds, (ii) holds, equivalence OK"]
    assert r.ok and r.equivalence_ok

    r = check_zero_top(sigma_rp3, QQ)
    assert r.lines == ["PASS: (i) holds, (ii) holds, equivalence OK"]
    assert r.ok and r.equivalence_ok

    r = check_zero_top(sigma_rp3, ZZ)
    assert r.lines == ["FAIL: (i) fails, (ii) fails, equivalence OK"]
    assert not r.ok
    assert r.equivalence_ok
    assert r.cap_iso == [True, True, False, False, True]
    assert r.beta_iso == [True, False, False, True, True]


def test_zero_top_needs_normality(wedge_text):
    # on the non-normal wedge of two 2-spheres, (i) fails while (ii)
    # holds: the normality hypothesis of the equivalence is needed
    wedge = parse_complex(wedge_text)
    assert wedge.validate().valid and not wedge.validate().normal
    for ring in (ZZ, QQ):
        cap_iso = [classical_duality_induced(wedge, ring, k).is_isomorphism()
                   for k in range(3)]
        beta_iso = [comparison_map(wedge, zero(2), top(2), ring,
                                   j).is_isomorphism() for j in range(3)]
        assert not all(cap_iso)
        assert all(beta_iso)
        with pytest.raises(ValueError, match=r"normality check, witness \('p',\)"):
            check_zero_top(wedge, ring)


# a 2-sphere with its poles identified to the vertex P: 13 vertices and
# 24 facets, a pseudomanifold whose link at P is two circles
PINCHED_TORUS = (
    "dim 2\nvertex P stratum 0\n"
    + "".join(f"vertex {v}{i} stratum 2\n" for v in "ab" for i in range(6))
    + "".join(f"facet {f}\n" for i in range(6) for j in [(i + 1) % 6]
              for f in (f"P a{i} a{j}", f"a{i} a{j} b{i}",
                        f"a{j} b{i} b{j}", f"P b{i} b{j}")))


def test_pinched_torus_needs_the_normality_gate(tmp_path, capsys):
    # verify zero-top refuses the pinched torus and the factorization,
    # which needs no normality, passes.  Past the gate, classical
    # duality fails in degree 1 while zero -> top is an isomorphism in
    # every degree (the two perversities agree in dimension 2), so the
    # zero-top equivalence would be broken
    path = tmp_path / "pinched.txt"
    path.write_text(PINCHED_TORUS)
    assert cli.main(["verify", "zero-top", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: input fails the normality check, "
                   "witness ('P',)\n")
    assert cli.main(["verify", "factorization", "--input", str(path)]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")
    X = parse_complex(PINCHED_TORUS)
    assert (X.vertex_count, len(X.facets)) == (13, 24)
    assert X.validate().valid and not X.validate().normal
    assert [str(X.homology(k, ZZ)) for k in range(3)] == ["Z", "Z", "Z"]
    for ring in (ZZ, QQ):
        assert [classical_duality_induced(X, ring, k).is_isomorphism()
                for k in range(3)] == [True, False, True], ring
        assert all(comparison_map(X, zero(2), top(2), ring, j).is_isomorphism()
                   for j in range(3)), ring


def test_verify_factorization(s4, sigma_rp3):
    for space in (s4, sigma_rp3):
        for ring in (ZZ, QQ):
            rep = verify_factorization(space, ring)
            assert rep.ok, (space, ring.name, rep.lines)
            assert rep.lines[-1] == "PASS"


def test_factorization_witness_prints_rationals_as_fractions(monkeypatch):
    # a doubled classical cap splits every class; over Q the witness
    # shows its entries as Fractions even when they are integral, in
    # ascending index order
    real = cap._duality_caps

    def doubled(space, ring, blown):
        if blown:
            return real(space, ring, blown)
        return {k: M.scale(ring.el(2))
                for k, M in real(space, ring, blown).items()}

    monkeypatch.setattr(cap, "_duality_caps", doubled)
    # a fresh space, so no cached cap outlives the test
    report = verify_factorization(simplex_sphere(1), QQ)
    assert not report.ok
    assert [line for line in report.lines if "witness" in line] == [
        "degree 0: classes split, witness "
        "{0: Fraction(2, 1), 1: Fraction(-2, 1), 2: Fraction(2, 1)}",
        "degree 1: classes split, witness {2: Fraction(2, 1)}",
    ]


def test_factorization_generator_counts(s4, sigma_rp3):
    rep = verify_factorization(s4, ZZ)
    assert rep.lines[0] == "square commutes on 2 generators"
    rep = verify_factorization(sigma_rp3, ZZ)
    assert rep.lines[0] == "square commutes on 3 generators"


def test_gm_demo(sigma_rp3):
    rep = gm_demo(sigma_rp3)
    assert rep.ok
    assert rep.lines == [
        "cohomology, degree 3 = Z/2",
        "gm cohomology, clip:2, degree 3 = Z/2",
        "gm cohomology, clip:1, degree 3 = 0",
        "intersection homology, zero, degree 1 = Z/2",
        "intersection homology, clip:1, degree 1 = Z/2",
        "comparison zero -> clip:1, degree 1: isomorphism",
        "an isomorphism of the degree-1 groups cannot factor through "
        "the trivial degree-3 group",
        "PASS",
    ]


def _random_pairs(space, n_pairs, seed):
    """Seeded random perversity-bounded cochain/chain pairs."""
    B = blowup_complex(space)
    rng = random.Random(seed)
    pervs = [zero(4), clip(1, 4), top(4)]
    tws = [tw_complex(space, p, ZZ) for p in pervs]
    pcs = [perverse_complex(space, p, ZZ) for p in pervs]
    out = []
    while len(out) < n_pairs:
        pi, qi = rng.randrange(3), rng.randrange(3)
        k = rng.randrange(0, 4)
        m = rng.randrange(k, 5)
        BW, BX = tws[pi].bases.get(k), pcs[qi].bases.get(m)
        if not BW.ncols or not BX.ncols:
            continue
        wcols, xcols = BW.columns(), BX.columns()
        omega = {}
        for _ in range(2):
            col = wcols.get(rng.randrange(BW.ncols), {})
            c = rng.choice([-2, -1, 1, 2, 3])
            for i, v in col.items():
                omega[i] = omega.get(i, 0) + c * v
        omega = {B.tuples[k][i]: v for i, v in omega.items() if v}
        xi = {}
        for _ in range(2):
            col = xcols.get(rng.randrange(BX.ncols), {})
            c = rng.choice([-2, -1, 1, 2])
            for i, v in col.items():
                xi[i] = xi.get(i, 0) + c * v
        xi = {i: v for i, v in xi.items() if v}
        if omega and xi:
            out.append((pervs[pi], pervs[qi], k, omega, m, xi))
    return out


def test_leibniz_and_bookkeeping_sphere(s4):
    for p, q, k, omega, m, xi in _random_pairs(s4, 100, seed=5):
        assert leibniz_holds(s4, ZZ, k, omega, m, xi), (str(p), k, m)
        assert cap_bookkeeping_ok(s4, ZZ, p, q, k, omega, m, xi)


def test_leibniz_and_bookkeeping_suspension(sigma_rp3):
    for p, q, k, omega, m, xi in _random_pairs(sigma_rp3, 100, seed=5):
        assert leibniz_holds(sigma_rp3, ZZ, k, omega, m, xi), (str(p), k, m)
        assert cap_bookkeeping_ok(sigma_rp3, ZZ, p, q, k, omega, m, xi)


# --- the one cap builder against the accumulation loops it replaced ---

def _ref_add_to(ring, vec, i, c):
    v = ring.add(vec.get(i, ring.zero), c)
    if ring.is_zero(v):
        vec.pop(i, None)
    else:
        vec[i] = v


def _ref_intersection_cap(space, ring, k, omega, m, xi):
    B = blowup_complex(space)
    out = {}
    for si, x in xi.items():
        if ring.is_zero(x):
            continue
        if not space.is_regular(space.simplices(m)[si]):
            continue
        for j, sg, gi in B.cap_terms(m, si, k):
            w = omega.get(B.tuples[k][j])
            if w is None or ring.is_zero(w):
                continue
            term = ring.mul(w, x)
            _ref_add_to(ring, out, gi, ring.neg(term) if sg < 0 else term)
    return out


def _ref_classical_cap(space, ring, k, omega, m, xi):
    out = {}
    for si, x in xi.items():
        if ring.is_zero(x):
            continue
        s = space.simplices(m)[si]
        if not space.is_regular(s):
            continue
        w = omega.get(space.index_of(tuple(s[:k + 1])))
        if w is None or ring.is_zero(w):
            continue
        _ref_add_to(ring, out, space.index_of(tuple(s[k:])), ring.mul(w, x))
    return out


def _ref_classical_caps(space, ring):
    n = space.n
    tops = space.simplices(n)
    rows = {k: {} for k in range(n + 1)}
    for si, c in cap._fundamental_cycle(space, ring).items():
        s = tops[si]
        for k in range(n + 1):
            row = rows[k].setdefault(space.index_of(tuple(s[k:])), {})
            _ref_add_to(ring, row, space.index_of(tuple(s[:k + 1])),
                        ring.neg(c) if duality_sign(k) < 0 else c)
    return {k: Matrix(ring, len(space.simplices(n - k)),
                      len(space.simplices(k)), r)
            for k, r in rows.items()}


def _ref_blown_caps(space, ring):
    n = space.n
    B = blowup_complex(space)
    rows = {k: {} for k in range(n + 1)}
    for si, c in cap._fundamental_cycle(space, ring).items():
        for k in range(n + 1):
            for j, sg, gi in B.cap_terms(n, si, k):
                _ref_add_to(ring, rows[k].setdefault(gi, {}), j,
                            ring.neg(c) if sg * duality_sign(k) < 0 else c)
    return {k: Matrix(ring, len(space.simplices(n - k)), B.dim(k), r)
            for k, r in rows.items()}


def _random_chain(space, ring, m, rng):
    """A few random m-simplices with coefficients in -3..3, zero among
    them, and every non-regular m-simplex with coefficient 1."""
    simplices = space.simplices(m)
    xi = {si: ring.el(rng.randint(-3, 3)) for si in rng.sample(
        range(len(simplices)), min(6, len(simplices)))}
    xi.update((si, ring.one) for si, s in enumerate(simplices)
              if not space.is_regular(s))
    return xi


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(2), Zmod(4)],
                         ids=["Z", "Q", "Z2", "Z4"])
def test_cap_matrix_matches_the_accumulation_loops(ring, s4, rp3, sigma_rp3):
    rng = random.Random(12)
    for space in (s4, rp3, sigma_rp3):
        n = space.n
        B = blowup_complex(space)
        for got, want in ((cap._duality_caps(space, ring, False),
                           _ref_classical_caps(space, ring)),
                          (cap._duality_caps(space, ring, True),
                           _ref_blown_caps(space, ring))):
            for k in range(n + 1):
                # the same rows in the same order, the empty ones dropped
                assert (got[k].nrows, got[k].ncols) == \
                    (want[k].nrows, want[k].ncols)
                assert list(got[k].rows.items()) == [
                    (i, r) for i, r in want[k].rows.items() if r], k
        for m in range(n + 1):
            xi = _random_chain(space, ring, m, rng)
            for k in range(m + 1):
                omega = {i: ring.el(rng.choice([-1, 1, 2, 3]))
                         for i in range(len(space.simplices(k)))}
                assert classical_cap(space, ring, k, omega, m, xi) == \
                    _ref_classical_cap(space, ring, k, omega, m, xi), (k, m)
            for k in range(n + 1):
                tuples = B.tuples.get(k, [])
                omega = {b: ring.el(rng.randint(-3, 3)) for b in rng.sample(
                    tuples, min(40, len(tuples)))}
                assert intersection_cap(space, ring, k, omega, m, xi) == \
                    _ref_intersection_cap(space, ring, k, omega, m, xi), \
                    (k, m)


def test_chain_identity_names_a_broken_simplex(monkeypatch, sigma_rp3):
    # flip the sign of one support triple that an embedded cochain
    # reaches; a triple outside the embedding's image could not show
    X = sigma_rp3
    si, k = X.index_of((0, 2, 3)), 1
    B = blowup_complex(X)
    emb = B.embedding_matrix(k)
    real = BlowupComplex.cap_terms
    flip = next(t for t in real(B, 2, si, k) if emb.rows.get(t[0]))

    def flipped(self, m, sj, d):
        terms = real(self, m, sj, d)
        if self is not B or (m, sj, d) != (2, si, k):
            return terms
        return [(j, -sg, gi) if (j, sg, gi) == flip else (j, sg, gi)
                for j, sg, gi in terms]

    monkeypatch.setattr(BlowupComplex, "cap_terms", flipped)
    with pytest.raises(AssertionError,
                       match=r"simplex \(0, 2, 3\) in degree 1"):
        check_chain_identity(X)


def test_local_cap_factorization_catches_a_flipped_sign(monkeypatch, s4):
    # flip blown_cap's sign on one tuple that survives the blow-down in
    # the cap of an embedded front vertex
    s = s4.simplices(4)[0]
    parts = s4.join_decomposition(s).parts
    _, terms = cochain_embedding_terms(s[:1], parts)
    real = blown_cap
    target = next(b for b in terms if real(b, parts) is not None
                  and tuple_flatten(real(b, parts)[1]) is not None)

    def flipped(b, ps):
        res = real(b, ps)
        if res is None or (b, ps) != (target, parts):
            return res
        return -res[0], res[1]

    monkeypatch.setattr(blowup, "blown_cap", flipped)
    with pytest.raises(AssertionError, match="local cap factorization fails"):
        check_local_cap_factorization(s4)


@pytest.mark.parametrize("ring", [Zmod(2), Zmod(3), ZZ], ids=str)
def test_factorization_over_the_whole_lattice(sigma_rp3, ring):
    report = verify_factorization(sigma_rp3, ring,
                                  perversities=gm_lattice(4))
    assert report.ok, str(report)
    assert report.lines[-1] == "PASS"
    assert sum("duality isomorphism in every degree" in L
               for L in report.lines) == len(gm_lattice(4))
