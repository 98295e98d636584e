"""Acceptance suite: one test per headline guarantee of the package.

Every check is exact (integer, rational, or modular arithmetic; group
comparisons by isomorphism type).  Each test prints a single verdict
line; run `pytest tests/test_acceptance.py -v -s` to see them all.  The
two workout spaces are the boundary of the 5-simplex (a compact
4-manifold) and the suspended projective quotient sigma-rp3 (a normal
4-pseudomanifold with two singular points).
"""

import random

from ihomology.blowup import LocalBlowup, blowup_complex, tw_complex
from ihomology.cap import check_zero_top, verify_factorization
from ihomology.checks import (cap_bookkeeping_ok, check_chain_identity,
                              check_local_cap_factorization, gm_demo,
                              leibniz_holds)
from ihomology.filtered import builtin
from ihomology.intersection import (allowable_indices, cochain_complex,
                                    cohomology, comparison_map,
                                    gm_cochain_complex, gm_cohomology,
                                    intersection_homology, perverse_complex)
from ihomology.perversity import clip, gm_lattice, top, zero
from ihomology.rings import QQ, ZZ, Zmod
from ihomology.snf import hermite_column_form


def test_1_degree_three_obstruction_diagram(sigma_rp3):
    """Integral groups around the degree-3 obstruction, exactly."""
    X = sigma_rp3
    assert str(cohomology(X, ZZ, 3)) == "Z/2"
    assert str(gm_cohomology(X, clip(2, 4), ZZ, 3)) == "Z/2"
    assert gm_cohomology(X, clip(1, 4), ZZ, 3).is_trivial()
    assert str(intersection_homology(X, zero(4), ZZ, 1)) == "Z/2"
    assert str(intersection_homology(X, clip(1, 4), ZZ, 1)) == "Z/2"
    assert comparison_map(X, zero(4), clip(1, 4), ZZ, 1).is_isomorphism()
    report = gm_demo()
    assert report.ok, str(report)
    print("PASS 1/8: degree-3 obstruction diagram over Z, "
          "exact isomorphism types")


def test_2_factorization_through_blown_up_duality(s4, sigma_rp3):
    """Classical cap factors through the blown-up duality; the bottom
    duality map is an isomorphism in every degree, for the zero,
    clip:1, and top perversities over Z and Q."""
    for space in (s4, sigma_rp3):
        for ring in (ZZ, QQ):
            report = verify_factorization(space, ring)
            assert report.ok, str(report)
            assert report.lines[-1] == "PASS"
            iso_lines = [L for L in report.lines
                         if "duality isomorphism in every degree" in L]
            assert len(iso_lines) == 3
    print("PASS 2/8: factorization square commutes and blown-up duality "
          "is an isomorphism (2 spaces x {Z, Q} x 3 perversities)")


def test_3_chain_level_cap_agreement(s4, sigma_rp3):
    """The embedded cap equals the classical cap on every cochain basis
    element against every simplex, as chains, not just on classes."""
    assert check_chain_identity(s4) == 62 ** 2
    assert check_chain_identity(sigma_rp3) == 2546 ** 2
    print("PASS 3/8: chain-level cap agreement, exhaustive "
          "(62^2 + 2546^2 pairs)")


def test_4_local_embedding_injective_with_known_image(s4, sigma_rp3):
    """Per regular simplex, the local cochain embedding is injective
    and its image is exactly the zero-perversity sublattice.

    The local blow-up depends only on the join profile (the part
    sizes), so simplices sharing a profile share one verification."""
    totals = []
    for space in (s4, sigma_rp3):
        profiles = {}
        count = 0
        for k in range(space.n + 1):
            for s in space.simplices(k):
                if not space.is_regular(s):
                    continue
                count += 1
                parts = space.join_decomposition(s).parts
                profiles.setdefault(tuple(len(P) for P in parts), parts)
        p = zero(space.n)
        for parts in profiles.values():
            lb = LocalBlowup(parts)
            m = sum(len(P) for P in parts)
            for k in range(m):
                M, faces = lb.cochain_embedding_matrix(k)
                image = hermite_column_form(M)
                assert image.ncols == len(faces)
                assert image.to_lists() == lb.perverse_kernel(k, p).to_lists()
        totals.append(count)
    assert totals == [62, 2544]
    print("PASS 4/8: local embedding injective with zero-perversity "
          "image, all 62 + 2544 regular simplices")


def test_5_local_cap_factorization_identity(s4, sigma_rp3):
    """The classical local cap equals embed-then-blown-cap-then-flatten
    for every face/simplex pair."""
    assert check_local_cap_factorization(s4) == 602
    assert check_local_cap_factorization(sigma_rp3) == 33216
    print("PASS 5/8: local cap factorization identity, exhaustive "
          "(602 + 33216 pairs)")


def test_6_duality_equivalence_truth_table(s4, sigma_rp3):
    """Capping with the fundamental class is an isomorphism in every
    degree exactly when the zero-to-top comparison is; verified where
    both hold, where both hold rationally, and where both fail."""
    r = check_zero_top(s4, ZZ)
    assert r.ok and all(r.cap_iso) and all(r.beta_iso) and r.equivalence_ok
    r = check_zero_top(sigma_rp3, QQ)
    assert r.ok and all(r.cap_iso) and all(r.beta_iso) and r.equivalence_ok
    r = check_zero_top(sigma_rp3, ZZ)
    assert not r.ok
    assert r.cap_iso == [True, True, False, False, True]
    assert r.beta_iso == [True, False, False, True, True]
    assert r.equivalence_ok
    assert r.lines == ["FAIL: (i) fails, (ii) fails, equivalence OK"]
    print("PASS 6/8: duality/comparison truth table on (s4, Z), "
          "(sigma-rp3, Q), (sigma-rp3, Z), equivalence holds in all three")


def _dd_zero(C):
    checked = 0
    for k in sorted(C.boundaries):
        if (k - 1) in C.boundaries:
            assert (C.boundaries[k - 1] @ C.boundaries[k]).is_zero()
            checked += 1
    return checked


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


def test_7_property_suites(s4, sigma_rp3):
    """Squared differentials vanish on every constructed complex; the
    cap satisfies the fitted Leibniz rule and the perversity bound on
    100 seeded random pairs per space; the perverse subcomplexes grow
    monotonically across the full perversity lattice."""
    lattice = gm_lattice(4)
    compositions = 0
    for space in (s4, sigma_rp3):
        compositions += _dd_zero(space.chain_complex(ZZ))
        compositions += _dd_zero(cochain_complex(space, ZZ))
        B = blowup_complex(space)
        for k in range(B.top):
            assert (B.differential(k + 1) @ B.differential(k)).is_zero()
            compositions += 1
        for p in lattice:
            compositions += _dd_zero(tw_complex(space, p, ZZ).complex)
            compositions += _dd_zero(perverse_complex(space, p, ZZ).complex)
            compositions += _dd_zero(gm_cochain_complex(space, p, ZZ))
    assert compositions >= 60

    for space in (s4, sigma_rp3):
        pairs = _random_pairs(space, 100, seed=11)
        assert len(pairs) == 100
        for p, q, k, omega, m, xi in pairs:
            assert leibniz_holds(space, ZZ, k, omega, m, xi)
            assert cap_bookkeeping_ok(space, ZZ, p, q, k, omega, m, xi)

    for space in (s4, sigma_rp3):
        for p in lattice:
            for q in lattice:
                if not p <= q:
                    continue
                for k in range(5):
                    ap = set(allowable_indices(space, k, p))
                    aq = set(allowable_indices(space, k, q))
                    assert ap <= aq
                    assert (perverse_complex(space, p, ZZ).rank(k)
                            <= perverse_complex(space, q, ZZ).rank(k))
    assert (perverse_complex(sigma_rp3, zero(4), ZZ).rank(2)
            < perverse_complex(sigma_rp3, top(4), ZZ).rank(2))
    print(f"PASS 7/8: d^2 = 0 ({compositions} compositions), Leibniz and "
          "perversity bookkeeping on 2 x 100 seeded pairs, lattice "
          "monotonicity")


def test_8_construction_self_checks(rp3):
    """Known homology of the projective quotient and the suspension
    shift on every builtin space."""
    assert [str(rp3.homology(k, ZZ)) for k in range(4)] == \
        ["Z", "Z/2", "0", "Z"]
    F2 = Zmod(2)
    assert [rp3.homology(k, F2).iso_type() for k in range(4)] == \
        [(1, ())] * 4
    for name in ("s2", "s3", "s4", "rp3", "sigma-rp3"):
        X = builtin(name)
        SX = builtin("susp:" + name)
        assert X.homology(0, ZZ).iso_type() == (1, ())
        assert SX.homology(0, ZZ).iso_type() == (1, ())
        assert SX.homology(1, ZZ).is_trivial()
        for k in range(1, X.n + 1):
            assert SX.homology(k + 1, ZZ).iso_type() == \
                X.homology(k, ZZ).iso_type()
    print("PASS 8/8: construction self-checks (projective quotient "
          "homology, suspension shift on all builtins)")
