import random

import pytest

from ihomology import cli, complexes, filtered, snf
from ihomology.blowup import tw_cohomology
from ihomology.intersection import cohomology, intersection_homology
from ihomology.matrices import Matrix
from ihomology.perversity import clip, top, zero
from ihomology.rings import ZZ, QQ, Zmod, ZmodRing, ring_by_name
from ihomology.complexes import (ChainMap, HomologyGroup, PresentedComplex,
                                 group_from_cycles, homology_of)
from ihomology.snf import (hermite_solve, hermite_solve_vector, kernel,
                           smith_normal_form)


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
    # built, so that the rule of homology_of is checked against the
    # groups' own orders
    assert str(C.homology(0).build()) == "Z"
    assert str(C.homology(1).build()) == "Z/2"
    assert str(C.homology(2).build()) == "0"
    C2 = PresentedComplex(Zmod(2), C.dims,
                          {k: M.map_ring(Zmod(2)) for k, M in C.boundaries.items()})
    assert [C2.homology(k).free_rank for k in (0, 1, 2)] == [1, 1, 1]
    assert homology_of(C.boundary(1), C.boundary(2)).iso_type() == (0, (2,))


def test_triangle_circle():
    # boundary of a triangle: vertices a,b,c and the three edges
    d1 = Matrix.from_rows(ZZ, [[-1, -1, 0],
                               [1, 0, -1],
                               [0, 1, 1]])
    C = PresentedComplex(ZZ, {0: 3, 1: 3}, {1: d1})
    assert str(C.homology(0)) == "Z"
    assert str(C.homology(1)) == "Z"
    assert sum((-1) ** k * n for k, n in C.dims.items()) == 0


def test_boundary_squared_checked():
    bad1 = Matrix.from_rows(ZZ, [[1, 0], [0, 1]])
    bad2 = Matrix.from_rows(ZZ, [[1], [0]])
    with pytest.raises(ValueError, match="squared"):
        PresentedComplex(ZZ, {0: 2, 1: 2, 2: 1}, {1: bad1, 2: bad2})


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(3), Zmod(4)], ids=str)
def test_homology_of_rejects_boundaries_outside_the_cycles(R):
    # bd_in hits a vector that bd_out does not kill: the orders (by the
    # rule, except over Z/4) and the build both refuse it
    bd_out = Matrix.from_rows(R, [[1, 0]])
    bd_in = Matrix.from_rows(R, [[1], [1]])
    with pytest.raises(ValueError, match="do not lie in the cycle span"):
        homology_of(bd_out, bd_in).orders
    with pytest.raises(ValueError, match="do not lie in the cycle span"):
        homology_of(bd_out, bd_in).build()


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
    assert str(C.homology(0).build()) == "0"
    with pytest.raises(ValueError,
                       match="boundary columns do not lie in the cycle span"):
        C.homology(1).build()
    rows.clear()
    assert str(C.homology(2).build()) == "0"
    assert rows == [1]


def test_class_equal_mod_boundary():
    C = doubling_complex(ZZ)
    h0 = C.homology(0)
    assert h0.coords({0: 1}) == h0.coords({0: 3})
    assert h0.coords({0: 2}) == (0,)
    assert h0.coords({0: 1}) != h0.coords({0: 2})
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


def smith_group_from_cycles(ring, Zb, B):
    """group_from_cycles through the Smith form of all of Y, with U and
    Uinv tracked over every row: the reference for the unit-pivot
    sweep and the Smith form of its residual."""
    Y = hermite_solve(Zb, B)
    if Y is None:
        raise ValueError("boundary columns do not lie in the cycle span")
    z = Zb.ncols
    if z == 0:
        return HomologyGroup.trivial(ring)
    free = 0
    if isinstance(ring, ZmodRing) and not ring.is_field:
        Y = Y.hstack(kernel(Zb))
        free = ring.m
    snfY = smith_normal_form(Y, transforms=True)
    orders_raw = list(snfY.diag) + [0] * (z - snfY.rank)
    Uinv_cols = snfY.Uinv.columns()
    keep = []
    orders = []
    reps = []
    for i, d in enumerate(orders_raw):
        if d != 0 and ring.is_unit(ring.el(d)):
            continue
        keep.append(i)
        orders.append(d if d else free)
        reps.append(Zb @ dict(Uinv_cols.get(i, {})))

    def coord_fn(v):
        w = hermite_solve_vector(Zb, v)
        if w is None:
            raise ValueError("not a cycle")
        t = snfY.U @ w
        return tuple(t.get(i, ring.zero) % d if d else t.get(i, ring.zero)
                     for i, d in zip(keep, orders))

    return HomologyGroup(ring, orders, reps, coord_fn, Zb)


def check_against_smith_reference(rng, Zb, B, H):
    R = Zb.ring
    ref = smith_group_from_cycles(R, Zb, B)
    assert H.orders == ref.orders
    n = len(H.orders)
    for i, rep in enumerate(H.reps):
        assert H.coords(rep) == tuple(int(j == i) for j in range(n))
    # the reference's generators in the new ones, read back in the
    # reference's coordinates: the identity, so the new ones generate
    P = [H.coords(rep) for rep in ref.reps]
    Q = [ref.coords(rep) for rep in H.reps]
    for j in range(n):
        back = [R.el(sum(R.mul(Q[i][k], P[j][i]) for i in range(n)))
                for k in range(n)]
        assert [c % d if d else c for c, d in zip(back, H.orders)] == [
            int(k == j) for k in range(n)]
    Bc = B.columns()
    for j in Bc:
        assert H.coords(Bc[j]) == (0,) * n
    a = [R.el(rng.randrange(-5, 6)) for _ in range(n)]
    b = [R.el(rng.randrange(-5, 6)) for _ in range(3)]
    v = {}
    for c, rep in zip(a, H.reps):
        snf._axpy(R, v, rep, c)
    for c, j in zip(b, rng.sample(sorted(Bc), min(3, len(Bc)))):
        snf._axpy(R, v, Bc[j], c)
    assert H.coords(v) == tuple(c % d if d else c
                                for c, d in zip(a, H.orders))


def record_groups(monkeypatch):
    """Record (Zb, B, group, left) for every group_from_cycles call with
    cycles, left the set of columns of B its sweep left out."""
    seen = []

    def recording(ring, Zb, B, pivot_row=None, solved=None):
        left = set()

        def spying():
            left.update(solved() if solved else ())
            return left
        H = group_from_cycles(ring, Zb, B, pivot_row, spying)
        if Zb.ncols:
            seen.append((Zb, B, H, left))
        return H
    monkeypatch.setattr(complexes, "group_from_cycles", recording)
    return seen


@pytest.mark.parametrize("space", [
    "s4", "rp3", pytest.param("sigma-rp3", marks=pytest.mark.slow)])
@pytest.mark.parametrize("coeffs", ["Z", "Q", "Zmod:3", "Zmod:4", "Zmod:6"])
def test_groups_match_the_smith_form_of_all_of_y(space, coeffs, monkeypatch,
                                                  capsys):
    # the groups the verify drivers and table build on a fresh space:
    # the same orders as the Smith form of all of Y, generators that
    # express the reference's, each generator at its unit vector,
    # boundaries at zero, and a seeded combination of
    # generators and boundaries at its coefficients mod the orders; the
    # verify drivers refuse a composite modulus, so Z/4 and Z/6 come
    # from table alone.  sigma-rp3 is slow: its 25 groups over Z have
    # 11502 boundary columns, each one a solve against its cycle basis
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    seen = record_groups(monkeypatch)
    commands = [["table"]]
    if coeffs not in ("Zmod:4", "Zmod:6"):
        commands += [["verify", "factorization"], ["verify", "zero-top"]]
    for cmd in commands:
        assert cli.main([*cmd, "--builtin", space, "--coeffs", coeffs]) in (0, 1)
    capsys.readouterr()
    assert seen
    rng = random.Random(61)
    for Zb, B, H, _ in seen:
        check_against_smith_reference(rng, Zb, B, H)


def check_against_the_full_sweep(rng, Zb, B, H):
    """H has the orders, generators and coordinates of the group that
    group_from_cycles builds from Zb and B sweeping every column."""
    R = Zb.ring
    ref = group_from_cycles(R, Zb, B)
    assert H.orders == ref.orders
    assert H.reps == ref.reps
    Bc = B.columns()
    vectors = [Bc[j] for j in rng.sample(sorted(Bc), min(3, len(Bc)))]
    for _ in range(5):
        vectors.append(Zb @ {j: R.el(rng.randrange(-3, 4)) for j in
                             rng.sample(range(Zb.ncols), min(3, Zb.ncols))})
    for v in vectors:
        assert H.coords(v) == ref.coords(v)


@pytest.mark.parametrize("coeffs", ["Z", "Q", "Zmod:3", "Zmod:4"])
@pytest.mark.parametrize("space", ["s4", "rp3", "sigma-rp3", "cone:rp3"])
def test_cleared_groups_equal_the_groups_that_sweep_every_column(
        space, coeffs, monkeypatch):
    # every group of a memo made, then built in pruning order, so that
    # each build whose next degree has a group leaves columns out of its
    # sweep: the simplicial cochains and chains, and at zero, clip:1 and
    # top the perverse chains and the blown-up cochains (which need Z or
    # a field).  Over Z a column left out could in principle have become
    # a unit pivot through set-aside vectors; the orders, the generators
    # and the coordinates of boundaries and of seeded random cycles must
    # all be those of the build that sweeps every column
    R = ring_by_name(coeffs)
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    X = filtered.builtin(space)
    n = X.n
    runs = {"cochains": [cohomology(X, R, k) for k in range(n, -1, -1)],
            "chains": [X.homology(k, R) for k in range(n + 1)]}
    for p in (zero(n), clip(1, n), top(n)):
        runs[f"{p} chains"] = [intersection_homology(X, p, R, k)
                               for k in range(n + 1)]
        if not R.free_order:
            runs[f"{p} blown-up"] = [tw_cohomology(X, p, R, k)
                                     for k in range(n, -1, -1)]
    seen = record_groups(monkeypatch)
    rng = random.Random(29)
    left = {}
    for name, run in runs.items():
        seen.clear()
        for H in run:
            H.build()
        left[name] = sum(len(cleared) for *_, cleared in seen)
        for Zb, B, H, _ in seen:
            check_against_the_full_sweep(rng, Zb, B, H)
    # the perverse groups of s4 and rp3, a single stratum, are all
    # simplicial ones, built already
    assert left["cochains"] and left["chains"]
    assert R.free_order or left["zero blown-up"]
    if space in ("sigma-rp3", "cone:rp3"):
        assert all(left.values()), left


def test_a_lone_degree_sweeps_every_column(monkeypatch, capsys):
    # one degree asked for makes one group and no neighbour, so its build
    # leaves no column out: the same degree of the whole list leaves 383
    # of its 960 boundary columns out
    seen = record_groups(monkeypatch)
    for argv, out in ((["--degree", "2"], "Z/2\n"),
                      ([], "0: (Z/4)\n1: 0\n2: Z/2\n3: Z/2\n4: (Z/4)\n")):
        monkeypatch.setattr(filtered, "_builtin_cache", {})
        seen.clear()
        assert cli.main(["homology", "--builtin", "sigma-rp3", "--coeffs",
                         "Zmod:4", *argv]) == 0
        assert capsys.readouterr().out == out
        [(B, cleared)] = [(B, cleared) for Zb, B, H, cleared in seen
                          if B.nrows == 848]
        assert B.ncols == 960
        assert len(cleared) == (383 if not argv else 0)


RULE_COMMANDS = [["homology"], ["table"],
                 ["ih", "--perversity", "zero"], ["ih", "--perversity", "top"],
                 ["tw", "--perversity", "zero"], ["tw", "--perversity", "top"],
                 ["verify", "factorization"], ["verify", "zero-top"]]


@pytest.mark.parametrize("space", ["s4", "rp3", "sigma-rp3", "cone:rp3"])
@pytest.mark.parametrize("coeffs", ["Z", "Q", "Zmod:3", "Zmod:4", "Zmod:6"])
def test_rule_orders_equal_the_built_orders(space, coeffs, monkeypatch,
                                            capsys):
    # every lazy group these commands touch on a fresh space gets an
    # unbuilt twin with the same closures; over Z and fields the twin's
    # orders come from the rule with nothing built, and must equal the
    # orders of the group once built; over a composite Z/m there is no
    # rule and reading the orders builds.  tw and verify refuse a
    # composite modulus, and verify the cone, which has a boundary
    twins = []
    real = HomologyGroup.lazy.__func__

    def lazy(cls, ring, build, rule=None):
        twins.append(real(cls, ring, build, rule))
        H = real(cls, ring, build, rule)
        twins[-1].group = H
        return H
    monkeypatch.setattr(HomologyGroup, "lazy", classmethod(lazy))
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    composite = coeffs in ("Zmod:4", "Zmod:6")
    for cmd in RULE_COMMANDS:
        refused = (cmd[0] == "tw" and composite or cmd[0] == "verify"
                   and (composite or space == "cone:rp3"))
        status = cli.main([*cmd, "--builtin", space, "--coeffs", coeffs])
        assert status in ((2,) if refused else (0, 1)), cmd
    capsys.readouterr()
    assert twins
    for twin in twins:
        orders = twin.orders
        assert twin.built == composite
        assert orders == twin.group.build().orders


def test_smith_forms_do_not_determine_homology_over_z4():
    # the same invariant factors of D and of B, two different groups:
    # over a composite modulus a group has no rule and builds
    R = Zmod(4)
    D = Matrix.from_rows(R, [[2, 0]])
    groups = [homology_of(D, Matrix.from_rows(R, rows))
              for rows in ([[2], [0]], [[0], [2]])]
    assert [str(H) for H in groups] == ["(Z/4)", "Z/2 + Z/2"]
    assert all(H.built for H in groups)


@pytest.mark.parametrize("R", [ZZ, QQ], ids=str)
def test_rule_checks_the_boundaries(R, monkeypatch, patch_snf):
    # one flipped sign in the boundary out of degree 2 of a fresh rp3
    # makes d1 @ d2 nonzero: reading the orders of H_1 raises the
    # ValueError the solve raises, from the rule's own check, with no
    # cycle basis and no solve
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    X = filtered.builtin("rp3")
    M = X.boundary_matrix(2, R)
    i = min(M.rows)
    j = min(M.rows[i])
    flipped = Matrix(R, M.nrows, M.ncols,
                     {r: dict(row) for r, row in M.rows.items()})
    flipped.rows[i][j] = R.neg(flipped.rows[i][j])
    monkeypatch.setitem(X.cache, ("boundary", 2, R.name), flipped)
    calls = []
    patch_snf("hermite_solve", lambda *a: calls.append("solve"))
    patch_snf("kernel", lambda *a: calls.append("kernel"))
    with pytest.raises(ValueError,
                       match="boundary columns do not lie in the cycle span"):
        X.homology(1, R).orders
    assert calls == []
    assert not X.homology(1, R).built


def recording_skips(patch_snf):
    """The number of rows each invariant_factors call is told to skip."""
    skips = []
    real = snf.invariant_factors

    def recording(M, skip=()):
        skips.append(len(skip))
        return real(M, skip)
    patch_snf("invariant_factors", recording)
    return skips


def random_matrix(rng, R, nrows, ncols, entries=(0, 0, 0, 1, -1, 2, 3)):
    return Matrix.from_rows(R, [[rng.choice(entries) for _ in range(ncols)]
                                for _ in range(nrows)], ncols=ncols)


def random_cycles(rng, R, D, cols):
    """Random chains on the columns cols of D that D sends to 0: a kernel
    basis of D on cols times a random matrix."""
    K = kernel(D.submatrix(range(D.nrows), cols))
    KX = K @ random_matrix(rng, R, K.ncols, rng.randrange(0, 6),
                           (0, 0, 1, -1, 2, 3))
    return Matrix(R, D.ncols, KX.ncols,
                  {cols[i]: dict(row) for i, row in KX.rows.items()})


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(3)], ids=str)
def test_cleared_factors_are_the_smith_form_of_the_whole_matrix(
        R, patch_snf):
    # the rule sweeps B, then D on cols with the columns of B's unit
    # pivots skipped; the factors it keeps for D, and the orders, must
    # be those the eliminator alone gives on all of D[:, cols] and on B
    rng = random.Random(89)
    skips = recording_skips(patch_snf)
    for _ in range(200):
        D = random_matrix(rng, R, rng.randrange(1, 7), rng.randrange(1, 9))
        cols = sorted(rng.sample(range(D.ncols),
                                 rng.randrange(1, D.ncols + 1)))
        B = random_cycles(rng, R, D, cols)
        memo = {}
        dims = {0: cols, 1: range(B.ncols)}
        H = complexes.shared_group(memo, 0, lambda j: dims.get(j, ()), -1,
                                   D, lambda: B)
        whole = smith_normal_form(D.submatrix(range(D.nrows), cols),
                                  transforms=False).diag
        ofB = smith_normal_form(B, transforms=False).diag
        assert H.orders == ([d for d in ofB if not R.is_unit(d)]
                            + [0] * (len(cols) - len(whole) - len(ofB)))
        cols_key = complexes.memo_key("group", 0, dims.get, 1)[2]
        assert memo["factors", 0, cols_key, range(D.nrows)][0] == whole
    assert sum(skips) >= 10


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(3)], ids=str)
def test_chain_complexes_clear_from_the_top_down(R, patch_snf):
    # groups made first and read in ascending degree: each rule settles
    # the group above, whose D is its B, so every boundary but the top
    # is swept cleared; the factors kept are the eliminator's, and the
    # orders those of the groups built with no rule
    rng = random.Random(97)
    skips = recording_skips(patch_snf)
    for _ in range(60):
        dims = [rng.randrange(1, 6) for _ in range(4)]
        bd = {1: random_matrix(rng, R, dims[0], dims[1])}
        for k in (2, 3):
            cycles = random_cycles(rng, R, bd[k - 1], range(dims[k - 1]))
            dims[k] = cycles.ncols
            bd[k] = cycles
        if not dims[2] or not dims[3]:
            continue
        C = PresentedComplex(R, dict(enumerate(dims)), bd)
        groups = [C.homology(k) for k in range(4)]
        orders = [H.orders for H in groups]
        twin = PresentedComplex(R, dict(enumerate(dims)), bd)
        assert orders == [twin.homology(k).build().orders for k in range(4)]
        for k, M in bd.items():
            factors = [v[0] for key, v in C.memo.items()
                       if key[:2] == ("factors", k)]
            assert factors == [smith_normal_form(M, transforms=False).diag]
    assert sum(skips) >= 10


def test_a_non_unit_at_the_last_entry_clears_nothing(patch_snf):
    # B's one column ends in 2: over Z its sweep sets it aside and the
    # sweep of D skips nothing; over Q the 2 is a unit pivot, and D's
    # column 1, -1/2 times column 0 there, is skipped.  Twice that
    # column leaves Z/2 over Z
    for R, skipped in ((ZZ, 0), (QQ, 1)):
        skips = recording_skips(patch_snf)
        D = Matrix.from_rows(R, [[2, -1]])
        assert homology_of(D, Matrix.from_rows(R, [[1], [2]])).orders == []
        assert skips == [0, skipped]
        assert homology_of(D, Matrix.from_rows(R, [[2], [4]])).orders == (
            [2] if R is ZZ else [])


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(3)], ids=str)
def test_the_rule_refuses_before_any_sweep(R, count_calls):
    # D @ B != 0: the check raises before B or D is swept
    calls = count_calls(["invariant_factors", "swept"])
    D = Matrix.from_rows(R, [[1, 1, 0], [0, 1, 1]])
    B = Matrix.from_rows(R, [[1], [0], [1]])
    with pytest.raises(ValueError,
                       match="boundary columns do not lie in the cycle span"):
        homology_of(D, B).orders
    assert calls == {"invariant_factors": 0, "swept": 0}


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(3), Zmod(4), Zmod(6)], ids=str)
def test_random_groups_match_the_smith_form_of_all_of_y(R):
    rng = random.Random(67)
    for _ in range(300):
        nr, nc = rng.randrange(1, 7), rng.randrange(1, 9)
        M = Matrix.from_rows(R, [[rng.choice([0, 0, 0, 1, -1, 2, 3])
                                  for _ in range(nc)] for _ in range(nr)])
        Zb = kernel(M)
        k = rng.randrange(0, 5)
        X = Matrix.from_rows(R, [[rng.choice([0, 0, 1, -1, 2, 3, 4])
                                  for _ in range(k)]
                                 for _ in range(Zb.ncols)], ncols=k)
        B = Zb @ X
        check_against_smith_reference(rng, Zb, B,
                                      group_from_cycles(R, Zb, B))


def test_only_residuals_reach_the_eliminator(monkeypatch, capsys):
    # the largest input smith_normal_form gets, from group_from_cycles or
    # from invariant_factors, on a fresh sigma-rp3; the Smith form of
    # all of Y was 577 x 960 for homology and 577 x 1234 for verify
    # factorization, and homology_of gave it the whole 848 x 960
    # boundary matrix before invariant_factors swept it.  homology over
    # Z builds no group: its orders come from the invariant factors of
    # the boundary matrices, swept on their columns, which leaves 16 of
    # the 960 columns of the degree-3 boundary aside (8 of its rows when
    # swept on the rows, at more than twice the time).  Cleared by the
    # 383 unit pivots of the sweep of the degree-4 boundary, that sweep
    # leaves 1 aside; homology_of sweeps the degree-3 boundary in full
    # as the boundaries of degree 2, with nothing above to clear it.
    # Groups built with the next degree's group made skip the columns
    # its cycles clear, which took the largest residual from 2 x 20 to
    # 2 x 3 over Z/4 and Z/6, and from 1 x 16 to 1 x 2 for verify
    # factorization
    shapes = []

    def recording(M, transforms=True):
        shapes.append((M.nrows, M.ncols))
        return real(M, transforms)
    real = snf.smith_normal_form
    monkeypatch.setattr(snf, "smith_normal_form", recording)
    monkeypatch.setattr(complexes, "smith_normal_form", recording)

    def largest():
        return max(shapes, key=lambda s: (s[0] * s[1], s))
    for cmd, want in [
            (["homology"], (1, 848)),
            (["homology", "--coeffs", "Zmod:4"], (2, 3)),
            (["table", "--coeffs", "Zmod:6"], (2, 3)),
            (["verify", "factorization"], (1, 2)),
            (["verify", "zero-top", "--coeffs", "Q"], (1, 0))]:
        monkeypatch.setattr(filtered, "_builtin_cache", {})
        shapes.clear()
        assert cli.main([*cmd, "--builtin", "sigma-rp3"]) == 0
        assert largest() == want, cmd
    capsys.readouterr()
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    shapes.clear()
    K = filtered.builtin("sigma-rp3")
    types = [homology_of(K.boundary_matrix(k, ZZ),
                         K.boundary_matrix(k + 1, ZZ)).iso_type()
             for k in range(5)]
    assert types == [(1, ()), (0, ()), (0, (2,)), (0, ()), (1, ())]
    # the residual keeps all of the matrix's rows
    assert largest() == (16, 848)
    assert types == [K.homology(k, ZZ).build().iso_type() for k in range(5)]


@pytest.mark.slow
def test_sweep_row_operations_on_the_60k_model(monkeypatch, capsys):
    # the order in which the sweep takes Y's columns changes no output,
    # only the fill-in and with it the time, so the number of row
    # operations (_axpy calls) it makes over every group of verify
    # zero-top on the 60k model is pinned; kernel's own sweeps, which
    # do not go through complexes, are not counted.  Every group of that
    # command is built with its next degree's group made, so each sweep
    # leaves out the columns that group's cycles clear: 1036007 row
    # operations before, when every column was swept
    count = [0]
    inside = [False]
    real_axpy, real_sweep = snf._axpy, complexes.unit_pivots

    def counting_axpy(R, dst, src, c):
        count[0] += inside[0]
        real_axpy(R, dst, src, c)

    def sweep(R, vectors):
        inside[0] = True
        try:
            return real_sweep(R, vectors)
        finally:
            inside[0] = False
    monkeypatch.setattr(snf, "_axpy", counting_axpy)
    monkeypatch.setattr(complexes, "unit_pivots", sweep)
    monkeypatch.setattr(filtered, "_builtin_cache", {})
    assert cli.main(["verify", "zero-top", "--builtin", "susp:rp3-fine"]) == 1
    assert capsys.readouterr().out == (
        "FAIL: (i) fails, (ii) fails, equivalence OK\n")
    assert count[0] == 67872
