import random

import pytest

from ihomology.matrices import Matrix
from ihomology.rings import ZZ, QQ, Zmod
from ihomology import snf
from ihomology.rings import ZmodRing
from ihomology.snf import (
    _axpy,
    _combine,
    smith_normal_form,
    invariant_factors,
    hermite_column_form,
    hermite_solve,
    hermite_solve_vector,
    integer_kernel,
    kernel,
    solve_matrix,
)


def check_transforms(M, res):
    R = M.ring
    D = (res.U @ M) @ res.V
    assert D == Matrix(R, M.nrows, M.ncols, {p: {p: d} for p, d in enumerate(res.diag)})
    assert res.U @ res.Uinv == Matrix.identity(R, M.nrows)
    assert res.V @ res.Vinv == Matrix.identity(R, M.ncols)
    for a, b in zip(res.diag, res.diag[1:]):
        assert R.divides(a, b)


def test_smith_2x2():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
    M = Matrix.from_rows(ZZ, [[2, 4], [6, 8]])
    res = smith_normal_form(M)
    assert res.diag == [2, 4]
    check_transforms(M, res)


def test_smith_unimodular():
    # determinant -2, entry gcd 1: invariant factors 1, 2
    M = Matrix.from_rows(ZZ, [[1, 2], [3, 4]])
    assert invariant_factors(M)[0] == [1, 2]


def test_smith_zero_and_identity():
    Z = Matrix.zeros(ZZ, 3, 2)
    assert invariant_factors(Z)[0] == []
    assert invariant_factors(Matrix.identity(ZZ, 4))[0] == [1, 1, 1, 1]


def test_smith_diag_canonical_sign():
    M = Matrix.from_rows(ZZ, [[-3, 0], [0, -5]])
    assert invariant_factors(M)[0] == [1, 15]


def test_smith_rectangular():
    M = Matrix.from_rows(ZZ, [[2, 0, 0], [0, 3, 0]])
    assert invariant_factors(M)[0] == [1, 6]


def sympy_factors(sympy, data):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    D = sympy_snf(sympy.Matrix(data))
    # in divisibility order, which is ascending
    return sorted(abs(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0)


def test_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(40):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        data = [[rng.randrange(-6, 7) for _ in range(nc)] for _ in range(nr)]
        ours, _ = invariant_factors(Matrix.from_rows(ZZ, data))
        assert ours == sympy_factors(sympy, data), data


def test_swept_smith_against_sympy(monkeypatch):
    # 5 x 5 to 8 x 8 over Z with units and non-units, so that the sweep
    # in invariant_factors both takes pivots and sets rows aside, and the
    # eliminator gets a residual with non-unit entries
    sympy = pytest.importorskip("sympy")
    swept = []
    real = snf.unit_pivots

    def recording(R, vectors):
        pivots, aside = real(R, vectors)
        swept.append((len(pivots), sum(1 for v in aside if v)))
        return pivots, aside
    monkeypatch.setattr(snf, "unit_pivots", recording)
    rng = random.Random(71)
    for _ in range(30):
        nr, nc = rng.randrange(5, 9), rng.randrange(5, 9)
        data = [[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(nc)]
                for _ in range(nr)]
        M = Matrix.from_rows(ZZ, data)
        want = sympy_factors(sympy, data)
        assert invariant_factors(M)[0] == want, data
        assert smith_normal_form(M).diag == want, data
    assert sum(1 for p, a in swept if p and a) >= 10


def test_smith_transforms_random():
    rng = random.Random(7)
    for _ in range(30):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        data = [[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)]
        M = Matrix.from_rows(ZZ, data)
        res = smith_normal_form(M)
        check_transforms(M, res)


def test_smith_over_q():
    M = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    res = smith_normal_form(M)
    assert res.diag == [1]
    check_transforms(M, res)


def test_smith_mixed_unit_diagonal():
    # the unit is skipped by the divisibility fix; 2 and 3 still merge
    M = Matrix.from_rows(ZZ, [[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    res = smith_normal_form(M)
    assert res.diag == [1, 1, 6]
    check_transforms(M, res)


def span_mod(columns, m, n):
    """All Z/m-combinations of the given sparse columns, as tuples."""
    vecs = {(0,) * n}
    for col in columns:
        base = tuple(col.get(i, 0) % m for i in range(n))
        new = set()
        for v in vecs:
            w = v
            for _ in range(m):
                w = tuple((a + b) % m for a, b in zip(w, base))
                new.add(w)
        vecs |= new
    return vecs


def test_smith_zmod_cokernel_order():
    # |coker| counted by brute force must match the diagonal's prediction:
    # coker = sum of Z/m/(d_i) plus free part, of order prod(d_i) * m^(extra)
    rng = random.Random(23)
    for m in (4, 6, 12):
        R = Zmod(m)
        for _ in range(12):
            nr = rng.randrange(1, 4)
            nc = rng.randrange(1, 4)
            data = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
            M = Matrix.from_rows(R, data)
            res = smith_normal_form(M)
            check_transforms(M, res)
            cols = [M.column(j) for j in range(nc)]
            image = span_mod(cols, m, nr)
            coker = m ** nr // len(image)
            pred = m ** (nr - len(res.diag))
            for d in res.diag:
                pred *= d
            assert coker == pred, (m, data, res.diag)
            for d in res.diag:
                assert m % d == 0 and 1 <= d < m


def test_solve_and_kernel():
    rng = random.Random(5)
    for _ in range(25):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        data = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(nr)]
        M = Matrix.from_rows(ZZ, data)
        res = smith_normal_form(M)
        x = {j: rng.randrange(-3, 4) for j in range(nc)}
        x = {j: v for j, v in x.items() if v}
        b = M @ x
        got = res.solve(b)
        assert got is not None
        assert M @ got == b
        Vc = res.V.columns()
        for j in range(res.rank, nc):
            assert M @ Vc.get(j, {}) == {}


def test_solve_unsolvable():
    M = Matrix.from_rows(ZZ, [[2, 0], [0, 2]])
    res = smith_normal_form(M)
    assert res.solve({0: 1}) is None
    assert res.solve({0: 2, 1: 4}) == {0: 1, 1: 2}


def test_solve_matrix_columnwise():
    M = Matrix.from_rows(ZZ, [[1, 2], [0, 3]])
    B = Matrix.from_rows(ZZ, [[3, 1], [3, 0]])
    X = solve_matrix(smith_normal_form(M), B)
    assert M @ X == B


def test_hermite_canonical():
    # the Hermite form depends only on the column lattice
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        data = [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(n)]
        M = Matrix.from_rows(ZZ, data)
        H1 = hermite_column_form(M)
        # recombine columns by a unimodular transform: shear then reverse
        cols = [M.column(j) for j in range(k)]
        for _ in range(6):
            a = rng.randrange(k)
            b = rng.randrange(k)
            if a != b:
                c = rng.randrange(-2, 3)
                for i, v in list(cols[b].items()):
                    w = cols[a].get(i, 0) + c * v
                    if w:
                        cols[a][i] = w
                    else:
                        cols[a].pop(i, None)
        cols.reverse()
        H2 = hermite_column_form(Matrix.from_columns(ZZ, n, cols))
        assert H1 == H2


def random_columns(rng, R, n, k, lo=-5, hi=6):
    data = [[rng.randrange(lo, hi) for _ in range(k)] for _ in range(n)]
    M = Matrix.from_rows(R, data)
    return [M.column(j) for j in range(k)]


def recombined(rng, R, cols):
    """Invertible column operations on cols: shears, then reverse."""
    cols = [dict(c) for c in cols]
    k = len(cols)
    for _ in range(6):
        a = rng.randrange(k)
        b = rng.randrange(k)
        if a == b:
            continue
        c = R.el(rng.randrange(-2, 3))
        for i, v in list(cols[b].items()):
            w = R.add(cols[a].get(i, R.zero), R.mul(c, v))
            if R.is_zero(w):
                cols[a].pop(i, None)
            else:
                cols[a][i] = w
    cols.reverse()
    return cols


@pytest.mark.parametrize("R", [QQ, Zmod(5)], ids=["Q", "Z5"])
def test_hermite_canonical_over_fields(R):
    # two spanning sets of one subspace give the same reduced echelon form
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randrange(1, 6)
        k = rng.randrange(1, 5)
        cols = random_columns(rng, R, n, k)
        H1 = hermite_column_form(Matrix.from_columns(R, n, cols))
        # a redundant extra column: the sum of two of the others
        extra = dict(cols[0])
        for i, v in cols[-1].items():
            w = R.add(extra.get(i, R.zero), v)
            if R.is_zero(w):
                extra.pop(i, None)
            else:
                extra[i] = w
        other = recombined(rng, R, cols) + [extra]
        rng.shuffle(other)
        H2 = hermite_column_form(Matrix.from_columns(R, n, other))
        assert H1 == H2
        Hc = H1.columns()
        pivots = [min(Hc[j]) for j in range(H1.ncols)]
        assert pivots == sorted(set(pivots))
        for j, r in enumerate(pivots):
            assert H1.get(r, j) == R.one
            assert all(H1.get(r, l) == R.zero for l in range(H1.ncols) if l != j)


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(5)], ids=["Z", "Q", "Z5"])
def test_hermite_solve_round_trip(R):
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randrange(1, 7)
        k = rng.randrange(1, 5)
        B = hermite_column_form(Matrix.from_columns(R, n, random_columns(rng, R, n, k)))
        X = Matrix.from_rows(R, [[rng.randrange(-4, 5) for _ in range(3)]
                                 for _ in range(B.ncols)], ncols=3)
        assert hermite_solve(B, B @ X) == X


def test_hermite_solve_vector_off_the_span():
    # pivots in rows 0 and 1; row 2 is no pivot row
    for R in (ZZ, QQ, Zmod(5)):
        B = Matrix.from_columns(R, 3, [{0: R.one, 2: R.one}, {1: R.one}])
        assert hermite_solve_vector(B, {2: R.one}) is None
        # the residual after clearing row 0 has its lowest entry in row 2
        assert hermite_solve_vector(B, {0: R.one}) is None
        assert hermite_solve_vector(B, {0: R.one, 1: R.one, 2: R.one}) == {
            0: R.one, 1: R.one}
    # over Z the pivot must divide the residual entry
    B = Matrix.from_columns(ZZ, 2, [{0: 2}])
    assert hermite_solve_vector(B, {0: 1}) is None
    assert hermite_solve_vector(B, {0: 4}) == {0: 2}


def residual_walk_solve(B, c):
    """B x == c by the residual walk hermite_solve_vector once ran, for
    the reference: clear the residual's lowest row with the column that
    pivots there, and fail at a row no column pivots at."""
    R = B.ring
    pivots = {min(col): (j, col) for j, col in B.columns().items()}
    residual = dict(c)
    x = {}
    while residual:
        r = min(residual)
        if r not in pivots:
            return None
        j, col = pivots[r]
        if not R.divides(col[r], residual[r]):
            return None
        q = x[j] = R.div(residual[r], col[r])
        for i, e in col.items():
            w = R.sub(residual.get(i, R.zero), R.mul(q, e))
            if R.is_zero(w):
                residual.pop(i, None)
            else:
                residual[i] = w
    return x


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(5), Zmod(4), Zmod(6), Zmod(12)],
                         ids=["Z", "Q", "Z5", "Z4", "Z6", "Z12"])
def test_hermite_solve_matches_the_residual_walk(R):
    # the same X column by column, or None exactly when some column of C
    # is off the span; bases include non-unit pivot rows whose earlier
    # columns are nonzero there, except over fields, where none exist
    rng = random.Random(47)
    mixed_pivot_rows = 0
    off_span = 0
    for _ in range(40):
        n = rng.randrange(1, 7)
        cols = random_columns(rng, R, n, rng.randrange(1, 5))
        B = hermite_column_form(Matrix.from_columns(R, n, cols))
        for j, col in B.columns().items():
            row = B.rows[min(col)]
            if row[j] != R.one and len(row) > 1:
                mixed_pivot_rows += 1
        inside = []
        for _ in range(3):
            x = {j: R.el(rng.randrange(-4, 5)) for j in range(B.ncols)}
            inside.append(B @ {j: v for j, v in x.items() if not R.is_zero(v)})
        outside = random_columns(rng, R, n, 2)
        for C_cols in (inside, inside + outside[:1], outside[1:] + inside):
            ref = [residual_walk_solve(B, c) for c in C_cols]
            X = hermite_solve(B, Matrix.from_columns(R, n, C_cols))
            if any(x is None for x in ref):
                off_span += 1
                assert X is None
            else:
                assert X == Matrix.from_columns(R, B.ncols, ref)
    assert off_span
    assert mixed_pivot_rows or R.is_field


def full_product_solve(B, C):
    """hermite_solve with the check it once made, the whole product
    B X == C, for the reference."""
    R = B.ring
    pivot_row = {}
    for r in sorted(B.rows):
        pivot_row.setdefault(max(B.rows[r]), r)
    X = {}
    for j in range(B.ncols):
        r = pivot_row[j]
        row = B.rows[r]
        x = dict(C.rows.get(r, ()))
        p = row[j]
        if len(row) > 1 or p != R.one:
            for l, b in row.items():
                if l in X:
                    _axpy(R, x, X[l], R.neg(b))
            if not all(R.divides(p, v) for v in x.values()):
                return None
            x = {k: R.div(v, p) for k, v in x.items()}
        if x:
            X[j] = x
    X = Matrix(R, B.ncols, C.ncols, X)
    return X if B @ X == C else None


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(5), Zmod(4), Zmod(6)],
                         ids=["Z", "Q", "Z5", "Z4", "Z6"])
def test_hermite_solve_checks_the_rows_off_the_pivots(R):
    # the same X, or None, as the whole product; some columns off the
    # span agree with a column of the span on every pivot row, so only
    # the rows off the pivots can reject them
    rng = random.Random(53)
    caught_off_pivots = 0
    for _ in range(60):
        n = rng.randrange(2, 8)
        B = hermite_column_form(Matrix.from_columns(
            R, n, random_columns(rng, R, n, rng.randrange(1, n))))
        others = [r for r in range(n)
                  if r not in snf.pivot_rows(B)]
        inside = [B @ {j: R.el(rng.randrange(-4, 5)) for j in range(B.ncols)}
                  for _ in range(3)]
        nudged = []
        if others:
            c, r = dict(inside[0]), rng.choice(others)
            c[r] = R.add(c.get(r, R.zero), R.el(rng.randrange(1, 4)))
            nudged.append(c)
            caught_off_pivots += full_product_solve(
                B, Matrix.from_columns(R, n, [c])) is None
        outside = random_columns(rng, R, n, 2)
        for cols in (inside, inside + nudged, outside + inside, nudged):
            C = Matrix.from_columns(R, n, cols)
            X = hermite_solve(B, C)
            assert X == full_product_solve(B, C)
            if X is not None:
                assert B @ X == C
    assert caught_off_pivots


def random_matrix(rng, R, i):
    """The i-th matrix of a mix: zero (empty shapes included), random of
    random density, full rank, and a product through a narrower rank."""
    nr, nc = rng.randrange(0, 7), rng.randrange(0, 7)
    kind = i % 4
    if kind == 0:
        return Matrix.zeros(R, nr, nc)
    if kind == 1:
        dens = rng.random()
        return Matrix.from_rows(R, [[rng.randrange(-4, 5) if rng.random() < dens
                                     else 0 for _ in range(nc)]
                                    for _ in range(nr)], ncols=nc)
    if kind == 2:
        # full rank: a shuffled partial identity, any further rows random,
        # then invertible row shears
        r = min(nr, nc)
        pick = rng.sample(range(nc), r)
        rows = [[int(j == pick[i]) for j in range(nc)] if i < r
                else [rng.randrange(-3, 4) for _ in range(nc)]
                for i in range(nr)]
        M = Matrix.from_rows(R, rows, ncols=nc)
        for _ in range(8 if nr else 0):
            a, b = rng.randrange(nr), rng.randrange(nr)
            if a != b:
                c = R.el(rng.randrange(-2, 3))
                for j, v in list(M.rows.get(b, {}).items()):
                    M.set(a, j, R.add(M.get(a, j), R.mul(c, v)))
        return M
    r = rng.randrange(0, max(min(nr, nc), 1))
    A = Matrix.from_rows(R, [[rng.randrange(-3, 4) for _ in range(r)]
                             for _ in range(nr)], ncols=r)
    B = Matrix.from_rows(R, [[rng.randrange(-3, 4) for _ in range(nc)]
                             for _ in range(r)], ncols=nc)
    return A @ B


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(5)], ids=["Z", "Q", "Z2", "Z5"])
def test_field_kernel_is_the_reduced_echelon_kernel(R):
    # kernel (one right-to-left elimination over a field, the echelon
    # form of [M; I] over Z) gives the basis that the Smith kernel
    # columns V[:, rank:] reach through hermite_column_form
    rng = random.Random(37)
    for i in range(1000):
        M = random_matrix(rng, R, i)
        K = kernel(M)
        smith = smith_normal_form(M, transforms=True)
        Vc = smith.V.columns()
        want = hermite_column_form(Matrix.from_columns(
            R, M.ncols, [Vc.get(j, {}) for j in range(smith.rank, M.ncols)]))
        assert K == want, M
        assert K.ncols == M.ncols - smith.rank
        assert (M @ K).is_zero()
        if i % 4 == 2:
            assert smith.rank == min(M.nrows, M.ncols)
        if i % 4 == 3:
            assert smith.rank < max(min(M.nrows, M.ncols), 1)


def test_kernel_sets_aside_non_unit_rows():
    # the row's rightmost entry 3 is no unit over Z, so the row is set aside
    # and the residual [2 3] goes through integer_kernel
    assert kernel(Matrix.from_rows(ZZ, [[2, 3]])) == Matrix.from_rows(ZZ, [[3], [-2]])
    # over Z/6 neither 2 nor 3 is a unit: ker = {(x, y) : 2x + 3y = 0} is
    # {0, 3} x {0, 2, 4}, spanned by (3, 0) and (0, 2)
    R = Zmod(6)
    K = kernel(Matrix.from_rows(R, [[2, 3]]))
    assert K == integer_kernel(Matrix.from_rows(R, [[2, 3]]))
    assert K == Matrix.from_rows(R, [[3, 0], [0, 2]])


KERNEL_ENTRIES = (1, -1, 2, -2, 3, 4, 6)


def mixed_entry_matrix(rng, R):
    """A random matrix with entries from KERNEL_ENTRIES, non-units included,
    where some rows are combinations of two earlier ones."""
    nr, nc = rng.randrange(0, 7), rng.randrange(0, 8)
    dens = rng.random()
    data = [[rng.choice(KERNEL_ENTRIES) if rng.random() < dens else 0
             for _ in range(nc)] for _ in range(nr)]
    for i in range(2, nr):
        if rng.random() < 0.4:
            a, b = rng.sample(range(i), 2)
            ca, cb = rng.choice(KERNEL_ENTRIES), rng.choice(KERNEL_ENTRIES)
            data[i] = [ca * x + cb * y for x, y in zip(data[a], data[b])]
    return Matrix.from_rows(R, data, ncols=nc)


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(2), Zmod(5), Zmod(4), Zmod(6),
                               Zmod(12), Zmod(30)],
                         ids=["Z", "Q", "Z2", "Z5", "Z4", "Z6", "Z12", "Z30"])
def test_kernel_matches_the_stacked_echelon_form(R):
    # the echelon form of [M; I] serves every ring, so integer_kernel on
    # the whole of M is an oracle for kernel's unit-pivot elimination
    rng = random.Random(47)
    for _ in range(800):
        M = mixed_entry_matrix(rng, R)
        K = kernel(M)
        assert K == integer_kernel(M), M.to_lists()
        assert (M @ K).is_zero()
        assert hermite_column_form(K) == K


def test_integer_kernel_sum_matrix():
    M = Matrix.from_rows(ZZ, [[1, 1, 1]])
    K = integer_kernel(M)
    assert K.ncols == 2
    for j in range(K.ncols):
        assert M @ K.column(j) == {}
    # x = (1, -1, 0) lies in the kernel lattice
    res = smith_normal_form(K)
    assert res.solve({0: 1, 1: -1}) is not None


def test_integer_kernel_mod_brute():
    # kernel over a composite Z/m spans exactly the brute-force kernel
    rng = random.Random(31)
    for m in (4, 6):
        R = Zmod(m)
        for _ in range(10):
            nr = rng.randrange(1, 3)
            nc = rng.randrange(1, 4)
            data = [[rng.randrange(-3, 4) for _ in range(nc)] for _ in range(nr)]
            M = Matrix.from_rows(R, data)
            K = kernel(M)
            assert (M @ K).is_zero()
            assert hermite_column_form(K) == K
            kcols = [K.column(j) for j in range(K.ncols)]
            got = span_mod(kcols, m, nc)
            want = set()
            for idx in range(m ** nc):
                x = []
                t = idx
                for _ in range(nc):
                    x.append(t % m)
                    t //= m
                xv = {j: x[j] for j in range(nc) if x[j]}
                b = M @ xv
                if all(v % m == 0 for v in b.values()):
                    want.add(tuple(x))
            assert got == want, (m, data)


def test_kernel_over_each_ring():
    # x + y + z = 0 and 2y + 4z = 0: ker is spanned by (1, -2, 1) over Z, Q
    # and Z/5; over Z/4 the second row is 2y = 0, so ker is spanned by
    # (1, 0, 3) and (0, 2, 2)
    M = Matrix.from_rows(ZZ, [[1, 1, 1], [0, 2, 4]])
    for R in (ZZ, QQ, Zmod(5)):
        want = Matrix.from_rows(R, [[1], [-2], [1]])
        assert kernel(M.map_ring(R)) == want
        assert integer_kernel(M.map_ring(R)) == want
    R = Zmod(4)
    assert kernel(M.map_ring(R)) == Matrix.from_rows(R, [[1, 0], [0, 2], [3, 2]])
    # over Z/4 the kernel of [2] is 2*Z/4, of order 2, not free
    K = kernel(Matrix.from_rows(Zmod(4), [[2]]))
    assert K == Matrix.from_rows(Zmod(4), [[2]])


def test_howell_form_over_composite_moduli():
    # the Howell form depends only on the span; pivots divide m, earlier
    # columns are reduced below each pivot, and the columns pivoting at
    # or below row i span every vector of the span vanishing above i
    rng = random.Random(41)
    for m in (4, 6, 8, 12):
        R = Zmod(m)
        for _ in range(8):
            n = rng.randrange(1, 4)
            k = rng.randrange(1, 4)
            cols = random_columns(rng, R, n, k)
            H = hermite_column_form(Matrix.from_columns(R, n, cols))
            other = recombined(rng, R, cols) + [{i: R.mul(2, v) for i, v in cols[0].items()}]
            rng.shuffle(other)
            assert hermite_column_form(Matrix.from_columns(R, n, other)) == H
            Hc = [H.column(j) for j in range(H.ncols)]
            pivots = [min(c) for c in Hc]
            assert pivots == sorted(set(pivots))
            for j, r in enumerate(pivots):
                g = Hc[j][r]
                assert m % g == 0
                assert all(0 <= Hc[l].get(r, 0) < g for l in range(j))
            span = span_mod(cols, m, n)
            assert span_mod(Hc, m, n) == span
            for i in range(n):
                below = [c for c, r in zip(Hc, pivots) if r >= i]
                assert span_mod(below, m, n) == {v for v in span if not any(v[:i])}


def test_hermite_solve_vector_over_composite_moduli():
    # forward substitution against a Howell basis solves exactly the span
    rng = random.Random(43)
    for m in (4, 6, 9):
        R = Zmod(m)
        for _ in range(8):
            n = rng.randrange(1, 4)
            cols = random_columns(rng, R, n, rng.randrange(1, 4))
            B = hermite_column_form(Matrix.from_columns(R, n, cols))
            span = span_mod(cols, m, n)
            for idx in range(m ** n):
                v = tuple(idx // m ** i % m for i in range(n))
                c = {i: x for i, x in enumerate(v) if x}
                x = hermite_solve_vector(B, c)
                assert (x is not None) == (v in span)
                if x is not None:
                    assert B @ x == c


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(4), Zmod(6)], ids=["Z", "Q", "Z4", "Z6"])
def test_smith_form_is_canonical_and_matches_the_sweep(R, rp3):
    # transforms that diagonalize, a canonical diagonal in divisibility
    # order, and invariant_factors (the unit-pivot sweep, then the Smith
    # form of its residual) equal to the eliminator alone; the relabelled
    # boundary matrices of rp3 have hundreds of columns
    rng = random.Random(53)
    cases = [random_matrix(rng, R, i) if i % 2 else mixed_entry_matrix(rng, R)
             for i in range(300)]
    for k in (1, 2, 3):
        B = rp3.boundary_matrix(k, R)
        rows, cols = list(range(B.nrows)), list(range(B.ncols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        cases.append(B.submatrix(rows, cols))
    # the sparsest columns hold only the non-unit 2 (over Z, Z/4 and Z/6)
    rows = {i: {i: R.el(2)} for i in range(44)}
    rows.update({i: {44: R.one} for i in (44, 45, 46)})
    rows.update({i: {45: R.el(-1)} for i in (47, 48)})
    cases.append(Matrix(R, 49, 46, rows))
    for M in cases:
        res = smith_normal_form(M, transforms=True)
        check_transforms(M, res)
        assert all(R.canonical_unit(d) == R.one for d in res.diag), M.to_lists()
        assert invariant_factors(M)[0] == smith_normal_form(M, transforms=False).diag == res.diag, \
            M.to_lists()


def first_arrived_hermite_column_form(M):
    """hermite_column_form with the first-arrived column of each bucket as
    its pivot and a scan of every earlier pivot column at each new pivot
    row: the reference for the pivot choice and the row index."""
    R = M.ring
    composite = isinstance(R, ZmodRing) and not R.is_field
    waiting = {}
    seen = M.columns()
    for j in sorted(seen):
        if seen[j]:
            waiting.setdefault(min(seen[j]), []).append(dict(seen[j]))
    pivots = []
    while waiting:
        i = min(waiting)
        active = waiting.pop(i)
        c0 = active[0]
        for c in active[1:]:
            a, b = c0[i], c[i]
            if R.divides(a, b):
                _axpy(R, c, c0, R.neg(R.div(b, a)))
            else:
                g, s, t, u, v = R.bezout(a, b)
                nc0 = _combine(R, c0, c, s, t)
                nc = _combine(R, c0, c, u, v)
                c0 = nc0
                c.clear()
                c.update(nc)
            if c:
                waiting.setdefault(min(c), []).append(c)
        u = R.canonical_unit(c0[i])
        if u != R.one:
            c0 = {k: R.mul(u, v) for k, v in c0.items()}
        g = c0[i]
        for pc in pivots:
            e = pc.get(i)
            if e is not None:
                q = R.div(e, g) if R.is_field else e // g
                if q:
                    _axpy(R, pc, c0, R.neg(q))
        pivots.append(c0)
        if composite:
            ann = {k: R.mul(R.m // g, v) for k, v in c0.items()}
            ann = {k: v for k, v in ann.items() if v}
            if ann:
                waiting.setdefault(min(ann), []).append(ann)
    return Matrix.from_columns(R, M.nrows, pivots)


UNIT_AND_TWO = (1, -1, 2, -2)


def dense_low_rank(rng, R, nr, nc, r):
    """A dense nr x nc product A B of rank at most r, with the entries of A
    and B drawn from {1, -1, 2, -2}."""
    A = Matrix.from_rows(R, [[rng.choice(UNIT_AND_TWO) for _ in range(r)]
                             for _ in range(nr)], ncols=r)
    B = Matrix.from_rows(R, [[rng.choice(UNIT_AND_TWO) for _ in range(nc)]
                             for _ in range(r)], ncols=nc)
    return A @ B


def stacked_on_identity(M):
    rows = dict(M.rows)
    for j in range(M.ncols):
        rows[M.nrows + j] = {j: M.ring.one}
    return Matrix(M.ring, M.nrows + M.ncols, M.ncols, rows)


@pytest.mark.parametrize("R", [ZZ, QQ, Zmod(5), Zmod(4), Zmod(6), Zmod(12)],
                         ids=["Z", "Q", "Z5", "Z4", "Z6", "Z12"])
def test_hermite_form_does_not_depend_on_pivot_choice(R, monkeypatch):
    # the form is unique for the span, so the sparsest-pivot choice and
    # the row index must give the first-arrived, full-scan form; the
    # dense low-rank [D; I] stacks are the residuals kernel sets aside
    rng = random.Random(59)
    cases = []
    for _ in range(12):
        r = rng.randrange(1, 4)
        D = dense_low_rank(rng, R, rng.randrange(r, r + 4),
                           rng.randrange(1, 151), r)
        cases.append(stacked_on_identity(D))
    for _ in range(100):
        n = rng.randrange(1, 7)
        cases.append(Matrix.from_columns(R, n, random_columns(
            rng, R, n, rng.randrange(1, 6))))
        cases.append(mixed_entry_matrix(rng, R))
    for M in cases:
        assert hermite_column_form(M) == first_arrived_hermite_column_form(M), \
            M.to_lists()
    # kernel's own residual: ker(D) drops columns on some of these, so
    # the free columns that D touches are combined through it
    drops = []
    original = snf.integer_kernel

    def recording(D):
        K = original(D)
        drops.append(K.ncols < D.ncols)
        return K

    monkeypatch.setattr(snf, "integer_kernel", recording)
    for _ in range(40):
        r = rng.randrange(1, 4)
        M = dense_low_rank(rng, R, rng.randrange(r, r + 4),
                           rng.randrange(1, 41), r)
        rows = list(range(M.nrows))
        rng.shuffle(rows)
        M = M.submatrix(rows, list(range(M.ncols)))
        K = kernel(M)
        assert K == original(M), M.to_lists()
        assert (M @ K).is_zero()
    assert any(drops) or R.is_field


@pytest.mark.parametrize("R", [ZZ, Zmod(4), Zmod(6)], ids=["Z", "Z4", "Z6"])
def test_integer_kernel_residual_work_is_linear(R, monkeypatch):
    # a dense rank-1 residual: each column of [D; I] is sent on to its
    # own row of the I block, not through every later bucket
    rng = random.Random(61)
    n = 400
    D = dense_low_rank(rng, R, 4, n, 1)
    calls = [0]
    original = snf._axpy

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(snf, "_axpy", counting)
    K = integer_kernel(D)
    assert (D @ K).is_zero()
    assert calls[0] < 10 * n
