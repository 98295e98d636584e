"""Smith normal form, echelon bases, kernels and echelon solves.

The eliminator reduces a sparse matrix to diagonal form by invertible row
and column operations, tracking the transforms or not: U @ M @ V == D
with d_1 | d_2 | ... along the diagonal.  It works over any of the rings
in rings.py; over Z/m the Bezout steps are computed on canonical lifts,
so every 2x2 block used is invertible mod m.

Pivoting prefers units and sparse rows/columns (a cheap Markowitz rule),
which keeps fill-in tame on the large matrices invariant_factors may
get.  Columns are searched in the explicit sorted order (row count,
then column index), read off a lazy min-heap instead of a full sort per
pivot, so results are deterministic.

Kernels and homology groups first run one unit-pivot sweep
(unit_pivots; Dumas, Heckenbach, Saunders & Welker 2003): kernel on
the rows of M, complexes.group_from_cycles mirrored on the columns of
its boundary coordinates.  Only the small residual the sweep sets
aside goes on, to integer_kernel or to smith_normal_form.

Bases of column spans are kept in one canonical echelon form
(hermite_column_form): the column Hermite form over Z, the reduced
column echelon form over a field, and the Howell form over a composite
Z/m, whose pivots divide m and whose columns pivoting at or below any
row span every vector of the span that vanishes above it.  The form is
unique for the span, so the order of the steps is free: each pivot
column is the one with the smallest entry, then the fewest entries,
then the latest next row, and a row index sends each new pivot only
to the earlier pivot columns with an entry in its row.  Kernels come
in that form for every ring (kernel): the sweep's residual goes
through the echelon form of itself stacked on the identity
(integer_kernel); the kernel vectors of the free columns that residual
touches are combined through its kernel, and the others are kept as
they stand.  Vectors are written in such a basis by one solve
for every ring (hermite_solve), with no transforms: forward
substitution on the pivot rows gives the coordinates, and one product
with the other rows of the basis checks that every vector lies in its
span.
"""

import heapq

from .matrices import Matrix
from .rings import ZmodRing


def _axpy(R, dst, src, c):
    """dst += c * src on sparse dicts, in place."""
    if R.is_zero(c):
        return
    for k, v in src.items():
        w = R.add(dst.get(k, R.zero), R.mul(c, v))
        if R.is_zero(w):
            dst.pop(k, None)
        else:
            dst[k] = w


def _combine(R, x, y, s, t):
    """Return s*x + t*y as a new sparse dict."""
    out = {}
    for k, v in x.items():
        w = R.mul(s, v)
        if not R.is_zero(w):
            out[k] = w
    for k, v in y.items():
        w = R.add(out.get(k, R.zero), R.mul(t, v))
        if R.is_zero(w):
            out.pop(k, None)
        else:
            out[k] = w
    return out


class SNFResult:
    """Diagonal form of a matrix plus (optionally) the change of basis.

    diag lists the nonzero diagonal entries in divisibility order; rank is
    their count.  When transforms were requested, U, Uinv, V, Vinv satisfy
    U @ M @ V == D, U @ Uinv == I, V @ Vinv == I over the ring.
    """

    def __init__(self, ring, nrows, ncols, diag, U=None, Uinv=None, V=None, Vinv=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.rank = len(diag)
        self.U = U
        self.Uinv = Uinv
        self.V = V
        self.Vinv = Vinv

    def D_matrix(self):
        D = Matrix(self.ring, self.nrows, self.ncols)
        for p, d in enumerate(self.diag):
            D.set(p, p, d)
        return D

    def solve(self, b):
        """Return one x with M @ x == b, or None if there is none.

        b is a sparse dict.  Requires transforms.
        """
        R = self.ring
        c = self.U @ b
        y = {}
        for i, ci in c.items():
            if i >= self.rank:
                return None
            d = self.diag[i]
            if not R.divides(d, ci):
                return None
            q = R.div(ci, d)
            if not R.is_zero(q):
                y[i] = q
        return self.V @ y


class _Eliminator:
    def __init__(self, M, transforms):
        R = self.R = M.ring
        self.nrows = M.nrows
        self.ncols = M.ncols
        self.rows = {i: dict(r) for i, r in M.rows.items() if r}
        self.colrows = {}
        for i, r in self.rows.items():
            for j in r:
                self.colrows.setdefault(j, set()).add(i)
        # lazy min-heap of (row count, column): every change of a column's
        # count pushes the new pair, and stale pairs are dropped when popped
        self.heap = [(len(s), j) for j, s in self.colrows.items()]
        heapq.heapify(self.heap)
        if not isinstance(transforms, bool):
            raise TypeError("transforms is True or False")
        self.track = transforms
        if transforms:
            one = R.el(1)
            self.U = {i: {i: one} for i in range(self.nrows)}
            self.Uinv_cols = {i: {i: one} for i in range(self.nrows)}
            self.V_cols = {j: {j: one} for j in range(self.ncols)}
            self.Vinv = {j: {j: one} for j in range(self.ncols)}
        self.rank = 0

    # --- raw matrix operations (rows + colrows stay consistent) ---

    def _entry_set(self, i, j, w):
        R = self.R
        row = self.rows.get(i)
        if R.is_zero(w):
            if row is not None and row.pop(j, None) is not None:
                s = self.colrows[j]
                s.discard(i)
                if s:
                    heapq.heappush(self.heap, (len(s), j))
                else:
                    del self.colrows[j]
                if not row:
                    del self.rows[i]
        else:
            if row is None:
                row = self.rows[i] = {}
            if j not in row:
                s = self.colrows.setdefault(j, set())
                s.add(i)
                heapq.heappush(self.heap, (len(s), j))
            row[j] = w

    def _m_row_axpy(self, i, k, c):
        R = self.R
        src = self.rows.get(k)
        if not src:
            return
        for j, v in list(src.items()):
            w = R.add(self.rows.get(i, {}).get(j, R.zero), R.mul(c, v))
            self._entry_set(i, j, w)

    def _m_row_2x2(self, i, k, s, t, u, v):
        R = self.R
        ri = self.rows.pop(i, {})
        rk = self.rows.pop(k, {})
        touched = set(ri) | set(rk)
        for j in touched:
            cs = self.colrows.get(j)
            if cs is not None:
                cs.discard(i)
                cs.discard(k)
                if not cs:
                    del self.colrows[j]
        ni = _combine(R, ri, rk, s, t)
        nk = _combine(R, ri, rk, u, v)
        if ni:
            self.rows[i] = ni
            for j in ni:
                self.colrows.setdefault(j, set()).add(i)
        if nk:
            self.rows[k] = nk
            for j in nk:
                self.colrows.setdefault(j, set()).add(k)
        for j in touched:
            cs = self.colrows.get(j)
            if cs is not None:
                heapq.heappush(self.heap, (len(cs), j))

    def _m_row_swap(self, i, k):
        ri = self.rows.pop(i, None)
        rk = self.rows.pop(k, None)
        for j in set(ri or ()) | set(rk or ()):
            cs = self.colrows[j]
            cs.discard(i)
            cs.discard(k)
        if rk is not None:
            self.rows[i] = rk
            for j in rk:
                self.colrows[j].add(i)
        if ri is not None:
            self.rows[k] = ri
            for j in ri:
                self.colrows[j].add(k)

    def _m_col_axpy(self, j, l, c):
        R = self.R
        for i in list(self.colrows.get(l, ())):
            v = self.rows[i][l]
            w = R.add(self.rows[i].get(j, R.zero), R.mul(c, v))
            self._entry_set(i, j, w)

    def _m_col_2x2(self, j, l, s, t, u, v):
        R = self.R
        touched = set(self.colrows.get(j, ())) | set(self.colrows.get(l, ()))
        for i in touched:
            row = self.rows[i]
            a = row.get(j, R.zero)
            b = row.get(l, R.zero)
            self._entry_set(i, j, R.add(R.mul(s, a), R.mul(t, b)))
            self._entry_set(i, l, R.add(R.mul(u, a), R.mul(v, b)))

    def _m_col_swap(self, j, l):
        sj = self.colrows.pop(j, set())
        sl = self.colrows.pop(l, set())
        for i in sj | sl:
            row = self.rows[i]
            a = row.pop(j, None)
            b = row.pop(l, None)
            if b is not None:
                row[j] = b
            if a is not None:
                row[l] = a
        if sl:
            self.colrows[j] = sl
            heapq.heappush(self.heap, (len(sl), j))
        if sj:
            self.colrows[l] = sj
            heapq.heappush(self.heap, (len(sj), l))

    def _m_col_scale(self, j, c):
        R = self.R
        for i in self.colrows.get(j, ()):
            self.rows[i][j] = R.mul(c, self.rows[i][j])

    # --- operations mirrored into the transforms ---

    def row_axpy(self, i, k, c):
        self._m_row_axpy(i, k, c)
        if self.track:
            R = self.R
            _axpy(R, self.U.setdefault(i, {}), self.U.get(k, {}), c)
            _axpy(R, self.Uinv_cols.setdefault(k, {}), self.Uinv_cols.get(i, {}), R.neg(c))

    def row_2x2(self, i, k, s, t, u, v):
        self._m_row_2x2(i, k, s, t, u, v)
        if self.track:
            R = self.R
            Ui = self.U.pop(i, {})
            Uk = self.U.pop(k, {})
            self.U[i] = _combine(R, Ui, Uk, s, t)
            self.U[k] = _combine(R, Ui, Uk, u, v)
            dinv = R.inv(R.sub(R.mul(s, v), R.mul(t, u)))
            Ci = self.Uinv_cols.pop(i, {})
            Ck = self.Uinv_cols.pop(k, {})
            self.Uinv_cols[i] = _combine(R, Ci, Ck, R.mul(dinv, v), R.neg(R.mul(dinv, u)))
            self.Uinv_cols[k] = _combine(R, Ci, Ck, R.neg(R.mul(dinv, t)), R.mul(dinv, s))

    def row_swap(self, i, k):
        self._m_row_swap(i, k)
        if self.track:
            self.U[i], self.U[k] = self.U.pop(k, {}), self.U.pop(i, {})
            self.Uinv_cols[i], self.Uinv_cols[k] = (
                self.Uinv_cols.pop(k, {}), self.Uinv_cols.pop(i, {}))

    def col_axpy(self, j, l, c):
        self._m_col_axpy(j, l, c)
        if self.track:
            R = self.R
            _axpy(R, self.V_cols.setdefault(j, {}), self.V_cols.get(l, {}), c)
            _axpy(R, self.Vinv.setdefault(l, {}), self.Vinv.get(j, {}), R.neg(c))

    def col_2x2(self, j, l, s, t, u, v):
        self._m_col_2x2(j, l, s, t, u, v)
        if self.track:
            R = self.R
            Vj = self.V_cols.pop(j, {})
            Vl = self.V_cols.pop(l, {})
            self.V_cols[j] = _combine(R, Vj, Vl, s, t)
            self.V_cols[l] = _combine(R, Vj, Vl, u, v)
            dinv = R.inv(R.sub(R.mul(s, v), R.mul(t, u)))
            Wj = self.Vinv.pop(j, {})
            Wl = self.Vinv.pop(l, {})
            self.Vinv[j] = _combine(R, Wj, Wl, R.mul(dinv, v), R.neg(R.mul(dinv, u)))
            self.Vinv[l] = _combine(R, Wj, Wl, R.neg(R.mul(dinv, t)), R.mul(dinv, s))

    def col_swap(self, j, l):
        self._m_col_swap(j, l)
        if self.track:
            self.V_cols[j], self.V_cols[l] = (
                self.V_cols.pop(l, {}), self.V_cols.pop(j, {}))
            self.Vinv[j], self.Vinv[l] = self.Vinv.pop(l, {}), self.Vinv.pop(j, {})

    def col_scale(self, j, c):
        self._m_col_scale(j, c)
        if self.track:
            R = self.R
            self.V_cols[j] = {i: R.mul(c, v) for i, v in self.V_cols.get(j, {}).items()}
            cinv = R.inv(c)
            self.Vinv[j] = {i: R.mul(cinv, v) for i, v in self.Vinv.get(j, {}).items()}

    # --- main loop ---

    def _next_column(self, p, visited):
        """Pop the live (count, column) pair that comes next in sorted order
        among the columns >= p not yet visited, and record it in visited
        (column -> count); None when none is left."""
        heap, colrows = self.heap, self.colrows
        while heap:
            ln, j = heapq.heappop(heap)
            if j >= p and j not in visited and len(colrows.get(j, ())) == ln:
                visited[j] = ln
                return ln, j
        return None

    def _find_pivot(self, p):
        # columns are visited in (count, column) order off the heap, as a
        # full sort would give them; the visited pairs go back on it
        R = self.R
        visited = {}
        try:
            best = None
            found_unit = False
            while len(visited) < 40 and not (found_unit and len(visited) >= 4):
                nxt = self._next_column(p, visited)
                if nxt is None:
                    break
                ln, j = nxt
                for i in sorted(self.colrows[j]):
                    sz = R.size(self.rows[i][j])
                    cost = (ln - 1) * (len(self.rows[i]) - 1)
                    key = (sz, cost, i, j)
                    if best is None or key < best:
                        best = key
                        if sz == 1 and cost == 0:
                            return i, j
                    if sz == 1:
                        found_unit = True
            if best is None:
                return None
            if best[0] > 1:
                # no unit seen in the sparse columns; look everywhere for a
                # smaller pivot before committing to a non-unit
                while (nxt := self._next_column(p, visited)) is not None:
                    ln, j = nxt
                    for i in sorted(self.colrows[j]):
                        sz = R.size(self.rows[i][j])
                        if sz < best[0]:
                            best = (sz, (ln - 1) * (len(self.rows[i]) - 1), i, j)
            return best[2], best[3]
        finally:
            for j, ln in visited.items():
                heapq.heappush(self.heap, (ln, j))

    def _clear(self, p):
        R = self.R
        while True:
            colset = self.colrows.get(p, set())
            if len(colset) > 1 or (colset and p not in colset):
                for i in sorted(colset - {p}):
                    if i not in self.colrows.get(p, ()):
                        continue
                    a = self.rows[p][p]
                    b = self.rows[i][p]
                    if R.divides(a, b):
                        self.row_axpy(i, p, R.neg(R.div(b, a)))
                    else:
                        g, s, t, u, v = R.bezout(a, b)
                        self.row_2x2(p, i, s, t, u, v)
            rowd = self.rows.get(p, {})
            extras = sorted(j for j in rowd if j != p)
            for j in extras:
                if j not in self.rows.get(p, {}):
                    continue
                a = self.rows[p][p]
                b = self.rows[p][j]
                if R.divides(a, b):
                    self.col_axpy(j, p, R.neg(R.div(b, a)))
                else:
                    g, s, t, u, v = R.bezout(a, b)
                    self.col_2x2(p, j, s, t, u, v)
            colset = self.colrows.get(p, set())
            if colset <= {p} and all(j == p for j in self.rows.get(p, {})):
                break

    def _fix_divisibility(self):
        R = self.R
        one = R.el(1)
        changed = True
        while changed:
            changed = False
            for a_idx in range(self.rank):
                da = self.rows.get(a_idx, {}).get(a_idx, R.zero)
                # a unit divides every later entry: nothing to fix
                if R.is_zero(da) or R.is_unit(da):
                    continue
                for b_idx in range(a_idx + 1, self.rank):
                    db = self.rows.get(b_idx, {}).get(b_idx, R.zero)
                    if R.is_zero(db) or R.divides(da, db):
                        continue
                    self.col_axpy(a_idx, b_idx, one)
                    g, s, t, u, v = R.bezout(da, db)
                    self.row_2x2(a_idx, b_idx, s, t, u, v)
                    rem = self.rows.get(a_idx, {}).get(b_idx, R.zero)
                    if not R.is_zero(rem):
                        self.col_axpy(b_idx, a_idx, R.neg(R.div(rem, g)))
                    da = self.rows.get(a_idx, {}).get(a_idx, R.zero)
                    changed = True
                    if R.is_zero(da):
                        break

    def _compact_zeros(self):
        # over Z/m a divisibility fix can turn a diagonal entry into zero;
        # move surviving entries up so the nonzero block is an initial segment
        write = 0
        for q in range(self.rank):
            if self.rows.get(q, {}).get(q) is None:
                continue
            if q != write:
                self.row_swap(write, q)
                self.col_swap(write, q)
            write += 1
        self.rank = write

    def _normalize_units(self):
        R = self.R
        for q in range(self.rank):
            d = self.rows[q][q]
            u = R.canonical_unit(d)
            if not R.is_zero(R.sub(u, R.el(1))):
                self.col_scale(q, u)

    def run(self):
        p = 0
        limit = min(self.nrows, self.ncols)
        while p < limit:
            piv = self._find_pivot(p)
            if piv is None:
                break
            i, j = piv
            if i != p:
                self.row_swap(p, i)
            if j != p:
                self.col_swap(p, j)
            self._clear(p)
            p += 1
        self.rank = p
        self._fix_divisibility()
        self._compact_zeros()
        self._normalize_units()

    def result(self):
        R = self.R
        diag = [self.rows[q][q] for q in range(self.rank)]
        if not self.track:
            return SNFResult(R, self.nrows, self.ncols, diag)
        U = Matrix(R, self.nrows, self.nrows,
                   {i: dict(r) for i, r in self.U.items() if r})
        Uinv = Matrix.from_columns(
            R, self.nrows, [self.Uinv_cols.get(i, {}) for i in range(self.nrows)])
        V = Matrix.from_columns(
            R, self.ncols, [self.V_cols.get(j, {}) for j in range(self.ncols)])
        Vinv = Matrix(R, self.ncols, self.ncols,
                      {j: dict(r) for j, r in self.Vinv.items() if r})
        return SNFResult(R, self.nrows, self.ncols, diag, U, Uinv, V, Vinv)


def smith_normal_form(M, transforms=True):
    """Smith form of M, with the four transforms U, Uinv, V and Vinv
    when transforms is True and with none when it is False."""
    work = _Eliminator(M, transforms)
    work.run()
    return work.result()


def invariant_factors(M):
    """Nonzero diagonal of the Smith form, without transform tracking."""
    return smith_normal_form(M, transforms=False).diag


def solve_matrix(res, B):
    """Solve M @ X == B columnwise from an SNFResult of M; None if stuck."""
    cols = []
    Bc = B.columns()
    for j in range(B.ncols):
        x = res.solve(dict(Bc.get(j, {})))
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_columns(res.ring, res.ncols, cols)


def hermite_column_form(M):
    """Canonical basis of the column span of M, as matrix columns.

    Over Z this is the column-style Hermite form of the lattice: pivot
    rows strictly increase left to right, pivots are positive, and in
    each pivot row the entries of the earlier columns are reduced into
    [0, pivot).  Over a field the same steps give the reduced column
    echelon form: pivots are 1 and the earlier columns vanish in each
    pivot row.  Over a composite Z/m they give the Howell form: pivots
    divide m, and each pivot column c with pivot g also sends
    (m // g) * c, which vanishes at the pivot row, on to the later rows,
    so the columns pivoting at or below any row span every vector of
    the span that vanishes above it.  Either way the output depends
    only on the span of the input columns, which makes downstream bases
    reproducible, and each column's pivot is its first nonzero entry.

    Columns wait in buckets by their first nonzero row.  In each bucket
    the pivot column is the one with the smallest entry there (a unit
    needs no Bezout step), then the fewest entries, then the latest
    next row: every other column of the bucket takes on the pivot's
    tail, so a tail that starts late sends each of them on to its own
    next row instead of through every later bucket.  A row index keeps,
    for each row, the earlier pivot columns with an entry there, so the
    canonical reduction at a new pivot row visits only those, in
    ascending order.  Neither choice changes the output, which is the
    unique form of the span whatever the order of the steps.
    """
    R = M.ring
    composite = isinstance(R, ZmodRing) and not R.is_field
    waiting = {}
    seen = M.columns()
    for j in sorted(seen):
        if seen[j]:
            waiting.setdefault(min(seen[j]), []).append(dict(seen[j]))
    pivots = []
    # row -> indices of the pivot columns holding an entry in that row
    holders = {}
    while waiting:
        i = min(waiting)
        active = waiting.pop(i)
        c0 = active.pop(min(range(len(active)), key=lambda k: (
            R.size(active[k][i]), len(active[k]),
            -min((r for r in active[k] if r != i), default=M.nrows))))
        for c in active:
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
        for idx in sorted(holders.get(i, ())):
            pc = pivots[idx]
            # over Z and Z/m the floor quotient of the lifts puts the
            # entry in [0, g); R.div is exact over Z/m, so it cannot
            q = R.div(pc[i], g) if R.is_field else pc[i] // g
            if q:
                _axpy(R, pc, c0, R.neg(q))
                for r in c0:
                    if r in pc:
                        holders.setdefault(r, set()).add(idx)
                    elif r in holders:
                        holders[r].discard(idx)
        for r in c0:
            holders.setdefault(r, set()).add(len(pivots))
        del holders[i]
        pivots.append(c0)
        if composite:
            ann = {k: R.mul(R.m // g, v) for k, v in c0.items()}
            ann = {k: v for k, v in ann.items() if v}
            if ann:
                waiting.setdefault(min(ann), []).append(ann)
    return Matrix.from_columns(R, M.nrows, pivots)


def integer_kernel(M):
    """Canonical basis of ker(M) over any ring, as columns.

    The columns of hermite_column_form([M; I]) that pivot in the I block
    span every vector (0, x) of the span of the (M x, x), that is every x
    in ker(M); shifted up, they are ker(M) in Hermite form over Z, in
    Howell form over a composite Z/m and in reduced echelon form over a
    field.  kernel() gives the same basis; it calls this only on the
    residual rows its unit-pivot elimination sets aside.
    """
    R = M.ring
    r, n = M.nrows, M.ncols
    rows = dict(M.rows)
    for j in range(n):
        rows[r + j] = {j: R.one}
    H = hermite_column_form(Matrix(R, r + n, n, rows))
    Hc = H.columns()
    return Matrix.from_columns(R, n, [{i - r: v for i, v in Hc[j].items()}
                                      for j in range(H.ncols) if min(Hc[j]) >= r])


def unit_pivots(R, vectors):
    """The unit-pivot sweep of the sparse vectors, taken in order and
    changed in place: returns (pivots, aside).

    Each vector is reduced at its largest index while a pivot sits
    there; else it becomes the pivot there, scaled to 1, if its entry
    is a unit, and is set aside if not.  Back-substitution leaves each
    pivot P_c with its 1 at c and its other entries at pivot-free
    indices f < c, and the set-aside vectors, reduced by the pivots,
    only at such indices.  Every step is invertible, so the output
    spans what the input spans.
    """
    pivots = {}
    aside = []
    for v in vectors:
        while v:
            c = max(v)
            p = pivots.get(c)
            if p is not None:
                _axpy(R, v, p, R.neg(v[c]))
            elif R.is_unit(v[c]):
                inv = R.inv(v[c])
                pivots[c] = {k: R.mul(inv, x) for k, x in v.items()}
                break
            else:
                aside.append(v)
                break
    for c in sorted(pivots):
        p = pivots[c]
        for d in [d for d in p if d != c and d in pivots]:
            _axpy(R, p, pivots[d], R.neg(p[d]))
    for v in aside:
        for c in [c for c in v if c in pivots]:
            _axpy(R, v, pivots[c], R.neg(v[c]))
    return pivots, aside


def kernel(M):
    """Canonical basis of ker(M) over any ring, as matrix columns: the
    Hermite basis over Z, the Howell basis over a composite Z/m (the
    kernel need not be free there, but this basis spans it) and the
    reduced column echelon basis over a field.

    unit_pivots sweeps M's rows in index order, with no transforms.  The
    pivot rows P_c then hold their 1 at c and their other entries at
    free columns f < c, and the columns v_f = e_f - sum_c P_c[f] e_c of
    V are the basis over a field, where nothing is set aside.
    Otherwise the set-aside rows are a residual D on the free columns,
    and ker(M) is V ker(D).  Each v_f starts at f with a 1 and equals
    e_f on the free rows, so V keeps first entries and the entries at
    free rows: V times the canonical basis of ker(D) (from
    integer_kernel on the columns D touches, e_f on the rest) is the
    canonical basis of ker(M).  That product is never formed: a free
    column D does not touch gives v_f as it stands, under its place in
    the output, and only the v_f of the touched columns are combined,
    through the basis of ker(D).
    """
    R = M.ring
    pivots, aside = unit_pivots(R, (dict(M.rows[i]) for i in sorted(M.rows)))
    free = [f for f in range(M.ncols) if f not in pivots]
    touched = sorted({f for row in aside for f in row})
    at = {f: k for k, f in enumerate(touched)}
    # ker(D) as (first entry, vector over the free columns)
    Y = []
    if touched:
        D = Matrix(R, len(aside), len(touched),
                   {i: {at[f]: e for f, e in row.items()}
                    for i, row in enumerate(aside) if row})
        for y in integer_kernel(D).columns().values():
            Y.append((touched[min(y)], {touched[k]: e for k, e in y.items()}))
    # the output columns in order of first entry: v_f for each free f
    # that D does not touch, and V y for each y in ker(D)
    new = {f: j for j, f in enumerate(sorted(
        [f for f in free if f not in at] + [f for f, _ in Y]))}
    rows = {f: {new[f]: R.one} for f in free if f not in at}
    for c, p in pivots.items():
        r = {new[f]: R.neg(e) for f, e in p.items() if f != c and f not in at}
        if r:
            rows[c] = r
    if Y:
        Vt = {f: {f: R.one} for f in touched}
        for c, p in pivots.items():
            for f in [f for f in p if f in at]:
                Vt[f][c] = R.neg(p[f])
        for f, y in Y:
            v = {}
            for g, e in y.items():
                _axpy(R, v, Vt[g], e)
            for i, e in v.items():
                rows.setdefault(i, {})[new[f]] = e
    return Matrix(R, M.ncols, len(new), rows)


def pivot_rows(B):
    """The pivot row of each column of B, a basis from
    hermite_column_form: the first row whose last entry is in that
    column, since the column starts there and the later columns vanish
    there."""
    piv = {}
    for r in sorted(B.rows):
        piv.setdefault(max(B.rows[r]), r)
    return piv


def hermite_solve(B, C):
    """Solve B X == C for B from hermite_column_form; None if some column
    of C lies outside the span of B's columns.

    Forward substitution on B's pivot rows in ascending order, one row
    of X at a time, over any ring and with no transforms.  Column j of B
    has its pivot p at row r, and the later columns vanish there, so row
    r of B X == C fixes row j of X from the rows before it.  A pivot row
    that holds only its pivot 1 (every one over a field, nearly every
    one of a cycle basis over Z) gives row j of X as row r of C.  At any
    other pivot row the earlier rows of X are subtracted first, and p
    must divide what is left.  The substitution makes every pivot row
    of B X equal that row of C, so one product of B's other rows with X
    checks the rest of C, the same way over every ring: a vector of the
    span vanishing above a pivot row is spanned by the columns pivoting
    at or below it (over a composite Z/m by the Howell property), so
    the substitution finds every solvable column.
    """
    R = B.ring
    pivot_row = pivot_rows(B)
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
    done = set(pivot_row.values())
    rest = Matrix(R, B.nrows, B.ncols,
                  {r: row for r, row in B.rows.items() if r not in done})
    if (rest @ X).rows != {r: row for r, row in C.rows.items()
                           if r not in done}:
        return None
    return X


def hermite_solve_vector(B, c):
    """hermite_solve for one vector c, a sparse dict; returns the sparse
    x with B x == c, or None if c lies outside the span of B."""
    X = hermite_solve(B, Matrix.from_columns(B.ring, B.nrows, [c]))
    return None if X is None else X.column(0)
