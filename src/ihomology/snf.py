"""Smith normal form, echelon bases, kernels and echelon solves.

The eliminator reduces a sparse matrix to diagonal form by invertible row
and column operations, tracking the transforms or not: U @ M @ V == D
with d_1 | d_2 | ... along the diagonal.  It works over any of the rings
in rings.py; over Z/m the Bezout steps are computed on canonical lifts,
so every 2x2 block used is invertible mod m.

Kernels, homology groups and invariant_factors first run one
unit-pivot sweep (unit_pivots; Dumas, Heckenbach, Saunders & Welker
2003): kernel and invariant_factors on the rows of M,
complexes.group_from_cycles mirrored on the columns of its boundary
coordinates; invariant_factors skips given rows and reports its pivots,
for the clearing of complexes.shared_group.  Only the small residual
the sweep sets aside goes on, to integer_kernel or to
smith_normal_form, so the eliminator is a plain Smith form (Kannan &
Bachem 1979).  Its pivot is the smallest entry (a unit needs no Bezout
step), then the smallest Markowitz cost (r - 1)(c - 1) of its row and
column counts, then the first (row, column), so results are
deterministic.

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

from collections import Counter
from itertools import chain

from .matrices import Matrix


def _axpy(R, dst, src, c):
    """dst += c * src on sparse dicts, in place, by the ring's kernel."""
    R.axpy(dst, src, c)


def _combine(R, x, y, s, t):
    """Return s*x + t*y as a new sparse dict."""
    out = {}
    R.axpy(out, x, s)
    R.axpy(out, y, t)
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


def _step(R, vecs, i, k, s, t, u, v):
    """vecs[i], vecs[k] = s vecs[i] + t vecs[k], u vecs[i] + v vecs[k],
    on a dict of sparse vectors that omits the empty ones."""
    x, y = vecs.pop(i, {}), vecs.pop(k, {})
    for key, w in ((i, _combine(R, x, y, s, t)), (k, _combine(R, x, y, u, v))):
        if w:
            vecs[key] = w


class _Eliminator:
    """A plain Smith form of a matrix on its dict of sparse rows.

    Every step is one invertible 2x2 step [[s, t], [u, v]] on two rows
    or on two columns.  With transforms, the rows of U and the columns
    of V take the same step, and the columns of Uinv and the rows of
    Vinv its inverse transpose, so U @ M @ V is the matrix at hand and
    U @ Uinv == I throughout.
    """

    def __init__(self, M, transforms):
        if not isinstance(transforms, bool):
            raise TypeError("transforms is True or False")
        R = self.R = M.ring
        self.nrows = M.nrows
        self.ncols = M.ncols
        self.rows = {i: dict(r) for i, r in M.rows.items() if r}
        self.track = transforms
        if transforms:
            self.U = {i: {i: R.one} for i in range(M.nrows)}
            self.Uinv = {i: {i: R.one} for i in range(M.nrows)}
            self.V = {j: {j: R.one} for j in range(M.ncols)}
            self.Vinv = {j: {j: R.one} for j in range(M.ncols)}
        self.swap = (R.zero, R.one, R.one, R.zero)

    def _transform(self, fwd, back, i, k, s, t, u, v):
        """The step on fwd, its inverse transpose on back."""
        R = self.R
        _step(R, fwd, i, k, s, t, u, v)
        d = R.inv(R.sub(R.mul(s, v), R.mul(t, u)))
        _step(R, back, i, k, R.mul(d, v), R.neg(R.mul(d, u)),
              R.neg(R.mul(d, t)), R.mul(d, s))

    def row_step(self, i, k, s, t, u, v):
        _step(self.R, self.rows, i, k, s, t, u, v)
        if self.track:
            self._transform(self.U, self.Uinv, i, k, s, t, u, v)

    def col_step(self, j, l, s, t, u, v):
        R = self.R
        for row in self.rows.values():
            if j in row or l in row:
                a, b = row.pop(j, R.zero), row.pop(l, R.zero)
                for key, w in ((j, R.add(R.mul(s, a), R.mul(t, b))),
                               (l, R.add(R.mul(u, a), R.mul(v, b)))):
                    if not R.is_zero(w):
                        row[key] = w
        if self.track:
            self._transform(self.V, self.Vinv, j, l, s, t, u, v)

    def _pivot(self):
        """The pivot among the rows left: the smallest entry, then the
        smallest Markowitz cost, then the first (row, column); the scan
        stops at the first unit of cost 0."""
        R = self.R
        count = Counter(chain.from_iterable(self.rows.values()))
        best = None
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                key = (R.size(row[j]), (count[j] - 1) * (len(row) - 1), i, j)
                if key[:2] == (1, 0):
                    return i, j
                if best is None or key < best:
                    best = key
        return best[2:]

    def _reduce(self, step, p, k, a, b):
        """Clear the entry b of row or column k against the pivot a at p."""
        R = self.R
        if R.divides(a, b):
            step(k, p, R.one, R.neg(R.div(b, a)), R.zero, R.one)
        else:
            step(p, k, *R.bezout(a, b)[1:])

    def _clear(self, p):
        """Clear row and column p but for the pivot at (p, p)."""
        rows = self.rows
        while True:
            for i in sorted(i for i, r in rows.items() if i != p and p in r):
                self._reduce(self.row_step, p, i, rows[p][p], rows[i][p])
            right = sorted(j for j in rows[p] if j != p)
            if not right:
                return
            for j in right:
                self._reduce(self.col_step, p, j, rows[p][p], rows[p][j])

    def _fix_divisibility(self):
        R, diag = self.R, self.diag
        one, zero = R.one, R.zero
        changed = True
        while changed:
            changed = False
            for a in range(len(diag)):
                # a unit divides every later entry: nothing to fix
                if R.is_zero(diag[a]) or R.is_unit(diag[a]):
                    continue
                for b in range(a + 1, len(diag)):
                    da, db = diag[a], diag[b]
                    if R.is_zero(db) or R.divides(da, db):
                        continue
                    # (da, db) becomes (g, v db), g = s da + t db their gcd
                    g, s, t, u, v = R.bezout(da, db)
                    self.col_step(a, b, one, one, zero, one)
                    self.row_step(a, b, s, t, u, v)
                    rem = R.mul(t, db)
                    if not R.is_zero(rem):
                        self.col_step(b, a, one, R.neg(R.div(rem, g)), zero, one)
                    diag[a], diag[b] = g, R.mul(v, db)
                    changed = True

    def run(self):
        """Clear one pivot at a time, moving it from the rows to the
        diagonal; then fix the diagonal's divisibility, zeros and units,
        by steps that change only the transforms, as no rows are left."""
        R = self.R
        diag = self.diag = []
        while self.rows:
            p = len(diag)
            i, j = self._pivot()
            if i != p:
                self.row_step(p, i, *self.swap)
            if j != p:
                self.col_step(p, j, *self.swap)
            self._clear(p)
            diag.append(self.rows.pop(p)[p])
        self._fix_divisibility()
        # over Z/m the fix can turn a diagonal entry into zero; move the
        # others up so the nonzero block is an initial segment
        write = 0
        for q in range(len(diag)):
            if not R.is_zero(diag[q]):
                if q != write:
                    self.row_step(write, q, *self.swap)
                    self.col_step(write, q, *self.swap)
                    diag[write], diag[q] = diag[q], diag[write]
                write += 1
        del diag[write:]
        for q, d in enumerate(diag):
            c = R.canonical_unit(d)
            if c != R.one:
                diag[q] = R.mul(c, d)
                if self.track:
                    ci = R.inv(c)
                    self.V[q] = {i: R.mul(c, x) for i, x in self.V[q].items()}
                    self.Vinv[q] = {k: R.mul(ci, x) for k, x in self.Vinv[q].items()}

    def result(self):
        R, n, m, diag = self.R, self.nrows, self.ncols, self.diag
        if not self.track:
            return SNFResult(R, n, m, diag)
        U = Matrix(R, n, n, self.U)
        Uinv = Matrix.from_columns(R, n, [self.Uinv.get(i, {}) for i in range(n)])
        V = Matrix.from_columns(R, m, [self.V.get(j, {}) for j in range(m)])
        Vinv = Matrix(R, m, m, self.Vinv)
        return SNFResult(R, n, m, diag, U, Uinv, V, Vinv)


def smith_normal_form(M, transforms=True):
    """Smith form of M, with the four transforms U, Uinv, V and Vinv
    when transforms is True and with none when it is False."""
    work = _Eliminator(M, transforms)
    work.run()
    return work.result()


def invariant_factors(M, skip=()):
    """(factors, pivots): the nonzero diagonal of the Smith form of M, in
    divisibility order, and the set of columns of M at which its sweep
    put a unit pivot.

    unit_pivots on M's rows is an equivalence of M with diag(I, A), A
    the rows it sets aside, so the factors are a 1 for each pivot, then
    those of A's Smith form, taken with no transforms.  The rows in the
    set skip are not swept: the caller vouches that each is a
    combination of the rows before it, so the factors stay those of M.
    """
    R = M.ring
    pivots, aside = unit_pivots(R, (dict(M.rows[i]) for i in sorted(M.rows)
                                    if i not in skip))
    A = Matrix(R, len(aside), M.ncols, {i: v for i, v in enumerate(aside) if v})
    return ([R.one] * len(pivots) + smith_normal_form(A, transforms=False).diag,
            set(pivots))


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
    composite = R.free_order != 0
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
