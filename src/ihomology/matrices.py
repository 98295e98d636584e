"""Sparse exact matrices over the coefficient rings.

A Matrix stores only nonzero entries as a dict of rows, each row a dict
column -> entry.  Vectors are plain dicts index -> entry, zeros omitted.
Everything is exact; no floats appear anywhere in the package.
"""


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, nrows, ncols, rows=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        one = ring.el(1)
        return cls(ring, n, n, {i: {i: one} for i in range(n)})

    @classmethod
    def from_rows(cls, ring, data, ncols=None):
        """Build from a list of dense row lists (entries coerced via ring.el)."""
        nrows = len(data)
        if ncols is None:
            ncols = len(data[0]) if data else 0
        rows = {}
        for i, row in enumerate(data):
            r = {}
            for j, x in enumerate(row):
                v = ring.el(x)
                if not ring.is_zero(v):
                    r[j] = v
            if r:
                rows[i] = r
        return cls(ring, nrows, ncols, rows)

    @classmethod
    def from_columns(cls, ring, nrows, columns):
        """Build from a list of sparse column vectors (dicts row -> entry)."""
        rows = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not ring.is_zero(v):
                    rows.setdefault(i, {})[j] = v
        return cls(ring, nrows, len(columns), rows)

    def get(self, i, j):
        row = self.rows.get(i)
        if row is None:
            return self.ring.zero
        return row.get(j, self.ring.zero)

    def set(self, i, j, v):
        if self.ring.is_zero(v):
            row = self.rows.get(i)
            if row is not None:
                row.pop(j, None)
                if not row:
                    del self.rows[i]
        else:
            self.rows.setdefault(i, {})[j] = v

    def columns(self):
        """Column-index view: dict col -> dict row -> entry, built fresh
        on every call, so that no matrix keeps a second copy of itself."""
        cols = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                cols.setdefault(j, {})[i] = v
        return cols

    def column(self, j):
        return {i: row[j] for i, row in self.rows.items() if j in row}

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def is_zero(self):
        return not self.rows

    def transpose(self):
        rows = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                rows.setdefault(j, {})[i] = v
        return Matrix(self.ring, self.ncols, self.nrows, rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    __hash__ = None  # mutable

    def __matmul__(self, other):
        R = self.ring
        if isinstance(other, dict):
            # matrix @ vector
            out = {}
            for i, row in self.rows.items():
                acc = R.zero
                for j, v in row.items():
                    x = other.get(j)
                    if x is not None:
                        acc = R.add(acc, R.mul(v, x))
                if not R.is_zero(acc):
                    out[i] = acc
            return out
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ "
                             f"{other.nrows}x{other.ncols}")
        rows = {}
        orows, product = other.rows, R.row_product
        for i, row in self.rows.items():
            acc = product(row, orows)
            if acc:
                rows[i] = acc
        return Matrix(R, self.nrows, other.ncols, rows)

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return Matrix(R, self.nrows, self.ncols)
        rows = {i: {j: R.mul(c, v) for j, v in r.items()}
                for i, r in self.rows.items()}
        return Matrix(R, self.nrows, self.ncols, rows)

    def submatrix(self, row_idx, col_idx):
        """Rows and columns picked by index lists, in the given order."""
        rmap = {i: k for k, i in enumerate(row_idx)}
        cmap = {j: k for k, j in enumerate(col_idx)}
        rows = {}
        for i, row in self.rows.items():
            ni = rmap.get(i)
            if ni is None:
                continue
            nr = {cmap[j]: v for j, v in row.items() if j in cmap}
            if nr:
                rows[ni] = nr
        return Matrix(self.ring, len(row_idx), len(col_idx), rows)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        rows = {i: dict(r) for i, r in self.rows.items()}
        off = self.ncols
        for i, orow in other.rows.items():
            row = rows.setdefault(i, {})
            for j, v in orow.items():
                row[off + j] = v
        return Matrix(self.ring, self.nrows, self.ncols + other.ncols, rows)

    def map_ring(self, ring):
        """Reinterpret entries in another ring via ring.el."""
        rows = {}
        for i, row in self.rows.items():
            nr = {}
            for j, v in row.items():
                w = ring.el(v)
                if not ring.is_zero(w):
                    nr[j] = w
            if nr:
                rows[i] = nr
        return Matrix(ring, self.nrows, self.ncols, rows)

    def to_lists(self):
        return [[self.get(i, j) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def __repr__(self):
        if self.nrows * self.ncols > 400:
            return (f"<Matrix {self.nrows}x{self.ncols} over {self.ring.name}, "
                    f"{self.nnz()} nonzero>")
        body = "\n".join("[" + "  ".join(str(self.get(i, j))
                                         for j in range(self.ncols)) + "]"
                         for i in range(self.nrows))
        return f"Matrix({self.nrows}x{self.ncols} over {self.ring.name})\n{body}"
