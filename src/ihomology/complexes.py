"""Chain complexes of free modules and their homology, with generators.

A homology group is built on first use of its generators or
coordinates.  Until then, over Z and over fields, its orders are the
non-unit invariant factors of the boundaries B, then |cols| - rank
D[:, cols] - rank B zeros, for the cycles of D on the columns cols
(Dumas, Heckenbach, Saunders & Welker 2003).  Over a composite Z/m
these do not determine the group (over Z/4, D = (2 0) gives Z/4 with
B = (2 0)^T and Z/2 + Z/2 with B = (0 2)^T), so it is built.

A built group is a subquotient of the ambient chain module: a basis of
cycles in the canonical echelon form of snf.kernel (the Hermite form
over Z, the reduced column echelon form over a field, the Howell form
over a composite Z/m), the boundary columns solved in that basis by
snf.hermite_solve, the unit-pivot sweep of those coordinates
(snf.unit_pivots, mirrored), and the Smith form of only what the sweep
sets aside.  The unit invariant factors drop out with the pivots, so
the orders are those of the Smith form of all the coordinates.  This
gives explicit generating cycles and well-defined coordinates of
arbitrary cycles in the generators, which is what the product and
duality checks need; a cycle's coordinates come from the same solve,
which also rejects boundaries and chains that are not cycles, over
every ring.  Over a composite Z/m the cycle module need not be free,
so the relations among the cycle generators (the kernel of the cycle
basis) join the boundary coordinates before the sweep; the invariant
factors all divide m, and a free summand Z/m gets order m.

Every group is made by shared_group, in a memo: one dict per complex
and ring that holds everything its allowable sets determine.  The
complex has a differential D out of each degree k to degree k + step
(step -1 for chains, +1 for cochains), and allowable(k) lists the basis
elements of degree k a (co)chain may use.  The keys (memo_key) are

- ("basis", k, allowable(k), allowable(k + step)): the chains on
  allowable(k) whose image lies on allowable(k + step), and under
  ("basis", k, allowable(k), None) the cycles on allowable(k);
- ("group", k, allowable(k), allowable(k - step)): the group of degree
  k, whose boundaries come from the basis of degree k - step;
- ("factors", k, cols, good): the invariant factors of D on the basis
  ("basis", k, cols, good), which is D[:, cols] when good holds every
  row, so one boundary matrix, swept once, gives the rank out of one
  degree and the torsion of the next; beside them, the rows where its
  sweep put unit pivots, which clear the sweep of the next matrix;
- ("pivots", k, cols, None): pivot_rows of the cycle basis, found once
  for the solve, the clearing and every coords call;
- ("solved", k, allowable(k), allowable(k - step)): the pivot rows of
  the group's cycle basis, put once its solve has succeeded;
- ("differential", k): D, for the builds of the neighbouring degrees.

An empty set is None, and a set that allows all n elements is range(n),
so a key holds no tuple of everything and a full perverse set gives the
simplicial key.  A HomologyGroup is never changed once built, so
every complex whose allowable sets agree gets the same group: all
perversities of a space and ring share one memo (intersection.py,
blowup.py), and simplicial homology is the group that allows every
simplex.  Simplicial cohomology is the step +1 group of the cochain
memo, which allows every simplex too.  A PresentedComplex keeps a memo
in which every set allows everything, and homology_of a throwaway one.

The rule sweeps the boundaries B into a degree before the differential
D out of it, skipping D's columns at B's unit pivots: D sends to zero
the combination of B's columns that ends there in a 1, so that column
is a combination of earlier ones (clearing; Chen & Kerber 2011).  When
everything is allowed, the D of degree k - step is that B, so the rule
settles that group first: a reader that makes its groups before
reading any (cli) gets every sweep cleared by the one before it, as
cochains read upward already do.

A cycle basis is eliminated only on the rows that can be independent
(shared_cycles).  The group of degree k + step with the same allowable
sets has as boundaries D P, for P the basis of the chains on
allowable(k) whose image lies on allowable(k + step); once its solve
has succeeded, it has proved each column of D P in the span of its
cycle basis Z.  A nonzero vector of that span has its first nonzero
entry on a pivot row of Z: the vectors of the span that vanish above a
row are spanned by the columns pivoting at or below it (over a
composite Z/m by the Howell property), and those pivoting below it
vanish on it.  A chain x on allowable(k) with D x zero off
allowable(k + step) is a combination of P's columns, so D x = 0
exactly when D x also vanishes on the pivot rows, over every ring, and
the cycle basis of degree k is the kernel of D on those rows and the
rows off allowable(k + step) alone: the same module, so the same
canonical basis.  The group's solve need not have swept or built
anything for this.

A group build clears its sweep the same way (cleared_columns; Bauer,
Kerber & Reininghaus 2014).  Its boundaries are D_t P_t, for the
differential D_t out of degree t = k - step and the basis P_t of that
degree.  When the memo holds the group of degree t, the build, once
its own solve has pruned the cycles of degree t, reads their basis
Z_t.  Say a column z of Z_t has a unit pivot on the pivot row of the
column P_j of P_t.  Forward substitution gives z = u P_j + sum_{j' >
j} x_j' P_j', where u times P_j's pivot is z's, so u is a unit, and
D_t z = 0: the boundary column j is a combination of later ones, and
the sweep, which takes the columns last to first, leaves it out.  The
span is the same, so the group is; its generators and coordinates
also come out as a sweep of every column gives them, which the tests
check on every memo kind, since over Z a left-out column could in
principle have met a unit through the set-aside vectors.  A driver
that makes every group of a memo before it builds any, and builds
them in pruning order (cap), gets every group pruned and cleared; a
degree whose neighbour groups are never made is built as it stands.
"""

from .matrices import Matrix
from .rings import IntegerRing, RationalField
from .snf import (
    hermite_solve,
    hermite_solve_vector,
    invariant_factors,
    kernel,
    pivot_rows,
    smith_normal_form,
    unit_pivots,
)


class HomologyGroup:
    """A homology module with generators and coordinates.

    orders lists one entry per generator: 0 for infinite order, d >= 2
    for a generator of order d (over Z/m the value m marks a free Z/m
    summand).  reps holds matching ambient representatives.  cycles is
    the cycle basis the group was computed from, when it has columns.

    A group made by lazy() is built the first time its reps, coords or
    cycles are read, or by build(); its orders come from its rule until
    then, if it has one.
    """

    def __init__(self, ring, orders, reps, coord_fn, cycles=None):
        self.ring = ring
        self._orders = orders
        self._parts = reps, coord_fn, cycles
        self._build = self._rule = None

    @classmethod
    def lazy(cls, ring, build, rule=None):
        """The group that build() returns, built on first use; rule()
        gives its orders until then, or None when only the build can."""
        H = cls(ring, None, None, None)
        H._parts, H._build, H._rule = None, build, rule
        return H

    @classmethod
    def trivial(cls, ring):
        def coord_fn(v):
            if v:
                raise ValueError("not a cycle")
            return ()
        return cls(ring, [], [], coord_fn)

    @property
    def built(self):
        return self._parts is not None

    def build(self):
        """Build the generators and coordinates, if not yet; returns self."""
        if self._parts is None:
            G = self._build()
            self._orders, self._parts = G._orders, G._parts
            self._build = self._rule = None
        return self

    @property
    def orders(self):
        if self._orders is None:
            self._orders = self._rule() if self._rule else self.build()._orders
        return self._orders

    @property
    def reps(self):
        return self.build()._parts[0]

    @property
    def cycles(self):
        return self.build()._parts[2]

    @property
    def free_rank(self):
        return sum(1 for o in self.orders if o == self.ring.free_order)

    @property
    def torsion(self):
        return [o for o in self.orders if o != self.ring.free_order]

    def iso_type(self):
        return (self.free_rank, tuple(sorted(self.torsion)))

    def is_trivial(self):
        return not self.orders

    def coords(self, v):
        """Coordinates of the cycle v in the generators, normalized.

        Torsion coordinates are reduced mod the generator's order, so two
        cycles are homologous iff their coords are equal.  Raises if v is
        not a cycle.
        """
        return self.build()._parts[1](v)

    def __str__(self):
        R = self.ring
        if isinstance(R, IntegerRing):
            free_name = "Z"
        elif isinstance(R, RationalField):
            free_name = "Q"
        else:
            free_name = f"(Z/{R.m})"
        parts = []
        r = self.free_rank
        if r == 1:
            parts.append(free_name)
        elif r > 1:
            parts.append(f"{free_name}^{r}")
        for d in self.torsion:
            parts.append(f"Z/{d}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<HomologyGroup {self} over {self.ring.name}>"


def group_from_cycles(ring, Zb, B, pivot_row=None, solved=None):
    """Homology of span(Zb columns) / span(B columns), for B inside
    span(Zb).

    Zb is a cycle basis in the echelon form of hermite_column_form
    (from kernel(), or the cycles on the allowable elements of a
    perverse complex), so hermite_solve gives boundaries and cycles
    their cycle coordinates, Y and w, and rejects a boundary outside
    the span; pivot_row, when given, is pivot_rows(Zb), which the solve
    and every coords call read.  Over a composite Z/m the relations
    kernel(Zb) join Y.  solved, when given, is called once the solve
    has put every column of B in the span, and returns the columns of B
    the sweep leaves out: each must be a combination of later columns
    (cleared_columns), so the span, and the group, is the same.

    unit_pivots sweeps Y mirrored: its columns last to first, each
    reduced at its first row, which keeps the last generators free and
    the fill-in low.  Each pivot P_r has its 1 at row r and its other
    entries on the free rows, where the set-aside residual A lies too,
    so Y is equivalent to diag(I, A).  The orders are the non-unit
    invariant factors of A's Smith form S, then one per zero of its
    diagonal: Y's own.  A cycle's coordinates are S.U (w - sum_r w_r
    P_r) on the free rows, and the generators are Zb times the columns
    of S.Uinv put on the free rows.
    """
    if pivot_row is None:
        pivot_row = pivot_rows(Zb)
    Y = hermite_solve(Zb, B, pivot_row)
    if Y is None:
        raise ValueError("boundary columns do not lie in the cycle span")
    # B is not read again: let it go before solved() runs a kernel
    del B
    skip = solved() if solved else ()
    z = Zb.ncols
    if z == 0:
        return HomologyGroup.trivial(ring)
    free = ring.free_order
    if free:
        Y = Y.hstack(kernel(Zb))
    # row r of Y is index z - 1 - r of the swept vectors
    Yc = Y.columns()
    pivots, aside = unit_pivots(ring, (
        {z - 1 - r: e for r, e in Yc[j].items()}
        for j in sorted(Yc, reverse=True) if j not in skip))
    gens = [r for r in range(z) if z - 1 - r not in pivots]
    at = {z - 1 - r: k for k, r in enumerate(gens)}
    S = smith_normal_form(Matrix.from_columns(ring, len(gens), [
        {at[f]: e for f, e in v.items()} for v in aside if v]))
    # T w is w - sum_r w_r P_r on the free rows
    T = Matrix(ring, len(gens), z, {k: {r: ring.one} for k, r in enumerate(gens)})
    for c, p in pivots.items():
        for f in [f for f in p if f != c]:
            T.rows[at[f]][z - 1 - c] = ring.neg(p[f])
    Uinv = S.Uinv.columns()
    keep = []
    orders = []
    reps = []
    for i, d in enumerate(list(S.diag) + [0] * (len(gens) - S.rank)):
        if d != 0 and ring.is_unit(d):
            continue
        keep.append(i)
        orders.append(d if d else free)
        reps.append(Zb @ {gens[k]: e for k, e in Uinv.get(i, {}).items()})

    def coord_fn(v):
        w = hermite_solve_vector(Zb, v, pivot_row)
        if w is None:
            raise ValueError("not a cycle")
        t = S.U @ (T @ w)
        return tuple(t.get(i, ring.zero) % d if d else t.get(i, ring.zero)
                     for i, d in zip(keep, orders))

    return HomologyGroup(ring, orders, reps, coord_fn, Zb)


def perverse_basis(ring, D, nk, cols, bad):
    """Basis of the chains on the columns cols whose image under D misses
    the rows bad, in full coordinates over nk basis elements.

    D is the differential out of the degree, over ring.  The
    basis is in the echelon form of hermite_column_form: column-Hermite
    over Z, reduced column echelon over a field, Howell over a
    composite Z/m.  The kernel on cols is already in that form, and
    cols ascending keeps it so when its rows move to their full
    positions.  cols and bad are ascending, so when they hold every
    column and every row the basis is kernel(D) itself, with no copy.
    """
    if not cols:
        return Matrix.zeros(ring, nk, 0)
    if not bad:
        ker = Matrix.identity(ring, len(cols))
    elif len(bad) == D.nrows and len(cols) == nk:
        ker = kernel(D)
    else:
        ker = kernel(D.submatrix(bad, cols))
    if len(cols) == nk:
        return ker
    rows = {}
    for jj, j in enumerate(cols):
        r = ker.rows.get(jj)
        if r:
            rows[j] = dict(r)
    return Matrix(ring, nk, ker.ncols, rows)


def memo_key(kind, k, allowable, j):
    """Key of a degree-k "basis" or "group" in a memo (see the module
    docstring): a basis depends only on the allowable sets of degrees k
    and j = k + step, where its image must lie, a group only on those of
    degrees k and j = k - step, whose basis gives the boundaries.  The
    set of degree j is None when it is empty, as it is when the complex
    has no degree j.  An ascending set that holds all of its first n
    elements is range(n), whatever form it came in."""
    return kind, k, _index_set(allowable(k)), _index_set(allowable(j)) or None


def _index_set(s):
    return range(len(s)) if s and s[-1] == len(s) - 1 else tuple(s)


def shared_basis(memo, key, D):
    """The basis under key = ("basis", k, cols, good) in memo: the
    chains on the columns cols of D whose image under D lies on the
    rows good (on no row when good is None)."""
    B = memo.get(key)
    if B is None:
        good = set(key[3] or ())
        B = memo[key] = perverse_basis(
            D.ring, D, D.ncols, key[2],
            [i for i in range(D.nrows) if i not in good])
    return B


def shared_pivots(memo, key):
    """pivot_rows of the basis under key in memo, found once and kept
    under ("pivots",) + key[1:]."""
    pkey = ("pivots",) + key[1:]
    found = memo.get(pkey)
    if found is None:
        found = memo[pkey] = pivot_rows(memo[key])
    return found


def shared_factors(memo, key, matrix, skip=()):
    """The entry under key = ("factors", k, cols, good) in memo: the
    invariant factors of the matrix matrix() returns, swept on its
    columns (the rows of its transpose), which fill in less on boundary
    matrices, and the rows of its unit pivots.  The columns in the set
    skip, combinations of earlier ones, are not swept."""
    f = memo.get(key)
    if f is None:
        M = matrix()
        f = memo[key] = (invariant_factors(M.transpose(), skip) if M.rows
                         else ([], set()))
    return f


def shared_cycles(memo, k, allowable, step):
    """The cycle basis of degree k in memo, under ("basis", k,
    allowable(k), None): the chains on allowable(k) that D =
    memo["differential", k] sends to zero.  Once the group of degree
    k + step with the same allowable sets has solved its boundaries,
    kernel() gets D only on the pivot rows of that group's cycle basis
    and on the rows off its allowable set (see the module docstring), in
    a matrix that shares D's rows, which kernel() copies as it reads
    them."""
    key = ("basis", k, _index_set(allowable(k)), None)
    Z = memo.get(key)
    if Z is None:
        D = memo["differential", k]
        below = memo_key("solved", k + step, allowable, k)
        pivot_row = memo.get(below)
        if pivot_row is not None:
            rows = set(pivot_row)
            good = below[2] if isinstance(below[2], range) else set(below[2])
            D = Matrix(D.ring, D.nrows, D.ncols,
                       {i: r for i, r in D.rows.items()
                        if i in rows or i not in good})
        Z = shared_basis(memo, key, D)
    return Z


def cleared_columns(memo, key, allowable, step):
    """The columns of the boundaries of the group under key that its
    sweep may leave out, as the module docstring clears them: nothing
    unless memo holds the group of degree t = k - step, whose cycle
    basis Z this reads.  Column j is left out when a column of Z has a
    unit pivot on the pivot row of the column P_j of the basis of degree
    t, P (D_t times it is the boundaries).  P is the identity when the
    group allows everything in degrees k and t: its boundaries are D_t
    itself."""
    _, k, cols, above = key
    t = k - step
    if above is None or memo_key("group", t, allowable, t - step) not in memo:
        return ()
    Z = shared_cycles(memo, t, allowable, step)
    ring = Z.ring
    pivots = shared_pivots(memo, ("basis", t, above, None))
    units = {r for c, r in enumerate(pivots) if ring.is_unit(Z.rows[r][c])}
    P = memo.get(("basis", t, above, cols or None))
    if P is None:
        D = memo["differential", t]
        everything = above == range(D.ncols) and cols == range(D.nrows)
        return units if everything else ()
    return {j for j, r in enumerate(pivot_rows(P)) if r in units}


def shared_group(memo, k, allowable, step, D, boundaries):
    """The degree-k group in memo, of a complex with differential D out
    of degree k and degree k - step mapping in: the cycles on
    allowable(k) modulo the columns boundaries() returns, built on
    first use by group_from_cycles from shared_cycles.  The boundaries
    must be D_t @ P, with D_t the differential out of degree t = k -
    step and P the basis under memo_key("basis", t, allowable, k), or
    D_t itself when that allows everything; D is kept under
    ("differential", k).  Once its solve has succeeded, the build puts
    the pivot rows of its cycle basis under ("solved", k, allowable(k),
    allowable(t)), which prunes the cycles of degree t, and its sweep
    leaves out the cleared_columns.

    Over Z and fields the orders come first from the rule of the module
    docstring.  Those cycles are a direct summand of the chains (a chain
    with a nonzero multiple among them is among them), so the boundaries
    B have the same invariant factors in them as in the chains.  B must
    lie on allowable(k) with D @ B == 0, else reading the orders raises
    ValueError as group_from_cycles does.  That check must stay exact,
    as it is also what makes the clearing sound.
    """
    key = memo_key("group", k, allowable, k - step)
    H = memo.get(key)
    if H is None:
        ring, cols, rows = D.ring, key[2], range(D.nrows)
        memo["differential", k] = D
        cycles = ("basis", k, cols, None)

        def solved():
            memo[("solved",) + key[1:]] = shared_pivots(memo, cycles)
            return cleared_columns(memo, key, allowable, step)

        def build():
            Zb = shared_cycles(memo, k, allowable, step)
            return group_from_cycles(ring, Zb, boundaries(),
                                     shared_pivots(memo, cycles), solved)

        def rule():
            above = memo.get(memo_key("group", k - step, allowable,
                                      k - 2 * step))
            if above is not None:
                above.orders  # its rule sweeps B, cleared from above
            B = boundaries()
            if not set(cols).issuperset(B.rows) or not (D @ B).is_zero():
                raise ValueError(
                    "boundary columns do not lie in the cycle span")
            f, cleared = shared_factors(
                memo, ("factors", k - step, key[3] or (), cols or None),
                lambda: B)
            if len(cols) < D.ncols:
                at = {c: i for i, c in enumerate(cols)}
                cleared = {at[c] for c in cleared}
            out, _ = shared_factors(
                memo, ("factors", k, cols, rows or None),
                lambda: D if len(cols) == D.ncols
                else D.submatrix(rows, cols), cleared)
            return ([d for d in f if not ring.is_unit(d)]
                    + [0] * (len(cols) - len(out) - len(f)))
        H = memo[key] = HomologyGroup.lazy(
            ring, build, None if ring.free_order else rule)
    return H


def homology_of(bd_out, bd_in):
    """Homology ker(bd_out)/im(bd_in), built on first use.

    bd_out maps the module in question outward, bd_in maps into it; both
    must share a ring, and bd_out.ncols == bd_in.nrows is the ambient
    dimension.
    """
    if bd_out.ncols != bd_in.nrows:
        raise ValueError("boundary shapes disagree")
    dims = {0: bd_out.ncols, 1: bd_in.ncols}
    return shared_group({}, 0, lambda j: range(dims.get(j, 0)), -1, bd_out,
                        lambda: bd_in)


class PresentedComplex:
    """A chain complex of based free modules over one of the exact rings.

    dims maps degree -> rank of the chain module, boundaries maps k to
    the matrix of the differential from degree k to degree k-1.  Degrees
    may be any integers; missing degrees are zero.  The Hom-dual of a
    perverse complex (intersection.gm_cochain_complex) is stored with
    negated degrees so the differential still lowers.  memo holds the
    groups (see the module docstring).
    """

    def __init__(self, ring, dims, boundaries, check=True):
        self.ring = ring
        self.dims = {k: n for k, n in dims.items() if n}
        self.boundaries = {}
        for k, M in boundaries.items():
            if M.nrows != self.dim(k - 1) or M.ncols != self.dim(k):
                raise ValueError(f"boundary at degree {k} has shape "
                                 f"{M.nrows}x{M.ncols}, expected "
                                 f"{self.dim(k - 1)}x{self.dim(k)}")
            if not M.is_zero():
                self.boundaries[k] = M
        self.memo = {}
        if check:
            for k in list(self.boundaries):
                if (k - 1) in self.boundaries:
                    if not (self.boundaries[k - 1] @ self.boundaries[k]).is_zero():
                        raise ValueError(f"boundary squared is nonzero at degree {k}")

    def dim(self, k):
        return self.dims.get(k, 0)

    def boundary(self, k):
        M = self.boundaries.get(k)
        if M is None:
            return Matrix(self.ring, self.dim(k - 1), self.dim(k))
        return M

    def homology(self, k):
        if self.dim(k) == 0:
            return HomologyGroup.trivial(self.ring)
        return shared_group(self.memo, k, lambda j: range(self.dim(j)), -1,
                            self.boundary(k), lambda: self.boundary(k + 1))


class ChainMap:
    """A degree-zero map of PresentedComplexes, one matrix per degree."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = {k: M for k, M in components.items() if not M.is_zero()}

    def component(self, k):
        M = self.components.get(k)
        if M is None:
            return Matrix(self.source.ring, self.target.dim(k), self.source.dim(k))
        return M

    def verify(self):
        """Check commutation with the boundaries; raises naming the degree."""
        degs = set(self.source.dims) | set(self.components)
        for k in sorted(degs):
            lhs = self.component(k - 1) @ self.source.boundary(k)
            rhs = self.target.boundary(k) @ self.component(k)
            if lhs != rhs:
                raise ValueError(f"not a chain map: fails at degree {k}")

    def induced(self, k):
        return InducedMap(self.source.homology(k), self.target.homology(k),
                          self.component(k))


class InducedMap:
    """The map on homology induced by a matrix sending cycles to cycles."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        # target too when source has no generators: a group that a map
        # touches is built, so its orders are never read by the rule first
        source.build()
        target.build()
        self.image_coords = [target.coords(matrix @ rep) for rep in source.reps]

    def image(self, coords):
        """Target coordinates of the image of the class with the given
        source coordinates, reduced mod the target orders as
        HomologyGroup.coords reduces them."""
        R = self.target.ring
        out = []
        for j, o in enumerate(self.target.orders):
            c = R.zero
            for a, im in zip(coords, self.image_coords):
                c = R.add(c, R.mul(a, im[j]))
            out.append(c % o if o else c)
        return tuple(out)

    def is_surjective(self):
        tgt = self.target
        n = len(tgt.orders)
        if n == 0:
            return True
        ring = tgt.ring
        # the image plus the relations (one column per nonzero order) must
        # span ring^n; over Z/m every order divides m, so this agrees with
        # surjectivity over Z
        cols = [{i: ring.el(c) for i, c in enumerate(coords) if c != 0}
                for coords in self.image_coords]
        cols += [{i: ring.el(o)} for i, o in enumerate(tgt.orders) if o]
        inv, _ = invariant_factors(Matrix.from_columns(ring, n, cols))
        return len(inv) == n and all(ring.is_unit(d) for d in inv)

    def is_isomorphism(self):
        """Isomorphism test for finitely generated modules.

        Same isomorphism type plus surjectivity suffices: a surjective
        endomorphism of a finitely generated module over a commutative
        Noetherian ring is injective.
        """
        return (self.source.iso_type() == self.target.iso_type()
                and self.is_surjective())
