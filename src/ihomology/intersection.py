"""Perverse chain complexes and intersection homology.

A k-simplex is allowable for a perversity p when, for every level
l in 1..n, its part inside X_{n-l} has dimension at most k - l + p(l);
an empty part passes every bound.  The perverse complex in degree k
consists of the chains supported on allowable simplices whose
boundaries are again supported on allowable simplices.

Over the integers and over fields these are free modules and the
complex is presented by explicit bases.  The builder takes any based
complex with an allowability predicate, so the blown-up cochains of
blowup.py use it too.  Over Z/m with m composite the submodule need
not be free, and its Howell basis does not present a chain complex;
each homology group is then computed over the allowable simplices, as
cycles modulo the image of the next degree's Howell basis.
"""

from .complexes import HomologyGroup, InducedMap, PresentedComplex, homology_of
from .matrices import Matrix
from .rings import ZmodRing
from .snf import hermite_solve, hermite_solve_vector, kernel


def is_allowable(K, simplex, p):
    """Allowability of one simplex at every level at once."""
    k = len(simplex) - 1
    for level in range(1, K.n + 1):
        d = K.filtration_dim(simplex, K.n - level)
        if d is None:
            continue
        if d > k - level + p(level):
            return False
    return True


def allowable_indices(K, k, p):
    """Indices of allowable k-simplices, cached per (k, perversity)."""
    key = ("allowable", k, p.values)
    idx = K.cache.get(key)
    if idx is None:
        idx = [j for j, s in enumerate(K.simplices(k)) if is_allowable(K, s, p)]
        K.cache[key] = idx
    return idx


def perverse_basis(ring, D, nk, cols, bad):
    """Basis of the chains on the columns cols whose image under D misses
    the rows bad, in full coordinates over nk basis elements.

    D is the differential out of the degree, over Z or over ring.  The
    basis is in the echelon form of hermite_column_form: column-Hermite
    over Z, reduced column echelon over a field, Howell over a
    composite Z/m.  The kernel on cols is already in that form, and
    cols ascending keeps it so when its rows move to their full
    positions.
    """
    if not cols:
        return Matrix.zeros(ring, nk, 0)
    if not bad:
        ker = Matrix.identity(ring, len(cols))
    else:
        sub = D.submatrix(bad, cols)
        ker = kernel(sub if sub.ring is ring else sub.map_ring(ring))
    rows = {}
    for jj, j in enumerate(cols):
        r = ker.rows.get(jj)
        if r:
            rows[j] = dict(r)
    return Matrix(ring, nk, ker.ncols, rows)


class _BasedPerverseChains:
    """Chains addressed in two coordinate systems: 'full' vectors over
    all basis elements of a degree, and internal coordinates in
    bases[k], whose columns are full vectors in the echelon form of
    hermite_column_form.  All public methods speak full coordinates."""

    def solve(self, k, image):
        """Internal coordinates of the columns of image, a matrix over
        the degree-k full basis; None if a column lies outside."""
        return hermite_solve(self.bases[k], image)

    def rank(self, k):
        """Number of presentation generators in degree k."""
        B = self.bases.get(k)
        return B.ncols if B is not None else 0

    def full_from_internal(self, k, vec):
        """Full vector from internal presentation coordinates."""
        return self.bases[k] @ vec

    def internal_from_full(self, k, chain):
        """Internal coordinates of a full vector; None if outside."""
        return hermite_solve_vector(self.bases[k], chain)

    def generator_chains(self, k):
        """Generators of the degree-k (co)homology as full vectors."""
        H = self.homology(k)
        return [self.full_from_internal(k, rep) for rep in H.reps]

    def class_coords(self, k, chain):
        """(Co)homology coordinates of a full-coordinate cycle."""
        vec = self.internal_from_full(k, chain)
        if vec is None:
            raise ValueError("chain is not in the perverse subcomplex")
        return self.homology(k).coords(vec)

    def class_equal(self, k, c1, c2):
        return self.class_coords(k, c1) == self.class_coords(k, c2)


class PerverseSubcomplex(_BasedPerverseChains):
    """The perverse subcomplex of a based complex over Z or a field.

    Degree k has dim(k) basis elements, differential(k) maps it to
    degree k + step (step -1 for chains, +1 for cochains), and
    allowable(k) lists the allowable basis elements.  Degree k is stored
    in `complex` at -step * k, so the presented differential lowers the
    degree either way.  bases[k] is the perverse basis of degree k.
    """

    def __init__(self, ring, top, dim, differential, allowable, step):
        self.ring = ring
        self.step = step
        self.bases = {}
        for k in range(top + 1):
            good = set(allowable(k + step))
            bad = [i for i in range(dim(k + step)) if i not in good]
            self.bases[k] = perverse_basis(ring, differential(k), dim(k),
                                           allowable(k), bad)
        dims = {-step * k: B.ncols for k, B in self.bases.items()}
        boundaries = {}
        for k in range(top + 1):
            t = k + step
            if 0 <= t <= top and self.rank(k) and self.rank(t):
                D = differential(k)
                if D.ring is not ring:
                    D = D.map_ring(ring)
                M = self.solve(t, D @ self.bases[k])
                if M is None:
                    raise AssertionError(
                        "differential left the perverse subcomplex")
                boundaries[-step * k] = M
        self.complex = PresentedComplex(ring, dims, boundaries, check=True)

    def homology(self, k):
        return self.complex.homology(-self.step * k)


class LatticePerverseComplex(_BasedPerverseChains):
    """Perverse chains over Z/m with m composite.

    The submodule need not be free, so a basis of it does not present a
    chain complex.  Homology in degree k is computed over the allowable
    k-simplices instead: the cycles there, modulo the image of the
    degree-(k+1) perverse basis from perverse_basis.  bases[k] holds the
    allowable k-simplices as columns, so internal coordinates are plain
    coordinates over the allowable simplices.
    """

    def __init__(self, K, p, ring):
        self.space = K
        self.ring = ring
        self.allowable = {k: allowable_indices(K, k, p)
                          for k in range(K.top_dim() + 1)}
        self.bases = {k: Matrix(ring, len(K.simplices(k)), len(cols),
                                {j: {i: ring.one} for i, j in enumerate(cols)})
                      for k, cols in self.allowable.items()}
        self._groups = {}

    def homology(self, k):
        H = self._groups.get(k)
        if H is not None:
            return H
        K, ring = self.space, self.ring
        cols = self.allowable.get(k, [])
        if not cols:
            H = HomologyGroup.trivial(ring)
            self._groups[k] = H
            return H
        # cycles: kernel of the unrestricted boundary on allowable chains
        all_rows = list(range(len(K.simplices(k - 1)))) if k else []
        out = K.boundary_matrix(k, ring).submatrix(all_rows, cols)
        # boundaries: images of the degree-(k+1) perverse basis, which
        # miss the non-allowable k-simplices
        up = self.allowable.get(k + 1, [])
        if up:
            D = K.boundary_matrix(k + 1, ring)
            good = set(cols)
            bad = [i for i in range(len(K.simplices(k))) if i not in good]
            B = perverse_basis(ring, D, len(K.simplices(k + 1)), up, bad)
            inn = (D @ B).submatrix(cols, range(B.ncols))
        else:
            inn = Matrix.zeros(ring, len(cols), 0)
        H = homology_of(out, inn)
        self._groups[k] = H
        return H


def perverse_complex(K, p, ring):
    """The perversity-p chain complex of K, cached on K."""
    key = ("perverse_complex", p.values, ring.name)
    C = K.cache.get(key)
    if C is None:
        if p.n != K.n:
            raise ValueError("perversity length does not match the filtration")
        if isinstance(ring, ZmodRing) and not ring.is_field:
            C = LatticePerverseComplex(K, p, ring)
        else:
            C = PerverseSubcomplex(
                ring, K.top_dim(), lambda k: len(K.simplices(k)),
                lambda k: K.boundary_matrix(k, ring),
                lambda k: allowable_indices(K, k, p), -1)
        K.cache[key] = C
    return C


def intersection_homology(K, p, ring, k):
    return perverse_complex(K, p, ring).homology(k)


def inclusion_map(src, dst, k):
    """Degree-k (co)homology map induced by the inclusion of one perverse
    subcomplex in another: the source basis solved in the target's."""
    T = dst.solve(k, src.bases[k])
    if T is None:
        raise AssertionError("perverse subcomplexes are not nested")
    return InducedMap(src.homology(k), dst.homology(k), T)


def comparison_map(K, p, q, ring, k):
    """Degree-k homology map induced by the inclusion for p <= q."""
    if not p <= q:
        raise ValueError("comparison map needs a pointwise smaller source")
    return inclusion_map(perverse_complex(K, p, ring),
                         perverse_complex(K, q, ring), k)


def cochain_complex(K, ring):
    """Simplicial cochains of the whole space, stored at negated degrees."""
    key = ("cochain_complex", ring.name)
    C = K.cache.get(key)
    if C is None:
        top = K.top_dim()
        dims = {-k: len(K.simplices(k)) for k in range(top + 1)}
        boundaries = {}
        for k in range(1, top + 1):
            M = K.boundary_matrix(k, ring)
            if M.nrows and M.ncols:
                boundaries[-(k - 1)] = M.transpose()
        C = PresentedComplex(ring, dims, boundaries, check=False)
        K.cache[key] = C
    return C


def cohomology(K, ring, k):
    """Ordinary simplicial cohomology of the underlying space."""
    return cochain_complex(K, ring).homology(-k)


def gm_cochain_complex(K, p, ring):
    """Hom-dual of the perverse complex, stored at negated degrees.

    Available over the integers and over fields, where the perverse
    complex is a complex of finitely generated free modules.
    """
    if isinstance(ring, ZmodRing) and not ring.is_field:
        raise ValueError("dual complexes need integer or field coefficients")
    key = ("gm_cochain", p.values, ring.name)
    C = K.cache.get(key)
    if C is None:
        P = perverse_complex(K, p, ring)
        dims = {-k: P.complex.dim(k) for k in range(K.top_dim() + 1)}
        boundaries = {}
        for k in range(1, K.top_dim() + 1):
            if P.complex.dim(k) and P.complex.dim(k - 1):
                boundaries[-(k - 1)] = P.complex.boundary(k).transpose()
        C = PresentedComplex(ring, dims, boundaries, check=True)
        K.cache[key] = C
    return C


def gm_cohomology(K, p, ring, k):
    """Degree-k cohomology of the Hom-dual of the perverse complex."""
    return gm_cochain_complex(K, p, ring).homology(-k)
