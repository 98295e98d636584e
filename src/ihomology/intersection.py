"""Perverse chain complexes and intersection homology.

A k-simplex is allowable for a perversity p when, for every level
l in 1..n, its part inside X_{n-l} has dimension at most k - l + p(l);
an empty part passes every bound.  The perverse complex in degree k
consists of the chains supported on allowable simplices whose
boundaries are again supported on allowable simplices.

One class, PerverseSubcomplex, serves every ring: it takes any based
complex with an allowability predicate, so the blown-up cochains of
blowup.py use it too, and it works in the full coordinates of that
complex.  Homology in degree k is the cycles on the allowable basis
elements modulo the image of the next degree's perverse basis, so the
inclusion across perversities is the identity and a cap lands in the
perverse chains without a change of basis.  Over Z/m with m composite
the perverse submodule need not be free, but its Howell basis spans
it, which is all the boundaries need.  Over the integers and over
fields the perverse bases also present the complex, which the dual
complex of gm_cochain_complex is built from.
"""

from functools import cached_property

from .complexes import (HomologyGroup, InducedMap, PresentedComplex,
                        group_from_cycles)
from .matrices import Matrix
from .rings import ZmodRing
from .snf import hermite_solve, kernel


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

    D is the differential out of the degree, over ring.  The
    basis is in the echelon form of hermite_column_form: column-Hermite
    over Z, reduced column echelon over a field, Howell over a
    composite Z/m.  The kernel on cols is already in that form, and
    cols ascending keeps it so when its rows move to their full
    positions.
    """
    if not cols:
        return Matrix.zeros(ring, nk, 0)
    ker = (kernel(D.submatrix(bad, cols)) if bad
           else Matrix.identity(ring, len(cols)))
    rows = {}
    for jj, j in enumerate(cols):
        r = ker.rows.get(jj)
        if r:
            rows[j] = dict(r)
    return Matrix(ring, nk, ker.ncols, rows)


class PerverseSubcomplex:
    """The perverse subcomplex of a based complex, over any ring, in the
    full coordinates of the ambient complex.

    Degree k has dim(k) basis elements, differential(k) maps it to
    degree k + step over the ring (step -1 for chains, +1 for
    cochains), and allowable(k) lists the allowable basis elements, for
    k in 0..top.  bases[k] is the perverse basis of degree k.  A cycle
    basis depends only on the allowable set, so the creator passes in
    one dict, keyed by (k, allowable set), that every perversity shares.
    """

    def __init__(self, ring, top, dim, differential, allowable, step,
                 cycles):
        self.ring = ring
        self.step = step
        self.dim = dim
        self.differential = differential
        self.allowable = allowable
        self._cycles = cycles
        self._groups = {}
        self.bases = {}
        for k in range(top + 1):
            good = set(allowable(k + step))
            bad = [i for i in range(dim(k + step)) if i not in good]
            self.bases[k] = perverse_basis(ring, differential(k), dim(k),
                                           allowable(k), bad)

    def rank(self, k):
        """Number of perverse basis elements in degree k."""
        B = self.bases.get(k)
        return B.ncols if B is not None else 0

    def contains(self, k, M):
        """Whether every column of M, over the degree-k basis, is a
        perverse (co)chain: allowable, with an allowable image."""
        return (set(self.allowable(k)).issuperset(M.rows)
                and set(self.allowable(k + self.step)).issuperset(
                    (self.differential(k) @ M).rows))

    def homology(self, k):
        """Degree-k (co)homology: the cycles on the allowable basis
        elements modulo the image of the perverse basis one degree up
        (down for cochains)."""
        H = self._groups.get(k)
        if H is None:
            if k not in self.bases:
                return HomologyGroup.trivial(self.ring)
            D = self.differential(k)
            cols = self.allowable(k)
            key = (k, tuple(cols))
            Z = self._cycles.get(key)
            if Z is None:
                Z = self._cycles[key] = perverse_basis(
                    self.ring, D, self.dim(k), cols, range(D.nrows))
            t = k - self.step
            if t in self.bases:
                bd = self.differential(t) @ self.bases[t]
            else:
                bd = Matrix.zeros(self.ring, self.dim(k), 0)
            H = self._groups[k] = group_from_cycles(self.ring, self.dim(k),
                                                     Z, bd)
        return H

    @cached_property
    def complex(self):
        """The complex presented in the perverse bases, over Z or a
        field, with degree k at -step * k so that the presented
        differential lowers the degree either way."""
        dims = {-self.step * k: B.ncols for k, B in self.bases.items()}
        boundaries = {}
        for k, B in self.bases.items():
            t = k + self.step
            if self.rank(t) and B.ncols:
                M = hermite_solve(self.bases[t], self.differential(k) @ B)
                if M is None:
                    raise AssertionError(
                        "differential left the perverse subcomplex")
                boundaries[-self.step * k] = M
        return PresentedComplex(self.ring, dims, boundaries, check=True)


def perverse_complex(K, p, ring):
    """The perversity-p chain complex of K, cached on K."""
    key = ("perverse_complex", p.values, ring.name)
    C = K.cache.get(key)
    if C is None:
        if p.n != K.n:
            raise ValueError("perversity length does not match the filtration")
        C = K.cache[key] = PerverseSubcomplex(
            ring, K.top_dim(), lambda k: len(K.simplices(k)),
            lambda k: K.boundary_matrix(k, ring),
            lambda k: allowable_indices(K, k, p), -1,
            K.cache.setdefault(("perverse_cycles", ring.name), {}))
    return C


def intersection_homology(K, p, ring, k):
    return perverse_complex(K, p, ring).homology(k)


def inclusion_map(src, dst, k):
    """Degree-k (co)homology map induced by the inclusion of one perverse
    subcomplex in another, the identity in full coordinates."""
    if not dst.contains(k, src.bases[k]):
        raise AssertionError("perverse subcomplexes are not nested")
    return InducedMap(src.homology(k), dst.homology(k),
                      Matrix.identity(src.ring, src.dim(k)))


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
