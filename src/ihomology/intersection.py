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

A based complex over one ring keeps one memo (complexes.shared_group),
shared by all its perversities: K.cache[("perverse_memo", ring name)]
for chains and space.cache[("tw_memo", ring name)] for blown-up
cochains.  Its keys hold the allowable sets of the degrees involved,
so a basis or group is computed once for all perversities that allow
the same elements there.  Simplicial homology is the chain group under
the key that allows every simplex, so it is the very intersection
homology group of each perversity that allows every simplex of degrees
k and k + 1.
"""

from functools import cached_property

from .complexes import (HomologyGroup, InducedMap, PresentedComplex,
                        memo_key, shared_basis, shared_group)
from .matrices import Matrix
from .snf import hermite_solve


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
        idx = tuple(j for j, s in enumerate(K.simplices(k))
                    if is_allowable(K, s, p))
        K.cache[key] = idx
    return idx


class PerverseSubcomplex:
    """The perverse subcomplex of a based complex, over any ring, in the
    full coordinates of the ambient complex.

    Degree k has dim(k) basis elements, differential(k) maps it to
    degree k + step over the ring (step -1 for chains, +1 for
    cochains), and allowable(k) lists the allowable basis elements, for
    k in 0..top.  bases[k] is the perverse basis of degree k.  Bases
    and groups live in memo, one dict per based complex and ring that
    every perversity shares, under memo_key.
    """

    def __init__(self, ring, top, dim, differential, allowable, step, memo):
        self.ring = ring
        self.step = step
        self.dim = dim
        self.differential = differential
        self.allowable = allowable
        self._memo = memo
        self.bases = {
            k: shared_basis(memo, memo_key("basis", k, allowable, k + step),
                            differential(k))
            for k in range(top + 1)}

    def rank(self, k):
        """Number of perverse basis elements in degree k."""
        B = self.bases.get(k)
        return B.ncols if B is not None else 0

    def contains(self, k, M):
        """Whether every column of M, over the degree-k basis, is a
        perverse (co)chain: allowable, with an allowable image.  The
        image is not formed where degree k + step allows every element."""
        if not set(self.allowable(k)).issuperset(M.rows):
            return False
        t = k + self.step
        ok = self.allowable(t)
        return (len(ok) == self.dim(t)
                or set(ok).issuperset((self.differential(k) @ M).rows))

    def homology(self, k):
        """Degree-k (co)homology: the cycles on the allowable basis
        elements modulo the image of the perverse basis one degree up
        (down for cochains)."""
        if k not in self.bases:
            return HomologyGroup.trivial(self.ring)
        t = k - self.step

        def boundaries():
            if t in self.bases:
                return self.differential(t) @ self.bases[t]
            return Matrix.zeros(self.ring, self.dim(k), 0)
        return shared_group(self._memo, k, self.allowable, self.step,
                            self.differential(k), boundaries)

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
            lambda k: allowable_indices(K, k, p), -1, chain_memo(K, ring))
    return C


def chain_memo(K, ring):
    """The memo of the perverse chain complexes of K over ring."""
    return K.cache.setdefault(("perverse_memo", ring.name), {})


def chain_homology(K, k, ring):
    """Simplicial homology H_k(K; ring).

    It lives in the memo of the perverse chain complexes under the key
    that allows every simplex, so a perversity that allows every simplex
    of degrees k and k + 1 gets this very group.  Its boundaries are
    those of the identity basis one degree up, the plain boundary
    matrix.
    """
    if not 0 <= k <= K.top_dim():
        return HomologyGroup.trivial(ring)
    return shared_group(chain_memo(K, ring), k,
                        lambda j: range(len(K.simplices(j))), -1,
                        K.boundary_matrix(k, ring),
                        lambda: K.boundary_matrix(k + 1, ring))


def intersection_homology(K, p, ring, k):
    return perverse_complex(K, p, ring).homology(k)


def inclusion_map(src, dst, k):
    """Degree-k (co)homology map induced by the inclusion of one perverse
    subcomplex in another, the identity in full coordinates."""
    if not dst.contains(k, src.bases[k]):
        raise AssertionError("perverse subcomplexes are not nested")
    # built before the identity is made, so it is not alive during the builds
    source, target = src.homology(k).build(), dst.homology(k).build()
    return InducedMap(source, target, Matrix.identity(src.ring, src.dim(k)))


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
    if ring.free_order:
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
