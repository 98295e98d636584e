"""Blown-up cochain complexes over filtered simplicial pseudomanifolds.

A regular simplex with join decomposition D0 * ... * Dn blows up to the
prism cD0 x ... x cD_{n-1} x Dn, cones taken over the singular parts.
Its cochains form the tensor product of the factor cochains, with basis
tuples ((F_0, e_0), ..., (F_{n-1}, e_{n-1}), (F_n, 0)): F_i a face of
the i-th part (empty allowed everywhere but last) and e_i = 1 when the
face reaches the cone apex.  A global cochain is a family over the
regular top simplices whose coefficients agree on every shared tuple,
so the assembled complex has one basis element per realized tuple.

The perverse degree of a tuple measures, stratum by stratum, how far it
sticks out of the apex direction; bounding it and the perverse degree
of the coboundary by a perversity carves out the subcomplex whose
cohomology is computed here, by intersection.PerverseSubcomplex in full
tuple coordinates.  The simplex-to-blowup comparison maps live here
too: the cochain embedding, a chain map into the whole blown-up
complex, and the chain blow-down; cap products are in cap.py.
"""

from itertools import combinations, product

from .complexes import ChainMap, InducedMap, PresentedComplex
from .intersection import (PerverseSubcomplex, cochain_complex, inclusion_map,
                           perverse_basis)
from .matrices import Matrix
from .rings import ZZ, ZmodRing


def cone_faces(part):
    """Cochain basis of the cone on a part: (face, reaches_apex) pairs."""
    verts = tuple(part)
    out = [((), 1)]
    for r in range(1, len(verts) + 1):
        for F in combinations(verts, r):
            out.append((F, 0))
            out.append((F, 1))
    return out


def last_faces(part):
    verts = tuple(part)
    return [(F, 0) for r in range(1, len(verts) + 1)
            for F in combinations(verts, r)]


def tuple_degree(b):
    return sum(len(F) - 1 + e for F, e in b)


def tuple_norm(b, level):
    """Perverse degree of a basis tuple along the codimension-level stratum.

    None stands for minus infinity: a tuple reaching the apex of that
    cone factor puts no constraint on the perversity there.
    """
    n = len(b) - 1
    F, e = b[n - level]
    if e:
        return None
    return sum(len(G) - 1 + d for G, d in b[n - level + 1:])


def tuple_allowable(b, p):
    n = len(b) - 1
    for level in range(1, n + 1):
        v = tuple_norm(b, level)
        if v is not None and v > p(level):
            return False
    return True


def tuple_cofacets(b, parts):
    """Cofacet tuples inside the blowup of parts, with incidence signs.

    Koszul sign per factor from the degrees of the later factors, then
    the sorted position of the added vertex; flipping e appends the apex
    after the face vertices.
    """
    n = len(b) - 1
    degs = [len(F) - 1 + e for F, e in b]
    suffix = sum(degs)
    for i, (F, e) in enumerate(b):
        suffix -= degs[i]
        koszul = -1 if suffix % 2 else 1
        for a in parts[i]:
            if a in F:
                continue
            F2 = tuple(sorted(F + (a,)))
            yield b[:i] + ((F2, e),) + b[i + 1:], koszul * (-1) ** F2.index(a)
        if i < n and e == 0:
            yield b[:i] + ((F, 1),) + b[i + 1:], koszul * (-1) ** len(F)


def cochain_embedding_terms(face, parts):
    """Image tuples of the dual cochain of a face, inside one blowup.

    The parts of the face are coned off below its deepest stratum s and
    kept plain at s; every factor past s runs over all points of its
    cone (or of the last part).  All tails carry one common sign, fixed
    by the vertex counts of the front parts.
    """
    n = len(parts) - 1
    fparts = []
    for i in range(n + 1):
        P = set(parts[i])
        fparts.append(tuple(a for a in face if a in P))
    s = max(i for i in range(n + 1) if fparts[i])
    sizes = [len(fparts[i]) if i < s else len(fparts[i]) - 1
             for i in range(s + 1)]
    nu = sum(sizes[i] * sizes[j]
             for i in range(s + 1) for j in range(i + 1, s + 1))
    head = tuple((fparts[i], 1) for i in range(s)) + ((fparts[s], 0),)
    choices = []
    for i in range(s + 1, n + 1):
        opts = [((a,), 0) for a in parts[i]]
        if i < n:
            opts.append(((), 1))
        choices.append(tuple(opts))
    tails = product(*choices) if choices else ((),)
    return (-1 if nu % 2 else 1), [head + tail for tail in tails]


def tuple_flatten(b):
    """Blow-down of a chain tuple: the joined face, or None if it collapses.

    The image keeps the cone factors up to the first apex-free one;
    beyond it every factor must be a single point for the blow-down to
    preserve degree.
    """
    ell = next(i for i, (F, e) in enumerate(b) if e == 0)
    for F, e in b[ell + 1:]:
        if len(F) - 1 + e != 0:
            return None
    out = []
    for i in range(ell + 1):
        out.extend(b[i][0])
    return tuple(sorted(out))


def blown_cap(b, parts):
    """Cap of a basis cochain against the blown fundamental chain.

    Factorwise on the prism: front face to back face on each cone (the
    apex appended), apex point when the cochain already fills the cone,
    zero otherwise; the classical front/back rule on the last factor.
    """
    n = len(parts) - 1
    out = []
    for i in range(n + 1):
        F, e = b[i]
        P = parts[i]
        if i == n:
            r = len(F) - 1
            if F != P[:r + 1]:
                return None
            out.append((P[r:], 0))
        elif e:
            if F != P:
                return None
            out.append(((), 1))
        else:
            r = len(F) - 1
            if F != P[:r + 1]:
                return None
            out.append((P[r:], 1))
    degs = [len(F) - 1 + e for F, e in b]
    nu = 0
    suffix = 0
    for j in range(n, 0, -1):
        suffix += degs[j]
        nu += len(parts[j - 1]) * suffix
    return (-1 if nu % 2 else 1), tuple(out)


class LocalBlowup:
    """The blown-up cochain complex of a single regular simplex."""

    def __init__(self, parts):
        self.parts = tuple(tuple(P) for P in parts)
        self.n = len(self.parts) - 1
        if not self.parts[self.n]:
            raise ValueError("blowup needs a regular simplex")
        factors = [cone_faces(P) for P in self.parts[:-1]]
        factors.append(last_faces(self.parts[-1]))
        grouped = {}
        for b in product(*factors):
            grouped.setdefault(tuple_degree(b), []).append(b)
        self.tuples = {k: sorted(v) for k, v in grouped.items()}
        self.index = {}
        for k, tl in self.tuples.items():
            for i, b in enumerate(tl):
                self.index[b] = (k, i)
        self.top = max(self.tuples)
        self._D = {}

    def dim(self, k):
        return len(self.tuples.get(k, ()))

    def differential(self, k):
        M = self._D.get(k)
        if M is None:
            up = {b: i for i, b in enumerate(self.tuples.get(k + 1, ()))}
            rows = {}
            for j, b in enumerate(self.tuples.get(k, ())):
                for b2, sign in tuple_cofacets(b, self.parts):
                    rows.setdefault(up[b2], {})[j] = sign
            M = self._D[k] = Matrix(ZZ, self.dim(k + 1), self.dim(k), rows)
        return M

    def allowable_indices(self, k, p):
        return [i for i, b in enumerate(self.tuples.get(k, ()))
                if tuple_allowable(b, p)]

    def perverse_kernel(self, k, p):
        """Hermite basis over Z of the degree-k perversity-p subcomplex,
        in full tuple coordinates: allowable cochains with allowable
        coboundary."""
        good_up = set(self.allowable_indices(k + 1, p))
        bad = [i for i in range(self.dim(k + 1)) if i not in good_up]
        return perverse_basis(ZZ, self.differential(k), self.dim(k),
                              self.allowable_indices(k, p), bad)

    def cochain_embedding_matrix(self, k):
        """Images of the dual face cochains, over Z; returns (matrix, faces)
        with faces the lex-sorted k-faces of the simplex."""
        verts = tuple(sorted(a for P in self.parts for a in P))
        faces = list(combinations(verts, k + 1))
        rows = {}
        for j, F in enumerate(faces):
            sign, terms = cochain_embedding_terms(F, self.parts)
            for t in terms:
                kk, i = self.index[t]
                rows.setdefault(i, {})[j] = sign
        return Matrix(ZZ, self.dim(k), len(faces), rows), faces


class BlowupComplex:
    """Global blown-up cochains: one basis element per realized tuple."""

    def __init__(self, space):
        self.space = space
        n = self.n = space.n
        self.tops = [s for s in space.simplices(n) if space.is_regular(s)]
        self.parts_of = {s: space.join_decomposition(s).parts for s in self.tops}
        seen = {}
        for s in self.tops:
            parts = self.parts_of[s]
            factors = [cone_faces(P) for P in parts[:-1]]
            factors.append(last_faces(parts[-1]))
            for b in product(*factors):
                seen.setdefault(tuple_degree(b), set()).add(b)
        self.tuples = {k: sorted(v) for k, v in seen.items()}
        self.index = {}
        for k, tl in self.tuples.items():
            for i, b in enumerate(tl):
                self.index[b] = (k, i)
        self.top = max(self.tuples) if self.tuples else 0
        entries = {}
        for s in self.tops:
            parts = self.parts_of[s]
            factors = [cone_faces(P) for P in parts[:-1]]
            factors.append(last_faces(parts[-1]))
            for b in product(*factors):
                k, j = self.index[b]
                store = entries.setdefault(k, {})
                for b2, sign in tuple_cofacets(b, parts):
                    i = self.index[b2][1]
                    prev = store.setdefault((i, j), sign)
                    if prev != sign:
                        raise AssertionError("inconsistent blown-up coboundary")
        self._D = {}
        for k, store in entries.items():
            rows = {}
            for (i, j), sign in store.items():
                rows.setdefault(i, {})[j] = sign
            self._D[k, ZZ.name] = Matrix(ZZ, self.dim(k + 1), self.dim(k),
                                         rows)
        self._allowable = {}
        self._embedding = None

    def dim(self, k):
        return len(self.tuples.get(k, ()))

    def differential(self, k, ring=ZZ):
        """Coboundary from degree k to degree k + 1, over ring (cached)."""
        M = self._D.get((k, ring.name))
        if M is None:
            M = self._D.get((k, ZZ.name))
            if M is None:
                M = Matrix(ZZ, self.dim(k + 1), self.dim(k))
            M = self._D[k, ring.name] = M.map_ring(ring)
        return M

    def allowable_indices(self, k, p):
        key = (k, p.values)
        idx = self._allowable.get(key)
        if idx is None:
            idx = tuple(i for i, b in enumerate(self.tuples.get(k, ()))
                        if tuple_allowable(b, p))
            self._allowable[key] = idx
        return idx

    def embedding_matrix(self, k):
        """Global cochain embedding in degree k, over Z: columns indexed by
        the k-simplices, rows by the degree-k tuples."""
        if self._embedding is None:
            stores = {}
            for s in self.tops:
                parts = self.parts_of[s]
                verts = tuple(sorted(a for P in parts for a in P))
                for r in range(1, len(verts) + 1):
                    for F in combinations(verts, r):
                        sign, terms = cochain_embedding_terms(F, parts)
                        col = self.space.index_of(F)
                        store = stores.setdefault(r - 1, {})
                        for t in terms:
                            i = self.index[t][1]
                            prev = store.setdefault((i, col), sign)
                            if prev != sign:
                                raise AssertionError(
                                    "inconsistent embedding coefficients")
            self._embedding = {}
            for kk, store in stores.items():
                rows = {}
                for (i, j), sign in store.items():
                    rows.setdefault(i, {})[j] = sign
                self._embedding[kk] = Matrix(
                    ZZ, self.dim(kk), len(self.space.simplices(kk)), rows)
        M = self._embedding.get(k)
        if M is None:
            return Matrix(ZZ, self.dim(k), len(self.space.simplices(k)))
        return M


def blowup_complex(space):
    B = space.cache.get(("blowup",))
    if B is None:
        B = space.cache[("blowup",)] = BlowupComplex(space)
    return B


def tw_complex(space, p, ring):
    """Perversity-bounded subcomplex of the blown-up cochains, based.

    Its homology(k) is the blown-up cohomology in degree k."""
    key = ("tw", p.values, ring.name)
    T = space.cache.get(key)
    if T is None:
        if isinstance(ring, ZmodRing) and not ring.is_field:
            raise ValueError("blown-up complexes need integer or field "
                             "coefficients")
        if p.n != space.n:
            raise ValueError("perversity depth does not match the filtration")
        B = blowup_complex(space)
        T = space.cache[key] = PerverseSubcomplex(
            ring, B.top, B.dim, lambda k: B.differential(k, ring),
            lambda k: B.allowable_indices(k, p), 1,
            space.cache.setdefault(("tw_memo", ring.name), {}))
    return T


def tw_cohomology(space, p, ring, k):
    return tw_complex(space, p, ring).homology(k)


def tw_comparison(space, p, q, ring, k):
    """Map induced on cohomology by the inclusion of the perversity-p
    subcomplex into the perversity-q one, for p <= q."""
    if not p <= q:
        raise ValueError("comparison map needs a pointwise smaller source")
    return inclusion_map(tw_complex(space, p, ring),
                         tw_complex(space, q, ring), k)


def cochain_embedding(space, ring):
    """Chain map realizing ordinary cochains as blown-up cochains, into
    the whole blown-up complex stored at negated degrees."""
    B = blowup_complex(space)
    target = PresentedComplex(
        ring, {-k: B.dim(k) for k in range(B.top + 1)},
        {-k: B.differential(k, ring) for k in range(B.top)}, check=False)
    components = {-k: B.embedding_matrix(k).map_ring(ring)
                  for k in range(space.n + 1)}
    return ChainMap(cochain_complex(space, ring), target, components)


def cochain_embedding_induced(space, p, ring, k):
    """The embedding H^k(X) -> H^k of the perversity-p blown-up complex
    (it lands in the zero-perversity part, which sits inside every GM
    perversity)."""
    tw = tw_complex(space, p, ring)
    M = blowup_complex(space).embedding_matrix(k).map_ring(ring)
    if not tw.contains(k, M):
        raise AssertionError("embedding leaves the perverse subcomplex")
    return InducedMap(cochain_complex(space, ring).homology(-k),
                      tw.homology(k), M)
