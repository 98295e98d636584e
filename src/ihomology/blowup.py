"""Blown-up cochain complexes over filtered simplicial pseudomanifolds.

A regular simplex with join decomposition D0 * ... * Dn blows up to the
prism cD0 x ... x cD_{n-1} x Dn, cones taken over the singular parts.
Its cochains form the tensor product of the factor cochains, with basis
tuples ((F_0, e_0), ..., (F_{n-1}, e_{n-1}), (F_n, 0)): F_i a face of
the i-th part (empty allowed everywhere but last) and e_i = 1 when the
face reaches the cone apex.  A global cochain is a family over the
regular top simplices whose coefficients agree on every shared tuple,
so the assembled complex has one basis element per realized tuple.

The local blowup depends only on the join shape, the part sizes: the
LocalBlowup of a shape on the positions 0..m is the template that each
m-simplex s of that shape puts on its vertices, s[i] for position i.
The vertex order refines the stratum order, so i -> s[i] is strictly
increasing: it keeps the sorted positions behind the cofacet signs, the
front faces of blown_cap and of the embedding terms, and every sort, so
each matrix is exactly the one built from s.  Entries that top simplices
share must agree; that check is all that glues the pieces.  Each
regular top simplex looks up its template and puts it once, and the
table of what it put serves the basis, both glues and the blown-up cap.

The perverse degree of a tuple measures, stratum by stratum, how far it
sticks out of the apex direction; bounding it and the perverse degree
of the coboundary by a perversity carves out the subcomplex whose
cohomology is computed here, by intersection.PerverseSubcomplex in full
tuple coordinates.  The cochain embedding
(BlowupComplex.embedding_matrix), which commutes with the coboundaries
of the whole blown-up complex, and the chain blow-down live here too;
cap products are in cap.py.
"""

from functools import cached_property
from itertools import accumulate, combinations, product

from .complexes import perverse_basis
from .intersection import PerverseSubcomplex, inclusion_map
from .matrices import Matrix
from .rings import ZZ


def cone_faces(part):
    """Cochain basis of the cone on a part: (face, reaches_apex) pairs."""
    return [((), 1)] + [(F, e) for F, _ in last_faces(part) for e in (0, 1)]


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
    fparts = [tuple(a for a in face if a in P) for P in map(set, parts)]
    s = max(i for i in range(n + 1) if fparts[i])
    sizes = [len(fparts[i]) if i < s else len(fparts[i]) - 1
             for i in range(s + 1)]
    nu = sum(sizes[i] * sizes[j]
             for i in range(s + 1) for j in range(i + 1, s + 1))
    head = tuple((fparts[i], 1) for i in range(s)) + ((fparts[s], 0),)
    choices = [[((a,), 0) for a in parts[i]] + ([((), 1)] if i < n else [])
               for i in range(s + 1, n + 1)]
    return (-1 if nu % 2 else 1), [head + tail for tail in product(*choices)]


def tuple_flatten(b):
    """Blow-down of a chain tuple: the joined face, or None if it collapses.

    The image keeps the cone factors up to the first apex-free one;
    beyond it every factor must be a single point for the blow-down to
    preserve degree.
    """
    ell = next(i for i, (F, e) in enumerate(b) if e == 0)
    if any(len(F) - 1 + e for F, e in b[ell + 1:]):
        return None
    return tuple(sorted(a for F, e in b[:ell + 1] for a in F))


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
    """The blown-up cochain complex of a single regular simplex, its
    tuples by degree in the order of the factor product."""

    def __init__(self, parts):
        self.parts = tuple(tuple(P) for P in parts)
        self.n = len(self.parts) - 1
        if not self.parts[self.n]:
            raise ValueError("blowup needs a regular simplex")
        self._factors = [cone_faces(P) for P in self.parts[:-1]]
        self._factors.append(last_faces(self.parts[-1]))
        self.tuples = {}
        for b in product(*self._factors):
            self.tuples.setdefault(tuple_degree(b), []).append(b)
        self.index = {b: (k, i) for k, tl in self.tuples.items()
                      for i, b in enumerate(tl)}
        self.top = max(self.tuples)
        self._D = {}
        self._embedding = {}

    def dim(self, k):
        return len(self.tuples.get(k, ()))

    def differential(self, k):
        M = self._D.get(k)
        if M is None:
            rows = {}
            for j, b in enumerate(self.tuples.get(k, ())):
                for b2, sign in tuple_cofacets(b, self.parts):
                    rows.setdefault(self.index[b2][1], {})[j] = sign
            M = self._D[k] = Matrix(ZZ, self.dim(k + 1), self.dim(k), rows)
        return M

    def perverse_kernel(self, k, p):
        """Hermite basis over Z of the degree-k perversity-p subcomplex,
        in full tuple coordinates: allowable cochains with allowable
        coboundary."""
        ok = [[tuple_allowable(b, p) for b in self.tuples.get(d, ())]
              for d in (k, k + 1)]
        return perverse_basis(ZZ, self.differential(k), self.dim(k),
                              [i for i, a in enumerate(ok[0]) if a],
                              [i for i, a in enumerate(ok[1]) if not a])

    def cochain_embedding_matrix(self, k):
        """Images of the dual face cochains, over Z; returns (matrix, faces)
        with faces the lex-sorted k-faces of the simplex."""
        got = self._embedding.get(k)
        if got is None:
            faces = list(combinations(sorted(sum(self.parts, ())), k + 1))
            rows = {}
            for j, F in enumerate(faces):
                sign, terms = cochain_embedding_terms(F, self.parts)
                for t in terms:
                    rows.setdefault(self.index[t][1], {})[j] = sign
            got = self._embedding[k] = (
                Matrix(ZZ, self.dim(k), len(faces), rows), faces)
        return got

    @cached_property
    def cap_support(self):
        """The tuples whose cap against the blown top chain survives the
        blow-down, by degree: (index in tuples[k], sign, image face)."""
        # front faces of every part, and the whole part on each cone factor
        opts = [[(P[:r + 1], 0) for r in range(len(P))]
                + ([(P, 1)] if i < self.n else [])
                for i, P in enumerate(self.parts)]
        out = {}
        for b in product(*opts):
            sign, t = blown_cap(b, self.parts)
            G = tuple_flatten(t)
            if G is not None:
                k, i = self.index[b]
                out.setdefault(k, []).append((i, sign, G))
        return out

    def put(self, s):
        """The tuples by degree, of a template on positions put on the
        simplex s: s[i] for position i."""
        pairs = {x: (tuple([s[i] for i in x[0]]), x[1])
                 for f in self._factors for x in f}
        return {k: [tuple([pairs[x] for x in b]) for b in tl]
                for k, tl in self.tuples.items()}


def template(space, s):
    """The LocalBlowup of the join shape of simplex s (its part sizes),
    on the positions 0..len(s)-1; one per shape, cached on the space."""
    sizes = tuple(map(len, space.join_decomposition(s).parts))
    key = ("blowup_template", sizes)
    T = space.cache.get(key)
    if T is None:
        T = space.cache[key] = LocalBlowup(
            [range(e - c, e) for c, e in zip(sizes, accumulate(sizes))])
    return T


class BlowupComplex:
    """Global blown-up cochains: one basis element per realized tuple,
    each regular top simplex putting the template of its shape on its
    vertices.

    Each regular top simplex is put once.  tops[si], for the index si
    of such a simplex, holds its template T and the global index at[k][i]
    of T.tuples[k][i] put on it, a tuple per degree k in 0..T.top, every
    one of which a regular template realizes; that table gives the basis
    order, both glues and the columns of the cap of the top chains."""

    def __init__(self, space):
        self.space = space
        # the tuples of each degree by order of first arrival, which the
        # table holds until the sorted order is known
        first, self.tops = {}, {}
        for si, s in enumerate(space.simplices(space.n)):
            if not space.is_regular(s):
                continue
            T = template(space, s)
            at = [None] * (T.top + 1)
            for k, tl in T.put(s).items():
                got = first.setdefault(k, {})
                at[k] = [got.setdefault(b, len(got)) for b in tl]
            self.tops[si] = T, at
        self.tuples = {k: sorted(got) for k, got in first.items()}
        self.index = {b: (k, i) for k, tl in self.tuples.items()
                      for i, b in enumerate(tl)}
        self.top = max(self.tuples) if self.tuples else 0
        order = {k: [self.index[b][1] for b in got]
                 for k, got in first.items()}
        for si, (T, at) in self.tops.items():
            self.tops[si] = T, tuple(tuple([order[k][j] for j in js])
                                     for k, js in enumerate(at))
        self._D = self._glue(
            lambda s, T, at: ((k, T.differential(k), at[k + 1], at[k])
                              for k in range(T.top)),
            lambda k: (self.dim(k + 1), self.dim(k)),
            "inconsistent blown-up coboundary")
        self._allowable = {}
        self._embedding = None

    def _glue(self, local, shape, message):
        """The matrices of every degree k, shape(k), put together from the
        local ones: local(s, T, at) yields (k, M, row indices, column
        indices) for the top simplex s and its row (T, at) of the table,
        keyed (k, "Z").  Entries that two simplices share must agree: the
        check that the pieces glue."""
        stores = {}
        simplices = self.space.simplices(self.space.n)
        for si, (T, at) in self.tops.items():
            for k, M, rows, cols in local(simplices[si], T, at):
                store = stores.setdefault(k, {})
                for i, row in M.rows.items():
                    out = store.setdefault(rows[i], {})
                    for j, v in row.items():
                        if out.setdefault(cols[j], v) != v:
                            raise AssertionError(message)
        return {(k, ZZ.name): Matrix(ZZ, *shape(k), rows)
                for k, rows in stores.items()}

    def dim(self, k):
        return len(self.tuples.get(k, ()))

    def differential(self, k, ring=ZZ):
        """Coboundary from degree k to degree k + 1, over ring (cached)."""
        return over_ring(self._D, k, ring, (self.dim(k + 1), self.dim(k)))

    def allowable_indices(self, k, p):
        key = (k, p.values)
        idx = self._allowable.get(key)
        if idx is None:
            idx = tuple(i for i, b in enumerate(self.tuples.get(k, ()))
                        if tuple_allowable(b, p))
            self._allowable[key] = idx
        return idx

    def embedding_matrix(self, k, ring=ZZ):
        """Global cochain embedding in degree k, over ring (cached):
        columns indexed by the k-simplices, rows by the degree-k
        tuples."""
        if self._embedding is None:
            self._embedding = self._glue(
                self._embedding_pieces,
                lambda k: (self.dim(k), len(self.space.simplices(k))),
                "inconsistent embedding coefficients")
        return over_ring(self._embedding, k, ring,
                         (self.dim(k), len(self.space.simplices(k))))

    def _embedding_pieces(self, s, T, at):
        for k in range(len(s)):
            M, faces = T.cochain_embedding_matrix(k)
            yield k, M, at[k], [self.space.index_of(tuple([s[i] for i in F]))
                                for F in faces]

    def cap_terms(self, m, si, k):
        """The blown-up cap of the regular m-simplex si in degree k: the
        cap support of its template put on it, as (global index of the
        degree-k tuple, sign, index of the image (m - k)-simplex)
        triples.  A top simplex reads its columns from the table; a
        lower one, which only single caps meet, puts its template."""
        s = self.space.simplices(m)[si]
        if m == self.space.n:
            T, at = self.tops[si]
            cols = at[k]
        else:
            T = template(self.space, s)
            cols = [self.index[b][1] for b in T.put(s).get(k, ())]
        return [(cols[i], sign,
                 self.space.index_of(tuple([s[a] for a in G])))
                for i, sign, G in T.cap_support.get(k, ())]


def over_ring(store, k, ring, shape):
    """The degree-k matrix of store, keyed (k, ring name), over ring:
    mapped from the integral one, or zero of the given shape when there
    is none, and kept."""
    M = store.get((k, ring.name))
    if M is None:
        M = store.get((k, ZZ.name)) or Matrix(ZZ, *shape)
        M = store[k, ring.name] = M.map_ring(ring)
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
        if ring.free_order:
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
