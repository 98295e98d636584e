"""Cap products and duality maps on filtered simplicial pseudomanifolds.

Two caps live here, and one builder, _cap_matrix, gives every entry
of both, against the fundamental class and against any chain.  The
classical cap evaluates a simplicial cochain on the front face of a
simplex and keeps the back face.  The blown-up cap pairs a
perversity-bounded blown cochain with a chain: on every regular simplex
it restricts the cochain to the local blowup, caps factorwise against
the blown top chain, blows the result down and pushes it forward; the
terms that survive are the cap support of the simplex's template
(blowup.LocalBlowup), put on its vertices.  The builder tells the caps
apart only by each simplex's list of terms; non-regular simplices
contribute nothing to either.  check_local_cap_factorization caps apart
from it, blown_cap by blown_cap, as an independent local oracle.

Capping with the fundamental class gives the duality maps, with a
degree sign that makes them commute on the nose:

    d(w cap xi) = (-1)^{|w|} (w cap (d xi)  -  (dw) cap xi)

is the Leibniz rule both caps obey (the relative sign was fixed
empirically, by elimination on randomized pairs, and is asserted by the
test suite), so twisting degree k by (-1)^{k(k+1)/2} absorbs it.  The
classical duality map is a chain map of the whole cochain and chain
complexes.  The blown-up one is a matrix in full coordinates, from
tuple cochains to simplex chains, and is checked only on the perverse
bases: on the whole blown-up complex of the suspended projective space
it fails to commute in degree 3.  A failed check is a broken invariant
and raises AssertionError.

The verification drivers at the bottom replay the duality criteria on a
given complex: the factorization of the classical duality map through
the blown-up complexes, the degreewise equivalence between classical
duality and the zero-to-top comparison, and the degree-3 obstruction
display for the suspended projective space.
"""

from fractions import Fraction
from itertools import combinations

from .blowup import (blown_cap, blowup_complex, cochain_embedding_terms,
                     template, tuple_flatten, tw_complex)
from .complexes import ChainMap, InducedMap, memo_key
from .filtered import builtin
from .intersection import (cochain_complex, cohomology, comparison_map,
                           gm_cohomology, intersection_homology, is_allowable,
                           perverse_complex)
from .matrices import Matrix
from .perversity import clip, top, zero
from .rings import ZZ, RationalField, ZmodRing


def classical_cap_local(face, simplex):
    """Back face of the cap of a dual cochain with an ordered simplex.

    None unless face is the front face of the simplex."""
    r = len(face) - 1
    if tuple(face) != tuple(simplex[:r + 1]):
        return None
    return tuple(simplex[r:])


def duality_sign(k):
    return -1 if (k * (k + 1) // 2) % 2 else 1


def _check_ring(ring):
    if isinstance(ring, ZmodRing) and not ring.is_field:
        raise ValueError("duality needs integer or field coefficients")


def _check_space(space, normal=False):
    """Refuse a space that fails a pseudomanifold check of validate(),
    or, when normal is set, its normality check."""
    for name, witness in space.validate().failures():
        if normal or name != "normality":
            raise ValueError(f"input fails the {name} check, witness {witness}")


# --- the blown-up cap, one template per join shape ---

def _support_of(space, si, m):
    """The cap support of the template of the m-simplex si, put on it:
    (tuple, sign, image simplex index) triples by degree."""
    key = ("cap_support", m, si)
    sup = space.cache.get(key)
    if sup is None:
        s = space.simplices(m)[si]
        T = template(space, s)
        put = T.put(s)
        sup = space.cache[key] = {
            k: tuple((put[k][i], sg, space.index_of(tuple([s[a] for a in G])))
                     for i, sg, G in triples)
            for k, triples in T.cap_support.items()}
    return sup


def _cap_matrix(space, ring, k, m, xi, blown):
    """Matrix of w -> w cap xi for a degree-m chain xi, keyed by
    m-simplex indices.

    Its columns are the degree-k blown-up tuples when blown is set, and
    the k-simplices otherwise; its rows are the (m-k)-simplices.  The
    non-regular simplices of xi are skipped.  The two caps differ only
    in each simplex's term list: the classical cap has one term, front
    face to back face with sign +1, and the blown-up cap has the
    simplex's cap support in degree k.
    """
    if blown:
        B = blowup_complex(space)
        ncols, column = B.dim(k), lambda b: B.index[b][1]
    else:
        ncols, column = len(space.simplices(k)), space.index_of
    rows = {}
    # a degree-k cochain caps every chain of lower degree to zero
    for si, x in (xi.items() if k <= m else ()):
        s = space.simplices(m)[si]
        if ring.is_zero(x) or not space.is_regular(s):
            continue
        if blown:
            terms = _support_of(space, si, m).get(k, ())
        else:
            terms = ((s[:k + 1], 1, space.index_of(s[k:])),)
        for key, sg, gi in terms:
            row, j = rows.setdefault(gi, {}), column(key)
            row[j] = ring.add(row.get(j, ring.zero),
                              ring.neg(x) if sg < 0 else x)
    rows = {gi: {j: v for j, v in row.items() if not ring.is_zero(v)}
            for gi, row in rows.items()}
    return Matrix(ring, len(space.simplices(m - k)), ncols,
                  {gi: row for gi, row in rows.items() if row})


def intersection_cap(space, ring, k, omega, m, xi):
    """Global cap of a degree-k blown cochain with a degree-m chain.

    omega is keyed by basis tuples, xi by m-simplex indices; the result
    is keyed by (m-k)-simplex indices.  Simplices that miss the top
    stratum are skipped.
    """
    B = blowup_complex(space)
    return _cap_matrix(space, ring, k, m, xi, True) @ {
        B.index[b][1]: w for b, w in omega.items()}


def classical_cap(space, ring, k, omega, m, xi):
    """Global classical cap, front face against back face.

    omega is keyed by k-simplex indices, xi by m-simplex indices; the
    non-regular simplices of xi are skipped, as in the blown-up cap.
    """
    return _cap_matrix(space, ring, k, m, xi, False) @ omega


# --- cap-with-fundamental-class matrices ---

def _fundamental_cycle(space, ring):
    """The fundamental class, which both caps need on regular simplices."""
    fc = space.fundamental_class(ring)
    tops = space.simplices(space.n)
    if not all(space.is_regular(tops[si]) for si in fc):
        raise AssertionError(
            "fundamental chain contains a non-regular simplex")
    return fc


def _classical_caps(space, ring):
    """Matrices of the classical cap against the fundamental class, by
    cochain degree, over the simplex bases."""
    key = ("classical_caps", ring.name)
    got = space.cache.get(key)
    if got is None:
        fc = _fundamental_cycle(space, ring)
        got = space.cache[key] = {
            k: _cap_matrix(space, ring, k, space.n, fc, False)
            for k in range(space.n + 1)}
    return got


def _blown_caps(space, ring):
    """Matrices of the blown-up cap against the fundamental class, by
    cochain degree, from the tuple bases to the simplex bases."""
    key = ("blown_caps", ring.name)
    got = space.cache.get(key)
    if got is None:
        fc = _fundamental_cycle(space, ring)
        got = space.cache[key] = {
            k: _cap_matrix(space, ring, k, space.n, fc, True)
            for k in range(space.n + 1)}
    return got


def classical_duality(space, ring):
    """Cap with the fundamental class as a verified chain map from the
    cochain complex to the chain complex regraded by the top degree."""
    key = ("classical_duality", ring.name)
    got = space.cache.get(key)
    if got is None:
        _check_ring(ring)
        comps = {-k: M.scale(ring.el(-1)) if duality_sign(k) < 0 else M
                 for k, M in _classical_caps(space, ring).items()}
        got = ChainMap(cochain_complex(space, ring),
                       space.chain_complex(ring).shifted(space.n), comps)
        try:
            got.verify()
        except ValueError as e:
            raise AssertionError(f"classical duality: {e}") from None
        space.cache[key] = got
    return got


def classical_duality_induced(space, ring, k):
    """Induced map on degree-k cohomology, into (n-k)-homology."""
    f = classical_duality(space, ring)
    return InducedMap(f.source.homology(-k),
                      space.homology(space.n - k, ring), f.component(-k))


class DualityMap:
    """Cap with the fundamental class from the perversity-p blown-up
    complex to the perverse chain complex, in full coordinates.

    matrices[k] is the signed blown-up cap on degree-k cochains.  On the
    perverse basis of each degree it must land in the perverse chains
    and commute with the differentials; the whole blown-up complex need
    not satisfy either, so the checks stay on the perverse bases.

    The check of degree k depends only on the caps, the blown-up basis
    and the perverse allowable sets of degrees n - k and n - k - 1, so
    it runs once per space, ring and caps for each pair of the memo keys
    those live under (complexes.memo_key), whatever the perversity.
    The keys are kept with the caps object they were checked on, and
    only once every check of the map has passed.
    """

    def __init__(self, space, p, ring):
        _check_ring(ring)
        self.space = space
        self.tw = tw_complex(space, p, ring)
        self.pc = perverse_complex(space, p, ring)
        n = space.n
        caps = _blown_caps(space, ring)
        self.matrices = {k: M.scale(ring.el(-1)) if duality_sign(k) < 0
                         else M for k, M in caps.items()}
        checked = space.cache.get(("duality_checks", ring.name))
        if checked is None or checked[0] is not caps:
            checked = space.cache[("duality_checks", ring.name)] = (caps, set())
        done = checked[1]
        passed = []
        for k, M in self.matrices.items():
            key = (memo_key("basis", k, self.tw.allowable, k + 1),
                   memo_key("basis", n - k, self.pc.allowable, n - k - 1))
            if key in done:
                continue
            Bk = self.tw.bases[k]
            image = M @ Bk
            if not self.pc.contains(n - k, image):
                raise AssertionError(
                    f"cap left the perverse complex at degree {k}")
            # in degree n both differentials vanish
            if k < n and (self.matrices[k + 1]
                          @ (self.tw.differential(k) @ Bk)
                          != self.pc.differential(n - k) @ image):
                raise AssertionError(
                    f"blown-up duality is not a chain map at degree {k}")
            passed.append(key)
        done.update(passed)

    def induced(self, k):
        n = self.space.n
        return InducedMap(self.tw.homology(k), self.pc.homology(n - k),
                          self.matrices[k])

    def is_isomorphism(self, k):
        return self.induced(k).is_isomorphism()


def duality_map(space, p, ring):
    key = ("duality", tuple(p.values), ring.name)
    got = space.cache.get(key)
    if got is None:
        got = space.cache[key] = DualityMap(space, p, ring)
    return got


# --- identity and property checkers ---

def leibniz_holds(space, ring, k, omega, m, xi):
    """Boundary-of-cap identity on one pair, all terms expanded:

    d(w cap xi) = (-1)^k (w cap (d xi) - (dw) cap xi)."""
    B = blowup_complex(space)
    w = {B.index[b][1]: v for b, v in omega.items()}
    lhs = _cap_matrix(space, ring, k, m, xi, True) @ w
    if m - k > 0:
        lhs = space.boundary_matrix(m - k, ring) @ lhs
    else:
        lhs = {}
    dxi = space.boundary_matrix(m, ring) @ xi if m > 0 else {}
    t1 = _cap_matrix(space, ring, k, m - 1, dxi, True) @ w
    dw = B.differential(k, ring) @ w if k < B.top else {}
    t2 = _cap_matrix(space, ring, k + 1, m, xi, True) @ dw
    sign = ring.el(-1 if k % 2 else 1)
    for gi in set(lhs) | set(t1) | set(t2):
        want = ring.mul(sign, ring.sub(t1.get(gi, ring.zero),
                                       t2.get(gi, ring.zero)))
        if lhs.get(gi, ring.zero) != want:
            return False
    return True


def cap_bookkeeping_ok(space, ring, p, q, k, omega, m, xi):
    """Perversity bound on a cap: a p-bounded cochain against a chain of
    q-intersection gives a chain of (p+q)-intersection."""
    pq = p + q
    out = intersection_cap(space, ring, k, omega, m, xi)
    chains = [(m - k, out)]
    if m - k > 0:
        chains.append((m - k - 1, space.boundary_matrix(m - k, ring) @ out))
    for d, chain in chains:
        for gi, v in chain.items():
            if ring.is_zero(v):
                continue
            if not is_allowable(space, space.simplices(d)[gi], pq):
                return False
    return True


def check_chain_identity(space):
    """The embedded cochain caps like the original, one simplex at a
    time: for every simplicial cochain c and every simplex s of the
    space, (embedding of c) cap s = c cap s, over the integers.

    On simplices missing the top stratum both global caps are zero by
    convention, so only regular simplices can contribute entries.  For
    each regular simplex and each degree k the blown-up cap matrix times
    the degree-k embedding must equal the classical cap matrix, which
    covers every cochain at once.  Returns the number of (cochain,
    simplex) pairs covered; raises on the first mismatch.
    """
    n = space.n
    B = blowup_complex(space)
    emb = {k: B.embedding_matrix(k) for k in range(n + 1)}
    n_simplices = sum(len(space.simplices(m)) for m in range(n + 1))
    for m in range(n + 1):
        for si, s in enumerate(space.simplices(m)):
            if not space.is_regular(s):
                continue
            for k in range(m + 1):
                if (_cap_matrix(space, ZZ, k, m, {si: 1}, True) @ emb[k]
                        != _cap_matrix(space, ZZ, k, m, {si: 1}, False)):
                    raise AssertionError(
                        f"cap identity fails on simplex {s} in degree {k}")
    return n_simplices * n_simplices


def check_local_cap_factorization(space):
    """Embed, cap in the blowup, blow down: equals the classical local
    cap, for every face of every regular simplex.  Returns the number of
    (face, simplex) pairs checked; raises on the first mismatch."""
    checked = 0
    for m in range(space.n + 1):
        for s in space.simplices(m):
            if not space.is_regular(s):
                continue
            parts = space.join_decomposition(s).parts
            faces = [F for r in range(1, m + 2)
                     for F in combinations(tuple(s), r)]
            for F in faces:
                sign, terms = cochain_embedding_terms(F, parts)
                acc = {}
                for b in terms:
                    res = blown_cap(b, parts)
                    if res is None:
                        continue
                    s2, t = res
                    G = tuple_flatten(t)
                    if G is None:
                        continue
                    v = acc.get(G, 0) + sign * s2
                    if v:
                        acc[G] = v
                    else:
                        acc.pop(G, None)
                back = classical_cap_local(F, tuple(s))
                want = {back: 1} if back is not None else {}
                if acc != want:
                    raise AssertionError(
                        f"local cap factorization fails at {F} in {s}")
                checked += 1
    return checked


# --- verification drivers ---

class Report:
    def __init__(self, ok, lines):
        self.ok = ok
        self.lines = lines

    def __str__(self):
        return "\n".join(self.lines)


def _build_ascending(space, ring):
    """Build the space's cohomology and homology groups in ascending
    stored degree, so that each cycle basis is decided on the pivot rows
    of the group below (complexes.cycle_matrix), before any is read."""
    C = cochain_complex(space, ring)
    for k in range(space.n + 1):
        C.homology(k - space.n).build()
        space.homology(k, ring).build()


def verify_factorization(space, ring, perversities=None):
    """Factorization of classical duality through the blown-up duality.

    For every generator of every cohomology group: embedding then
    blown-up cap with the fundamental class is homologous to the
    classical cap.  Also checks, per perversity, that the blown-up
    duality map is an isomorphism in every degree, that the capped
    generators land in the perverse chain complex, and that the classes
    agree across nested perversities.  Raises ValueError on a space
    that fails validate().
    """
    _check_ring(ring)
    _check_space(space)
    n = space.n
    if perversities is None:
        perversities = [zero(n), clip(1, n), top(n)]
    C = cochain_complex(space, ring)
    classical = _classical_caps(space, ring)
    blown = _blown_caps(space, ring)
    B = blowup_complex(space)
    emb = {k: B.embedding_matrix(k).map_ring(ring) for k in range(n + 1)}
    _build_ascending(space, ring)
    lines = []
    ok = True
    caps = {}
    for k in range(n + 1):
        H = C.homology(-k)
        target = space.homology(n - k, ring)
        for rep in H.reps:
            rhs = classical[k] @ rep
            lhs = blown[k] @ (emb[k] @ rep)
            caps.setdefault(k, []).append(lhs)
            if target.coords(lhs) != target.coords(rhs):
                ok = False
                if isinstance(ring, RationalField):
                    # the witness shows Q entries as Fractions, integral
                    # ones too
                    rhs = {i: Fraction(v) for i, v in rhs.items()}
                lines.append(f"degree {k}: classes split, witness {rhs}")
    if ok:
        total = sum(len(v) for v in caps.values())
        lines.append(f"square commutes on {total} generators")
    for p in perversities:
        dm = duality_map(space, p, ring)
        iso = [dm.is_isomorphism(k) for k in range(n + 1)]
        contained = all(
            dm.pc.contains(n - k, Matrix.from_columns(
                ring, len(space.simplices(n - k)), chains))
            for k, chains in caps.items())
        pok = all(iso) and contained
        ok = ok and pok
        word = "isomorphism in every degree" if all(iso) else \
            "NOT an isomorphism in degrees " + \
            ", ".join(str(k) for k, good in enumerate(iso) if not good)
        lines.append(f"{p}: duality {word}; capped generators "
                     f"{'inside' if contained else 'OUTSIDE'} the perverse complex")
    for pa in perversities:
        for pb in perversities:
            if pa == pb or not pa <= pb:
                continue
            for k, chains in caps.items():
                beta = comparison_map(space, pa, pb, ring, n - k)
                for chain in chains:
                    if beta.target.coords(chain) != beta.image(
                            beta.source.coords(chain)):
                        ok = False
                        lines.append(
                            f"lattice naturality fails: {pa} <= {pb}, "
                            f"degree {k}")
    lines.append("PASS" if ok else "FAIL")
    return Report(ok, lines)


def check_zero_top(space, ring):
    """Degreewise truth table: (i) classical duality an isomorphism in
    every degree; (ii) the zero-to-top comparison an isomorphism in
    every degree; and the equivalence of (i) and (ii).  The equivalence
    is stated for normal pseudomanifolds, so this raises ValueError on
    a space that fails validate(), normality included."""
    _check_ring(ring)
    _check_space(space, normal=True)
    n = space.n
    classical_duality(space, ring)
    _build_ascending(space, ring)
    cap_iso = [classical_duality_induced(space, ring, k).is_isomorphism()
               for k in range(n + 1)]
    beta_iso = [comparison_map(space, zero(n), top(n), ring,
                               j).is_isomorphism()
                for j in range(n + 1)]
    i_holds = all(cap_iso)
    ii_holds = all(beta_iso)
    equiv = i_holds == ii_holds
    verdict = "PASS" if i_holds and ii_holds else "FAIL"
    line = (f"{verdict}: (i) {'holds' if i_holds else 'fails'}, "
            f"(ii) {'holds' if ii_holds else 'fails'}, "
            f"equivalence {'OK' if equiv else 'BROKEN'}")
    report = Report(i_holds and ii_holds, [line])
    report.cap_iso = cap_iso
    report.beta_iso = beta_iso
    report.equivalence_ok = equiv
    return report


def gm_demo(space=None, ring=ZZ):
    """Degree-3 obstruction display for the suspended projective space.

    The two dual-complex cohomologies in degree 3 bracket an
    isomorphism of degree-1 intersection homologies; with integer
    coefficients the middle group vanishes, so no duality map can
    factor through the dual complexes."""
    if space is None:
        space = builtin("sigma-rp3")
    n = space.n
    rows = [
        ("cohomology, degree 3",
         str(cohomology(space, ring, 3)), "Z/2"),
        ("gm cohomology, clip:2, degree 3",
         str(gm_cohomology(space, clip(2, n), ring, 3)), "Z/2"),
        ("gm cohomology, clip:1, degree 3",
         str(gm_cohomology(space, clip(1, n), ring, 3)), "0"),
        ("intersection homology, zero, degree 1",
         str(intersection_homology(space, zero(n), ring, 1)), "Z/2"),
        ("intersection homology, clip:1, degree 1",
         str(intersection_homology(space, clip(1, n), ring, 1)), "Z/2"),
    ]
    ok = True
    lines = []
    for label, got, want in rows:
        good = got == want
        ok = ok and good
        note = "" if good else f"  (expected {want})"
        lines.append(f"{label} = {got}{note}")
    beta = comparison_map(space, zero(n), clip(1, n), ring, 1)
    biso = beta.is_isomorphism()
    ok = ok and biso
    lines.append("comparison zero -> clip:1, degree 1: "
                 + ("isomorphism" if biso else "NOT an isomorphism"))
    if ok:
        lines.append("an isomorphism of the degree-1 groups cannot factor "
                     "through the trivial degree-3 group")
    lines.append("PASS" if ok else "FAIL")
    return Report(ok, lines)
