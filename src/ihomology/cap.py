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
contribute nothing to either.  The caps of a single cochain and chain,
and the oracles that check them, are in checks.

Capping with the fundamental class gives the duality maps, with a
degree sign that makes them commute on the nose:

    d(w cap xi) = (-1)^{|w|} (w cap (d xi)  -  (dw) cap xi)

is the Leibniz rule both caps obey (the relative sign was fixed
empirically, by elimination on randomized pairs, and is asserted by the
test suite), so twisting degree k by (-1)^{k(k+1)/2} absorbs it.  Each
cap against the fundamental class is built once per space and ring,
already twisted (_duality_caps): the classical table is the classical
duality map, checked once per table to commute with the simplicial
coboundaries and boundaries (classical_duality), and the blown-up
table is the matrices of every perversity's duality map, in full
coordinates from tuple cochains to simplex chains.  The blown-up map
is checked only on the perverse bases: on the whole blown-up complex
of the suspended projective space it fails to commute in degree 3.  A
failed check is a broken invariant and raises AssertionError.

The verification drivers at the bottom replay the duality criteria on a
given complex: the factorization of the classical duality map through
the blown-up complexes, and the degreewise equivalence between
classical duality and the zero-to-top comparison.  Only the first
reads the blown-up complex, so blowup is bound on first use.
"""

from . import _on_first_use
from .complexes import InducedMap, memo_key
from .intersection import cohomology, comparison_map, perverse_complex
from .matrices import Matrix
from .perversity import clip, top, zero
from .rings import RationalField

blowup = _on_first_use("blowup")
fractions = _on_first_use("fractions", None)


def duality_sign(k):
    return -1 if (k * (k + 1) // 2) % 2 else 1


def _check_ring(ring):
    if ring.free_order:
        raise ValueError("duality needs integer or field coefficients")


def _check_space(space, normal=False):
    """Refuse a space that fails a pseudomanifold check of validate(),
    or, when normal is set, its normality check."""
    for name, witness in space.validate().failures():
        if normal or name != "normality":
            raise ValueError(f"input fails the {name} check, witness {witness}")


# --- the cap builder ---

def _cap_matrix(space, ring, k, m, xi, blown):
    """Matrix of w -> w cap xi for a degree-m chain xi, keyed by
    m-simplex indices.

    Its columns are the degree-k blown-up tuples when blown is set, and
    the k-simplices otherwise; its rows are the (m-k)-simplices.  The
    non-regular simplices of xi are skipped.  The two caps differ only
    in each simplex's term list: the classical cap has one term, front
    face to back face with sign +1, and the blown-up cap has the
    simplex's cap support in degree k (blowup.BlowupComplex.cap_terms).
    """
    if blown:
        B = blowup.blowup_complex(space)
        ncols = B.dim(k)
    else:
        ncols = len(space.simplices(k))
    rows = {}
    # a degree-k cochain caps every chain of lower degree to zero
    for si, x in (xi.items() if k <= m else ()):
        s = space.simplices(m)[si]
        if ring.is_zero(x) or not space.is_regular(s):
            continue
        if blown:
            terms = B.cap_terms(m, si, k)
        else:
            terms = ((space.index_of(s[:k + 1]), 1, space.index_of(s[k:])),)
        for j, sg, gi in terms:
            row = rows.setdefault(gi, {})
            row[j] = ring.add(row.get(j, ring.zero),
                              ring.neg(x) if sg < 0 else x)
    rows = {gi: {j: v for j, v in row.items() if not ring.is_zero(v)}
            for gi, row in rows.items()}
    return Matrix(ring, len(space.simplices(m - k)), ncols,
                  {gi: row for gi, row in rows.items() if row})


# --- cap-with-fundamental-class matrices ---

def _fundamental_cycle(space, ring):
    """The fundamental class, which both caps need on regular simplices."""
    fc = space.fundamental_class(ring)
    tops = space.simplices(space.n)
    if not all(space.is_regular(tops[si]) for si in fc):
        raise AssertionError(
            "fundamental chain contains a non-regular simplex")
    return fc


def _duality_caps(space, ring, blown):
    """Matrices of the cap against the fundamental class, by cochain
    degree k, twisted by duality_sign(k): the blown-up cap from the
    tuple bases when blown is set, the classical one from the simplex
    bases otherwise, into the simplex bases.  One table per space, ring
    and kind of cap, which every duality map reads as it is."""
    key = ("duality_caps", ring.name, blown)
    got = space.cache.get(key)
    if got is None:
        fc = _fundamental_cycle(space, ring)
        # the cap is linear in the chain: against -[X], it is negated
        minus = {si: ring.neg(c) for si, c in fc.items()}
        got = space.cache[key] = {
            k: _cap_matrix(space, ring, k, space.n,
                           fc if duality_sign(k) > 0 else minus, blown)
            for k in range(space.n + 1)}
    return got


def classical_duality(space, ring):
    """The signed classical table (_duality_caps), once it is checked to
    commute with the differentials: caps[k + 1] @ d^k == d_{n-k} @
    caps[k] for k < n, from cochains to chains.  The check runs once
    per table; a failure raises AssertionError naming the degree."""
    _check_ring(ring)
    caps = _duality_caps(space, ring, False)
    key = ("classical_duality", ring.name)
    if space.cache.get(key) is not caps:
        n = space.n
        for k in range(n):
            if (caps[k + 1] @ space.coboundary_matrix(k, ring)
                    != space.boundary_matrix(n - k, ring) @ caps[k]):
                raise AssertionError(
                    f"classical duality is not a chain map at degree {k}")
        space.cache[key] = caps
    return caps


def classical_duality_induced(space, ring, k):
    """Induced map on degree-k cohomology, into (n-k)-homology."""
    return InducedMap(cohomology(space, ring, k),
                      space.homology(space.n - k, ring),
                      classical_duality(space, ring)[k])


class DualityMap:
    """Cap with the fundamental class from the perversity-p blown-up
    complex to the perverse chain complex, in full coordinates.

    matrices is the table of signed blown-up caps (_duality_caps), the
    one object every perversity's map shares; matrices[k] acts on
    degree-k cochains.  On the perverse basis of each degree it must
    land in the perverse chains and commute with the differentials; the
    whole blown-up complex need not satisfy either, so the checks stay
    on the perverse bases.

    The check of degree k depends only on the caps, the blown-up basis
    and the perverse allowable sets of degrees n - k and n - k - 1, so
    it runs once per space, ring and caps for each pair of the memo keys
    those live under (complexes.memo_key), whatever the perversity.
    The keys are kept with the table they were checked on, and only
    once every check of the map has passed.
    """

    def __init__(self, space, p, ring):
        _check_ring(ring)
        self.space = space
        self.tw = blowup.tw_complex(space, p, ring)
        self.pc = perverse_complex(space, p, ring)
        n = space.n
        caps = self.matrices = _duality_caps(space, ring, True)
        checked = space.cache.get(("duality_checks", ring.name))
        if checked is None or checked[0] is not caps:
            checked = space.cache[("duality_checks", ring.name)] = (caps, set())
        done = checked[1]
        passed = []
        for k, M in caps.items():
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
            if k < n and (caps[k + 1]
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


# --- verification drivers ---

class Report:
    def __init__(self, ok, lines):
        self.ok = ok
        self.lines = lines

    def __str__(self):
        return "\n".join(self.lines)


def _build_in_order(*runs):
    """Build each run of groups, all of them made already, in its order.

    A run lists the groups of one memo in the order that prunes them,
    degrees counted along the differential: ascending for chains,
    descending for cochains.  Each build then decides its cycle basis
    on the pivot rows of the group built before it (complexes.
    shared_cycles), and, as the next group is already made, leaves out
    of its sweep the columns that group's cycles clear (complexes.
    cleared_columns)."""
    for run in runs:
        for H in run:
            H.build()


def _build_ascending(space, ring):
    """Build the space's cohomology and homology groups in pruning order
    (_build_in_order), before any is read.

    The drivers run this first: the fundamental class is the cycle
    basis of H_n, so built here it costs no elimination of its own, and
    built before it would be eliminated on every row of d_n."""
    n = space.n
    _build_in_order([cohomology(space, ring, k) for k in range(n, -1, -1)],
                    [space.homology(k, ring) for k in range(n + 1)])


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
    _build_ascending(space, ring)
    n = space.n
    if perversities is None:
        perversities = [zero(n), clip(1, n), top(n)]
    # both twisted by duality_sign(k): a common sign changes no
    # comparison, containment or lattice check below
    classical = _duality_caps(space, ring, False)
    blown = _duality_caps(space, ring, True)
    B = blowup.blowup_complex(space)
    emb = {k: B.embedding_matrix(k, ring) for k in range(n + 1)}
    lines = []
    ok = True
    caps = {}
    for k in range(n + 1):
        H = cohomology(space, ring, k)
        target = space.homology(n - k, ring)
        for rep in H.reps:
            rhs = classical[k] @ rep
            lhs = blown[k] @ (emb[k] @ rep)
            caps.setdefault(k, []).append(lhs)
            if target.coords(lhs) != target.coords(rhs):
                ok = False
                # the witness is the classical cap, untwisted
                rhs = {i: v if duality_sign(k) > 0 else ring.neg(v)
                       for i, v in sorted(rhs.items())}
                if isinstance(ring, RationalField):
                    # the witness shows Q entries as Fractions, integral
                    # ones too
                    rhs = {i: fractions.Fraction(v) for i, v in rhs.items()}
                lines.append(f"degree {k}: classes split, witness {rhs}")
    if ok:
        total = sum(len(v) for v in caps.values())
        lines.append(f"square commutes on {total} generators")
    for p in perversities:
        dm = duality_map(space, p, ring)
        _build_in_order([dm.tw.homology(k) for k in range(n, -1, -1)],
                        [dm.pc.homology(k) for k in range(n + 1)])
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
    _build_ascending(space, ring)
    n = space.n
    classical_duality(space, ring)
    cap_iso = [classical_duality_induced(space, ring, k).is_isomorphism()
               for k in range(n + 1)]
    # every perverse group is made before the comparisons build them in
    # ascending degree, so each build is pruned and cleared
    for p in (zero(n), top(n)):
        for j in range(n + 1):
            perverse_complex(space, p, ring).homology(j)
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
