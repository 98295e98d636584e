"""Caps of one cochain with one chain, the identities checked on them
(check_local_cap_factorization caps apart from cap._cap_matrix, as an
independent local oracle), and the degree-3 obstruction display.  The
tests and the demo command use this module; the verify drivers do not.
"""

from itertools import combinations

from . import _on_first_use
from .cap import Report, _cap_matrix
from .filtered import builtin
from .intersection import (cohomology, comparison_map, gm_cohomology,
                           intersection_homology, is_allowable)
from .perversity import clip, zero
from .rings import ZZ

blowup = _on_first_use("blowup")


def classical_cap_local(face, simplex):
    """Back face of the cap of a dual cochain with an ordered simplex.

    None unless face is the front face of the simplex."""
    r = len(face) - 1
    if tuple(face) != tuple(simplex[:r + 1]):
        return None
    return tuple(simplex[r:])


def intersection_cap(space, ring, k, omega, m, xi):
    """Global cap of a degree-k blown cochain with a degree-m chain.

    omega is keyed by basis tuples, xi by m-simplex indices; the result
    is keyed by (m-k)-simplex indices.  Simplices that miss the top
    stratum are skipped.
    """
    B = blowup.blowup_complex(space)
    return _cap_matrix(space, ring, k, m, xi, True) @ {
        B.index[b][1]: w for b, w in omega.items()}


def classical_cap(space, ring, k, omega, m, xi):
    """Global classical cap, front face against back face.

    omega is keyed by k-simplex indices, xi by m-simplex indices; the
    non-regular simplices of xi are skipped, as in the blown-up cap.
    """
    return _cap_matrix(space, ring, k, m, xi, False) @ omega


def leibniz_holds(space, ring, k, omega, m, xi):
    """Boundary-of-cap identity on one pair, all terms expanded:

    d(w cap xi) = (-1)^k (w cap (d xi) - (dw) cap xi)."""
    B = blowup.blowup_complex(space)
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
    B = blowup.blowup_complex(space)
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
                sign, terms = blowup.cochain_embedding_terms(F, parts)
                acc = {}
                for b in terms:
                    res = blowup.blown_cap(b, parts)
                    if res is None:
                        continue
                    s2, t = res
                    G = blowup.tuple_flatten(t)
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


def gm_demo(space=None, ring=ZZ):
    """Degree-3 obstruction display for the suspended projective space.

    The two dual-complex cohomologies in degree 3 bracket an
    isomorphism of degree-1 intersection homologies; with integer
    coefficients the middle group vanishes, so no duality map can
    factor through the dual complexes.  That is a statement about the
    integers, so any other ring is refused with a ValueError."""
    if ring is not ZZ:
        raise ValueError("the degree-3 obstruction is an integral "
                         "statement; demo needs coefficients Z, not "
                         f"{ring.name}")
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
