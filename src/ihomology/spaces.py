"""Standard constructions of filtered simplicial complexes: simplex and
cross-polytope boundaries, cone, suspension, barycentric subdivision,
the quotient by a free involution, and projective spaces.  The builtin
registry in filtered names them; a job on an input file never runs this.
"""

from itertools import combinations

from .filtered import FilteredComplex


def simplex_sphere(n):
    """Boundary of the (n+1)-simplex, with the trivial filtration."""
    V = n + 2
    names = [f"v{i}" for i in range(V)]
    strata = [n] * V
    facets = list(combinations(range(V), V - 1))
    return FilteredComplex(n, names, strata, facets, name=f"s{n}")


def cross_polytope_boundary(d):
    """Boundary of the d-dimensional cross-polytope: a (d-1)-sphere.

    Vertices come in antipodal pairs +e_i, -e_i; facets pick one sign per
    coordinate, so no simplex contains an antipodal pair.
    """
    names = []
    for i in range(1, d + 1):
        names.append(f"+e{i}")
        names.append(f"-e{i}")
    n = d - 1
    strata = [n] * (2 * d)
    facets = []
    for signs in range(2 ** d):
        facets.append(tuple(2 * i + ((signs >> i) & 1) for i in range(d)))
    return FilteredComplex(n, names, strata, facets, name=f"cross{d}")


def cross_polytope_antipode(d):
    """The antipodal involution on cross_polytope_boundary(d) vertices."""
    return {2 * i: 2 * i + 1 for i in range(d)} | {2 * i + 1: 2 * i for i in range(d)}


def _fresh_name(base, taken):
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def cone(K, apex_name="apex"):
    """Simplicial cone: apex in stratum 0, K strata shifted up by one."""
    n = K.n + 1
    names = [_fresh_name(apex_name, set(K.vertex_names))] + K.vertex_names
    strata = [0] + [s + 1 for s in K.strata]
    facets = [(0,) + tuple(v + 1 for v in f) for f in K.facets]
    return FilteredComplex(n, names, strata, facets,
                           name=f"cone:{K.name}" if K.name else None)


def suspension(K):
    """Simplicial suspension: two apexes in stratum 0, strata shifted up."""
    n = K.n + 1
    taken = set(K.vertex_names)
    north = _fresh_name("north", taken)
    south = _fresh_name("south", taken | {north})
    names = [north, south] + K.vertex_names
    strata = [0, 0] + [s + 1 for s in K.strata]
    facets = []
    for f in K.facets:
        shifted = tuple(v + 2 for v in f)
        facets.append((0,) + shifted)
        facets.append((1,) + shifted)
    return FilteredComplex(n, names, strata, facets,
                           name=f"susp:{K.name}" if K.name else None)


def barycentric_subdivision(K):
    """Flag complex of the face poset; barycenter strata from carriers.

    The stratum of a barycenter is the largest vertex stratum of its
    carrier simplex, which keeps each X_i a full subcomplex.  The result
    carries the carrier map in its `carriers` attribute.
    """
    carriers = []
    for k in sorted(K._simplices):
        carriers.extend(K._simplices[k])
    strata = [K.strata[c[-1]] for c in carriers]
    order = sorted(range(len(carriers)), key=lambda i: (strata[i], carriers[i]))
    carriers = [carriers[i] for i in order]
    strata = [strata[i] for i in order]
    pos = {c: i for i, c in enumerate(carriers)}
    names = ["b{" + ",".join(K.vertex_names[v] for v in c) + "}" for c in carriers]

    facets = []
    for f in K.facets:
        # maximal flags of faces of f correspond to orderings of its vertices
        def extend(flag, remaining):
            if not remaining:
                facets.append(tuple(sorted(pos[c] for c in flag)))
                return
            for v in remaining:
                extend(flag + [tuple(sorted(flag[-1] + (v,))) if flag else (v,)],
                       tuple(w for w in remaining if w != v))
        extend([], f)

    out = FilteredComplex(K.n, names, strata, facets,
                          name=f"sd({K.name})" if K.name else None)
    out.carriers = carriers
    return out


def lift_involution(K, pairing, sd):
    """Transport a vertex involution of K to barycentric_subdivision(K)."""
    pos = {c: i for i, c in enumerate(sd.carriers)}
    out = {}
    for i, c in enumerate(sd.carriers):
        out[i] = pos[tuple(sorted(pairing[v] for v in c))]
    return out


def antipodal_quotient(K, pairing):
    """Quotient by a free simplicial involution, with admissibility checks.

    pairing maps each vertex index to its partner.  The action must be a
    strata-preserving free involution, no simplex may meet its image, and
    distinct simplices may share an image vertex set only if they form an
    orbit; violations raise with a witness.
    """
    V = K.vertex_count
    for v in range(V):
        w = pairing.get(v)
        if w is None or not 0 <= w < V:
            raise ValueError(f"involution undefined on vertex {K.vertex_names[v]}")
        if w == v:
            raise ValueError(f"involution fixes vertex {K.vertex_names[v]}")
        if pairing[w] != v:
            raise ValueError(f"not an involution at vertex {K.vertex_names[v]}")
        if K.strata[v] != K.strata[w]:
            raise ValueError(f"involution moves {K.vertex_names[v]} across strata")

    def image(s):
        return tuple(sorted(pairing[v] for v in s))

    for k in sorted(K._simplices):
        for s in K._simplices[k]:
            t = image(s)
            if not K.has_simplex(t):
                raise ValueError(f"not simplicial: image of {K.simplex_names(s)} "
                                 "is not a simplex")
            if set(s) & set(t):
                raise ValueError(f"simplex {K.simplex_names(s)} meets its image; "
                                 "subdivide first")

    rep = {v: min(v, pairing[v]) for v in range(V)}
    reps = sorted(set(rep.values()))
    new_index = {r: i for i, r in enumerate(reps)}

    def project(s):
        t = tuple(sorted(new_index[rep[v]] for v in s))
        if len(set(t)) != len(s):
            raise ValueError(f"orbit map collapses simplex {K.simplex_names(s)}")
        return t

    projected = {}
    for k in sorted(K._simplices):
        for s in K._simplices[k]:
            q = project(s)
            other = projected.get(q)
            if other is not None and other != s and other != image(s):
                raise ValueError(
                    f"identification clash: {K.simplex_names(s)} and "
                    f"{K.simplex_names(other)} share image {q}")
            projected[q] = s

    names = [K.vertex_names[r] for r in reps]
    strata = [K.strata[r] for r in reps]
    facets = sorted({project(f) for f in K.facets})
    return FilteredComplex(K.n, names, strata, facets,
                           name=f"{K.name}/antipode" if K.name else None)


def projective_space(d, subdivisions=1):
    """RP^{d-1} as a quotient of the subdivided cross-polytope boundary."""
    K = cross_polytope_boundary(d)
    pairing = cross_polytope_antipode(d)
    for _ in range(subdivisions):
        sd = barycentric_subdivision(K)
        pairing = lift_involution(K, pairing, sd)
        K = sd
    return antipodal_quotient(K, pairing)
