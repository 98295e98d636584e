"""Finite filtered simplicial complexes modeling pseudomanifolds.

A complex carries a formal dimension n and a stratum index s(v) in
{0..n} on each vertex; the subspace X_i is the full subcomplex on the
vertices with s(v) <= i.  The vertex order must refine the stratum
order, so every simplex, kept as a sorted tuple of vertex indices,
splits into contiguous stratum runs: its join decomposition.

The module also hosts validation of the pseudomanifold conditions,
the fundamental class (the sum of the top-cycle basis), the text input
format used by the CLI, and the builtin space registry, which binds
the constructions it names (spaces) on first use.
"""

from itertools import combinations

from . import _on_first_use
from .intersection import chain_homology
from .matrices import Matrix

spaces = _on_first_use("spaces")


class NonOrientableError(ValueError):
    """Raised when a top simplex has no unit coefficient in any top cycle."""


class JoinDecomposition:
    """A simplex split by strata: parts[i] holds the vertices in stratum i."""

    __slots__ = ("parts", "regular")

    def __init__(self, parts):
        self.parts = parts
        self.regular = bool(parts[-1])

    def __repr__(self):
        return f"JoinDecomposition({self.parts!r})"


class ValidationReport:
    def __init__(self):
        self.checks = []

    def add(self, name, ok, witness=None):
        self.checks.append((name, ok, witness))

    def failures(self):
        return [(name, witness) for name, ok, witness in self.checks if not ok]

    @property
    def valid(self):
        return all(ok for name, ok, _ in self.checks if name != "normality")

    @property
    def normal(self):
        return all(ok for name, ok, _ in self.checks if name == "normality")

    def __str__(self):
        lines = []
        for name, ok, witness in self.checks:
            if ok:
                lines.append(f"ok   {name}")
            else:
                lines.append(f"FAIL {name}: {witness}")
        return "\n".join(lines)


class FilteredComplex:
    """Immutable filtered simplicial complex on ordered, stratified vertices."""

    def __init__(self, n, vertex_names, strata, facets, name=None):
        if len(vertex_names) != len(strata):
            raise ValueError("vertex names and strata differ in length")
        if len(set(vertex_names)) != len(vertex_names):
            raise ValueError("duplicate vertex names")
        for s in strata:
            if not 0 <= s <= n:
                raise ValueError(f"stratum {s} outside 0..{n}")
        for a, b in zip(strata, strata[1:]):
            if a > b:
                raise ValueError("vertex order does not refine the stratum order")
        self.n = n
        self.vertex_names = list(vertex_names)
        self.strata = list(strata)
        self.name = name

        seen = set()
        self.facets = []
        for f in facets:
            t = tuple(sorted(f))
            if len(set(t)) != len(t):
                raise ValueError(f"facet with repeated vertex: {f}")
            for v in t:
                if not 0 <= v < len(vertex_names):
                    raise ValueError(f"facet uses unknown vertex index {v}")
            if t not in seen:
                seen.add(t)
                self.facets.append(t)

        by_dim = {}
        for f in self.facets:
            for r in range(1, len(f) + 1):
                for face in combinations(f, r):
                    by_dim.setdefault(r - 1, set()).add(face)
        self._simplices = {k: sorted(s) for k, s in by_dim.items()}
        self._index = {k: {s: i for i, s in enumerate(lst)}
                       for k, lst in self._simplices.items()}
        self.cache = {}

    # --- basic structure ---

    @property
    def vertex_count(self):
        return len(self.vertex_names)

    def top_dim(self):
        return max(self._simplices) if self._simplices else -1

    def simplices(self, k):
        return self._simplices.get(k, [])

    def index_of(self, simplex):
        return self._index[len(simplex) - 1][tuple(simplex)]

    def has_simplex(self, simplex):
        t = tuple(simplex)
        return t in self._index.get(len(t) - 1, {})

    def f_vector(self):
        return tuple(len(self.simplices(k)) for k in range(self.top_dim() + 1))

    def euler_characteristic(self):
        return sum((-1) ** k * len(s) for k, s in self._simplices.items())

    def simplex_names(self, simplex):
        return tuple(self.vertex_names[v] for v in simplex)

    # --- filtration ---

    def stratum(self, v):
        return self.strata[v]

    def join_decomposition(self, simplex):
        parts = [[] for _ in range(self.n + 1)]
        for v in simplex:
            parts[self.strata[v]].append(v)
        return JoinDecomposition(tuple(tuple(p) for p in parts))

    def is_regular(self, simplex):
        return self.strata[simplex[-1]] == self.n

    def filtration_dim(self, simplex, level):
        """dim of the part of the simplex inside X_level; None when empty."""
        count = 0
        for v in simplex:
            if self.strata[v] <= level:
                count += 1
            else:
                break
        return count - 1 if count else None

    # --- chains ---

    def boundary_matrix(self, k, ring):
        key = ("boundary", k, ring.name)
        M = self.cache.get(key)
        if M is None:
            rows = {}
            lower = self._index.get(k - 1, {})
            minus_one = ring.el(-1)
            one = ring.el(1)
            for j, s in enumerate(self.simplices(k)):
                sign = one
                for i in range(len(s)):
                    face = s[:i] + s[i + 1:]
                    if face:
                        rows.setdefault(lower[face], {})[j] = sign
                    sign = ring.mul(sign, minus_one)
            M = Matrix(ring, len(self.simplices(k - 1)), len(self.simplices(k)), rows)
            self.cache[key] = M
        return M

    def coboundary_matrix(self, k, ring):
        """The simplicial coboundary from degree k to degree k + 1, the
        transpose of boundary_matrix(k + 1, ring) (cached)."""
        key = ("coboundary", k, ring.name)
        M = self.cache.get(key)
        if M is None:
            M = self.cache[key] = self.boundary_matrix(k + 1, ring).transpose()
        return M

    def homology(self, k, ring):
        return chain_homology(self, k, ring)

    # --- validation ---

    def validate(self):
        report = ValidationReport()
        bad = [v for v in range(self.vertex_count) if self.strata[v] == self.n - 1]
        report.add("no_codim_one", not bad,
                   self.vertex_names[bad[0]] if bad else None)

        covered = set()
        for f in self.simplices(self.n):
            for r in range(1, len(f) + 1):
                covered.update(combinations(f, r))
        uncovered = None
        for k in sorted(self._simplices, reverse=True):
            for s in self._simplices[k]:
                if s not in covered:
                    uncovered = self.simplex_names(s)
                    break
            if uncovered:
                break
        report.add("purity", uncovered is None, uncovered)

        # X_{n-l} has dimension at most n - l for l >= 2; every simplex
        # is a face of a facet, so its part in X_i lies in the facet's
        witness = next((self.simplex_names(f[:d + 1]) for f in self.facets
                        for i in range(self.n - 1)
                        for d in [self.filtration_dim(f, i)]
                        if d is not None and d > i), None)
        report.add("singular_dimension", witness is None, witness)

        ok, witness = True, None
        walls = self._wall_cofacets()
        for wall in self.simplices(self.n - 1):
            if all(self.strata[v] <= self.n - 2 for v in wall):
                continue
            found = len(walls.get(wall, []))
            if found != 2:
                ok = False
                witness = (self.simplex_names(wall), f"{found} cofacets")
                break
        report.add("two_cofaces", ok, witness)

        ok, witness = True, None
        for k in sorted(self._simplices):
            for s in self._simplices[k]:
                if any(self.strata[v] > self.n - 2 for v in s):
                    continue
                if not self._link_connected(s):
                    ok, witness = False, self.simplex_names(s)
                    break
            if not ok:
                break
        report.add("normality", ok, witness)
        return report

    def _wall_cofacets(self):
        key = ("wall_cofacets",)
        walls = self.cache.get(key)
        if walls is None:
            walls = {}
            for s in self.simplices(self.n):
                for i in range(len(s)):
                    walls.setdefault(s[:i] + s[i + 1:], []).append(s)
            self.cache[key] = walls
        return walls

    def _link_connected(self, simplex):
        sset = set(simplex)
        link_vertices = set()
        for f in self.facets:
            fs = set(f)
            if sset <= fs:
                link_vertices.update(fs - sset)
        if len(link_vertices) <= 1:
            return True
        parent = {v: v for v in link_vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.simplices(1):
            if sset & set(e):
                continue
            if e[0] in link_vertices and e[1] in link_vertices:
                if self.has_simplex(tuple(sorted(set(e) | sset))):
                    parent[find(e[0])] = find(e[1])
        roots = {find(v) for v in link_vertices}
        return len(roots) == 1

    # --- orientation ---

    def fundamental_class(self, ring):
        """The sum of the canonical basis of the top cycles,
        homology(n, ring).cycles, as a sparse vector over ring in
        ascending index order.

        That basis has one cycle per component of top simplices joined
        across walls, +1 on its first top simplex (snf.kernel); signs are
        relative to sorted vertex lists.  Raises NonOrientableError
        naming a top simplex with no unit coefficient, as on a
        non-orientable component unless 2 is zero in ring.
        """
        tops = self.simplices(self.n)
        if not tops:
            raise ValueError("no top-dimensional simplices")
        for wall, cofaces in self._wall_cofacets().items():
            if len(cofaces) != 2:
                raise ValueError(
                    f"wall {self.simplex_names(wall)} has {len(cofaces)} cofacets; "
                    "not a closed pseudomanifold")
        Z = self.homology(self.n, ring).cycles
        total = {} if Z is None else Z @ {j: ring.one
                                          for j in range(Z.ncols)}
        chain = {}
        for i, s in enumerate(tops):
            chain[i] = total.get(i, ring.zero)
            if not ring.is_unit(chain[i]):
                raise NonOrientableError(
                    f"not orientable over {ring.name}: top simplex "
                    f"{self.simplex_names(s)} has no unit coefficient in "
                    "any top cycle")
        if self.boundary_matrix(self.n, ring) @ chain:
            raise AssertionError("fundamental chain is not a cycle")
        return chain

    def __repr__(self):
        label = self.name or "FilteredComplex"
        return (f"<{label}: n={self.n}, {self.vertex_count} vertices, "
                f"f={self.f_vector()}>")


# --- text format ---


def _int_field(word, lineno, what):
    try:
        return int(word)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} {word!r} is not an "
                         "integer") from None


def _check_stratum(s, n, lineno):
    if not 0 <= s <= n:
        raise ValueError(f"line {lineno}: stratum {s} outside 0..{n}")


def parse_complex(text):
    """Parse the text format: dim, vertex, and facet lines; '#' comments."""
    n = None
    dim_line = None
    names = []
    strata = []
    vertex_lines = []
    index = {}
    facets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "dim":
            if len(words) != 2:
                raise ValueError(f"line {lineno}: expected 'dim <n>'")
            if dim_line is not None:
                raise ValueError(f"line {lineno}: second 'dim' line "
                                 f"(first on line {dim_line})")
            dim_line = lineno
            n = _int_field(words[1], lineno, "dimension")
            if n < 0:
                raise ValueError(f"line {lineno}: dimension {n} is negative")
            for v, at in zip(strata, vertex_lines):
                _check_stratum(v, n, at)
        elif words[0] == "vertex":
            if len(words) != 4 or words[2] != "stratum":
                raise ValueError(f"line {lineno}: expected 'vertex <name> stratum <i>'")
            vname, s = words[1], _int_field(words[3], lineno, "stratum")
            if vname in index:
                raise ValueError(f"line {lineno}: duplicate vertex {vname!r}")
            if n is not None:
                _check_stratum(s, n, lineno)
            if strata and s < strata[-1]:
                raise ValueError(f"line {lineno}: vertex order violates "
                                 "stratum refinement")
            index[vname] = len(names)
            names.append(vname)
            strata.append(s)
            vertex_lines.append(lineno)
        elif words[0] == "facet":
            if len(words) == 1:
                raise ValueError(f"line {lineno}: facet has no vertex")
            try:
                f = tuple(index[w] for w in words[1:])
            except KeyError as e:
                raise ValueError(f"line {lineno}: unknown vertex {e.args[0]!r}") from None
            if len(set(f)) != len(f):
                w = next(w for w in words[1:] if words[1:].count(w) > 1)
                raise ValueError(f"line {lineno}: facet repeats vertex {w!r}")
            facets.append(f)
        else:
            raise ValueError(f"line {lineno}: unknown directive {words[0]!r}")
    if n is None:
        raise ValueError("missing 'dim <n>' line")
    if not facets:
        raise ValueError("no facets given")
    return FilteredComplex(n, names, strata, facets)


def load_complex(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


# --- builtin registry ---

_builtin_cache = {}

# Largest builtin, in simplices, that builtin() will construct.  It
# admits susp:sigma-rp3 (7640), susp:rp3-fine (60386) and s15 (131070);
# s16 already needs 262142.
MAX_BUILTIN_SIMPLICES = 200_000

# Estimates at or past this are reported as this; nothing that large is
# ever built, and it keeps 2^(n+2) from growing without bound.
_SIZE_CEILING = 2 ** 64


# name -> (number of simplices, constructor) of each named builtin
_NAMED_BUILTINS = {
    # f-vector 40/232/384/192
    "rp3": (848, lambda: spaces.projective_space(4, subdivisions=1)),
    # f-vector 848/5456/9216/4608
    "rp3-fine": (20128, lambda: spaces.projective_space(4, subdivisions=2)),
    "sigma-rp3": (3 * 848 + 2, lambda: spaces.suspension(builtin("rp3"))),
}


def builtin_size(name):
    """Number of simplices builtin(name) would have, worked out from the
    name alone; estimates saturate at 2^64."""
    if name.startswith("cone:"):
        inner = builtin_size(name.split(":", 1)[1])
        return min(2 * inner + 1, _SIZE_CEILING)
    if name.startswith("susp:"):
        inner = builtin_size(name.split(":", 1)[1])
        return min(3 * inner + 2, _SIZE_CEILING)
    if name in _NAMED_BUILTINS:
        return _NAMED_BUILTINS[name][0]
    if name.startswith("s") and name[1:].isdigit():
        n = int(name[1:])
        return 2 ** (n + 2) - 2 if n < 62 else _SIZE_CEILING
    raise ValueError(f"unknown builtin {name!r}")


def builtin(name):
    """Builtin spaces: s<n>, rp3, rp3-fine, sigma-rp3, cone:<builtin>,
    susp:<builtin>.

    A space whose builtin_size is over MAX_BUILTIN_SIMPLICES is refused
    with a ValueError before anything is built.
    """
    K = _builtin_cache.get(name)
    if K is not None:
        return K
    size = builtin_size(name)
    if size > MAX_BUILTIN_SIMPLICES:
        shown = "2^64 or more" if size == _SIZE_CEILING else str(size)
        raise ValueError(f"builtin {name!r} would have {shown} simplices, "
                         f"over the cap of {MAX_BUILTIN_SIMPLICES}")
    if name.startswith("cone:"):
        K = spaces.cone(builtin(name.split(":", 1)[1]))
        K.name = name
    elif name.startswith("susp:"):
        K = spaces.suspension(builtin(name.split(":", 1)[1]))
        K.name = name
    elif name in _NAMED_BUILTINS:
        K = _NAMED_BUILTINS[name][1]()
        K.name = name
    else:
        # builtin_size has already rejected every other name
        K = spaces.simplex_sphere(int(name[1:]))
    _builtin_cache[name] = K
    return K
