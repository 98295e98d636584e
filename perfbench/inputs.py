"""Seeded benchmark inputs: relabelled copies of a committed base complex.

A base complex lives in data/<name>.txt in the CLI's text format, written
in the order the package's builtin of the same name produces.  Seed 0
returns that order unchanged.  Any other seed shuffles the vertices
inside each stratum (the vertex order must still refine the stratum
order, so strata keep their places) and shuffles the facet lines.  The
result is isomorphic to the base as a filtered complex, so every group
and every verdict the CLI prints is the same for every seed; only the
order the eliminator meets rows and columns in changes.

The files are read here rather than through the package's own parser, so
that a change to the package cannot change the benchmark's inputs.
"""

import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def parse(text):
    """Return (n, names, strata, facets) from the text format.

    facets are tuples of vertex names.  Only the subset of the format the
    base files use is read; the CLI's own parser does the checking.
    """
    n = None
    names, strata, facets = [], [], []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "dim":
            n = int(words[1])
        elif words[0] == "vertex":
            names.append(words[1])
            strata.append(int(words[3]))
        elif words[0] == "facet":
            facets.append(tuple(words[1:]))
    return n, names, strata, facets


def render(n, names, strata, facets):
    lines = [f"dim {n}"]
    lines += [f"vertex {v} stratum {s}" for v, s in zip(names, strata)]
    lines += ["facet " + " ".join(f) for f in facets]
    return "\n".join(lines) + "\n"


def relabel(n, names, strata, facets, seed):
    """Shuffle vertices within each stratum and the facet lines by seed."""
    if seed == 0:
        return n, list(names), list(strata), list(facets)
    rng = random.Random(seed)
    order = []
    start = 0
    while start < len(names):
        end = start
        while end < len(names) and strata[end] == strata[start]:
            end += 1
        block = list(range(start, end))
        rng.shuffle(block)
        order += block
        start = end
    facets = [tuple(rng.sample(f, len(f))) for f in facets]
    rng.shuffle(facets)
    return (n, [names[i] for i in order], [strata[i] for i in order],
            facets)


def make_input(base, seed):
    """Text of the base complex data/<base>.txt relabelled by seed."""
    text = (DATA / f"{base}.txt").read_text(encoding="utf-8")
    return render(*relabel(*parse(text), seed))
