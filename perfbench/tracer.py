"""Outside-in span tracer for the ihomology package.

The tracer wraps public callables of the package from outside: it
replaces each one on its class, or, for a module-level function, in
every `ihomology.*` module that holds the original object, because a
name bound by `from .snf import smith_normal_form` is a separate global
in each importing module.  Spans stay in memory and are written once
when the traced command ends.

Run as a script it executes one CLI command under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- verify ...

and exits with the CLI's exit status.  The per-ring coefficient calls
in `ihomology.rings` are deliberately left unwrapped: there are tens of
millions of them, and a wrapper would cost more than the work.  Their
time lands in the self time of the snf and matrices spans.
"""

import functools
import importlib
import json
import sys
import time
from fractions import Fraction

# "module:qualname" of every callable that gets a span.
TARGETS = (
    "snf:SNFResult.solve",
    "snf:solve_matrix",
    "snf:smith_normal_form",
    "snf:hermite_column_form",
    "snf:hermite_solve_vector",
    "snf:hermite_solve",
    "snf:integer_kernel",
    "matrices:Matrix.__matmul__",
    "complexes:homology_of",
    "complexes:PresentedComplex.homology",
    "complexes:HomologyGroup.coords",
    "complexes:InducedMap.is_isomorphism",
    "complexes:ChainMap.verify",
    "intersection:perverse_complex",
    "intersection:comparison_map",
    "intersection:allowable_indices",
    "blowup:blowup_complex",
    "blowup:tw_complex",
    "cap:classical_duality",
    "cap:duality_map",
    "cap:verify_factorization",
    "cap:check_zero_top",
    "filtered:load_complex",
    "filtered:FilteredComplex.boundary_matrix",
    "filtered:FilteredComplex.fundamental_class",
    "cli:main",
)

PACKAGE = "ihomology"


def span_name(target):
    """Metric prefix of a target: "snf:SNFResult.solve" -> "snf.SNFResult.solve"."""
    return target.replace(":", ".")


def _bits(x):
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _snf_stats(args, result):
    """Sizes in and out of smith_normal_form, and its largest entry.

    in_nnz is the nonzero count of the input matrix; out_nnz counts the
    diagonal plus every transform that was tracked; max_bits is the bit
    length of the largest numerator or denominator among them.
    """
    out_nnz = len(result.diag)
    max_bits = max((_bits(d) for d in result.diag), default=0)
    for T in (result.U, result.Uinv, result.V, result.Vinv):
        if T is None:
            continue
        for row in T.rows.values():
            out_nnz += len(row)
            for x in row.values():
                b = _bits(x)
                if b > max_bits:
                    max_bits = b
    return {"in_nnz": args[0].nnz(), "out_nnz": out_nnz, "max_bits": max_bits}


STATS = {"snf.smith_normal_form": _snf_stats}


class Tracer:
    """Installs span wrappers on TARGETS and records one span per call.

    A span is [name, start, end, self_s, outer, stats]: self_s is the
    duration minus the time covered by child spans (and by computing the
    children's stats), and outer is true when no span of the same name
    encloses it, so inclusive times can be summed without counting a
    recursive call twice.
    """

    def __init__(self):
        self.spans = []
        self._stack = []        # one [covered-by-children] cell per open span
        self._active = {}       # name -> open spans of that name
        self._undo = []         # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        stats_fn = STATS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
            stats = stats_fn(args, result) if stats_fn else None
            t2 = clock()
            if stack:
                stack[-1][0] += t2 - t0
            spans.append([name, t0, t1, t1 - t0 - cell[0], outer, stats])
            return result

        return traced

    @staticmethod
    def _modules():
        return [m for key, m in list(sys.modules.items())
                if m is not None
                and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self):
        for target in TARGETS:
            modname, qualname = target.split(":")
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            name = span_name(target)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, original), original)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for m in self._modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper, original)
        return self

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def aggregate(spans):
    """Per span name: calls, self_s, incl_s, and summed or maximal stats."""
    out = {}
    for name, t0, t1, self_s, outer, stats in spans:
        a = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        a["calls"] += 1
        a["self_s"] += self_s
        if outer:
            a["incl_s"] += t1 - t0
        for key, value in (stats or {}).items():
            if key == "max_bits":
                a[key] = max(a.get(key, 0), value)
            else:
                a[key] = a.get(key, 0) + value
    return out


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <ihomology CLI arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer().install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    try:
        code = cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
