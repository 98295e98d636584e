"""Command-line front end.

Subcommands compute group tables (homology, ih, tw, gm, table) or run
the verification drivers (verify factorization, verify zero-top,
demo sigma-rp3).  Groups print as `Z^r + Z/d1 + Z/d2 ...`; a single
requested degree prints the bare group.  Exit status: 0 on success or a
verified report, 1 on a verification failure, 2 on invalid input, 3 on
a broken internal invariant.  The layers only some commands run are
bound on first use, so a command compiles only the layers it runs.
"""

import argparse
import sys

from . import _on_first_use
from .filtered import builtin, load_complex
from .intersection import gm_cohomology, intersection_homology
from .rings import ring_by_name

perversity = _on_first_use("perversity")
blowup = _on_first_use("blowup")
cap = _on_first_use("cap")
checks = _on_first_use("checks")


def _add_source(sp):
    sp.add_argument("--builtin", metavar="NAME",
                    help="builtin space: s<n>, rp3, rp3-fine, sigma-rp3, "
                         "cone:<builtin>, susp:<builtin>")
    sp.add_argument("--input", metavar="FILE",
                    help="filtered complex in the text format")
    sp.add_argument("--coeffs", default="Z", metavar="RING",
                    help="Z, Q, or Zmod:<m> (default Z)")


def _add_table_flags(sp, perversity):
    sp.add_argument("--degree", metavar="K",
                    help="single degree <k> or range <a..b> "
                         "(default: all degrees)")
    sp.add_argument("--format", choices=("table", "tsv"), default="table")
    if perversity:
        sp.add_argument("--perversity", default="zero", metavar="P",
                        help="zero | top | clip:<k> | list:<v0,...,vn> "
                             "(default zero)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ihomology",
        description="Exact homology, intersection homology, and duality "
                    "verification for filtered simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, has_p, doc in (
            ("homology", False, "simplicial homology groups"),
            ("ih", True, "intersection homology groups"),
            ("tw", True, "blown-up (perversity-bounded) cohomology groups"),
            ("gm", True, "dual-complex cohomology groups"),
    ):
        sp = sub.add_parser(name, help=doc)
        _add_source(sp)
        _add_table_flags(sp, has_p)

    sp = sub.add_parser("table",
                        help="intersection homology, all perversities")
    _add_source(sp)
    _add_table_flags(sp, perversity=False)

    sp = sub.add_parser("verify", help="run a verification driver")
    sp.add_argument("what", choices=("factorization", "zero-top"))
    _add_source(sp)

    sp = sub.add_parser("demo", help="degree-3 obstruction display")
    sp.add_argument("what", choices=("sigma-rp3",))
    sp.add_argument("--coeffs", default="Z", metavar="RING")
    return parser


def _load_space(args):
    if getattr(args, "input", None):
        if args.builtin:
            raise ValueError("give either --builtin or --input, not both")
        return load_complex(args.input)
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    raise ValueError("no space given; use --builtin or --input")


def _degree_list(text, n):
    if text is None:
        return list(range(n + 1))
    a, dots, b = text.partition("..")
    try:
        lo, hi = int(a), int(b if dots else a)
    except ValueError:
        what = "degree range" if dots else "degree"
        raise ValueError(f"bad {what} {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty degree range {text!r}")
    for k in (lo, hi):
        if not 0 <= k <= n:
            raise ValueError(f"degree {k} is outside 0..{n}")
    return list(range(lo, hi + 1))


def _emit_groups(rows, fmt, out):
    if len(rows) == 1:
        print(rows[0][1], file=out)
    elif fmt == "tsv":
        for k, g in rows:
            print(f"{k}\t{g}", file=out)
    else:
        for k, g in rows:
            print(f"{k}: {g}", file=out)


def _emit_table(head, body, fmt, out):
    if fmt == "tsv":
        print("\t".join(head), file=out)
        for row in body:
            print("\t".join(row), file=out)
        return
    widths = [max(len(r[j]) for r in [head] + body)
              for j in range(len(head))]
    for row in [head] + body:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(),
              file=out)


def run(args, out):
    """Run one parsed command, printing to out; returns the exit status."""
    cmd = args.command
    if cmd == "demo":
        report = checks.gm_demo(ring=ring_by_name(args.coeffs))
        print(report, file=out)
        return 0 if report.ok else 1

    space = _load_space(args)
    ring = ring_by_name(args.coeffs)

    if cmd == "verify":
        if args.what == "factorization":
            report = cap.verify_factorization(space, ring)
        else:
            report = cap.check_zero_top(space, ring)
        print(report, file=out)
        return 0 if report.ok else 1

    n = space.n
    degrees = _degree_list(getattr(args, "degree", None), n)

    if cmd == "table":
        pervs = perversity.gm_lattice(n)
        head = ["perversity"] + [str(k) for k in degrees]
        body = [[str(p)] + [str(intersection_homology(space, p, ring, k))
                            for k in degrees]
                for p in pervs]
        _emit_table(head, body, args.format, out)
        return 0

    if cmd == "homology":
        rows = [(k, str(space.homology(k, ring))) for k in degrees]
    else:
        p = perversity.parse_perversity(args.perversity, n)
        fn = blowup.tw_cohomology if cmd == "tw" else \
            {"ih": intersection_homology, "gm": gm_cohomology}[cmd]
        rows = [(k, str(fn(space, p, ring, k))) for k in degrees]
    _emit_groups(rows, args.format, out)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        return run(args, sys.stdout)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
