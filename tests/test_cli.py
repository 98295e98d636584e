"""End-to-end tests of the command line interface."""

import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ihomology
import ihomology.cap as cap
from ihomology.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_degree_prints_bare_group(capsys):
    code, out, _ = run_cli(capsys, "ih", "--builtin", "sigma-rp3",
                           "--coeffs", "Z", "--perversity", "zero",
                           "--degree", "1")
    assert code == 0
    assert out == "Z/2\n"


def test_homology_single_degree(capsys):
    code, out, _ = run_cli(capsys, "homology", "--builtin", "s4",
                           "--coeffs", "Z", "--degree", "4")
    assert code == 0
    assert out == "Z\n"


def test_default_degrees_table_format(capsys):
    code, out, _ = run_cli(capsys, "ih", "--builtin", "s4",
                           "--coeffs", "Z", "--perversity", "zero")
    assert code == 0
    assert out == "0: Z\n1: 0\n2: 0\n3: 0\n4: Z\n"


def test_tsv_format(capsys):
    code, out, _ = run_cli(capsys, "ih", "--builtin", "sigma-rp3",
                           "--coeffs", "Z", "--perversity", "top",
                           "--format", "tsv")
    assert code == 0
    assert out == "0\tZ\n1\t0\n2\tZ/2\n3\t0\n4\tZ\n"


def test_degree_range(capsys):
    code, out, _ = run_cli(capsys, "homology", "--builtin", "rp3",
                           "--coeffs", "Z", "--degree", "1..3")
    assert code == 0
    assert out == "1: Z/2\n2: 0\n3: Z\n"


def test_rational_coefficients(capsys):
    code, out, _ = run_cli(capsys, "ih", "--builtin", "sigma-rp3",
                           "--coeffs", "Q", "--perversity", "zero",
                           "--degree", "1")
    assert code == 0
    assert out == "0\n"


def test_tw_command_mod_two(capsys):
    code, out, _ = run_cli(capsys, "tw", "--builtin", "sigma-rp3",
                           "--coeffs", "Zmod:2", "--perversity", "zero",
                           "--format", "tsv")
    assert code == 0
    assert out == "0\t(Z/2)\n1\t0\n2\t(Z/2)\n3\t(Z/2)\n4\t(Z/2)\n"


def test_gm_command(capsys):
    code, out, _ = run_cli(capsys, "gm", "--builtin", "sigma-rp3",
                           "--coeffs", "Z", "--perversity", "clip:1",
                           "--degree", "3")
    assert code == 0
    assert out == "0\n"


def test_table_command_s4_tsv(capsys):
    code, out, _ = run_cli(capsys, "table", "--builtin", "s4",
                           "--coeffs", "Z", "--format", "tsv")
    assert code == 0
    assert out == ("perversity\t0\t1\t2\t3\t4\n"
                   "(0,0,0,0,0)\tZ\t0\t0\t0\tZ\n"
                   "(0,0,0,0,1)\tZ\t0\t0\t0\tZ\n"
                   "(0,0,0,1,1)\tZ\t0\t0\t0\tZ\n"
                   "(0,0,0,1,2)\tZ\t0\t0\t0\tZ\n")


def test_table_command_suspension():
    # the singular set is two points of codimension four, so the groups
    # depend only on the last perversity value: 0 and 1 give the
    # zero-perversity answer shape, 2 gives the top-perversity one
    import io
    from ihomology.cli import build_parser, run
    args = build_parser().parse_args(
        ["table", "--builtin", "sigma-rp3", "--coeffs", "Z",
         "--format", "tsv"])
    buf = io.StringIO()
    assert run(args, buf) == 0
    assert buf.getvalue() == (
        "perversity\t0\t1\t2\t3\t4\n"
        "(0,0,0,0,0)\tZ\tZ/2\t0\t0\tZ\n"
        "(0,0,0,0,1)\tZ\tZ/2\t0\t0\tZ\n"
        "(0,0,0,1,1)\tZ\tZ/2\t0\t0\tZ\n"
        "(0,0,0,1,2)\tZ\t0\tZ/2\t0\tZ\n")


def test_table_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "table", "--builtin", "sigma-rp3",
                             "--coeffs", "Z")
    code2, out2, _ = run_cli(capsys, "table", "--builtin", "sigma-rp3",
                             "--coeffs", "Z")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].split() == \
        ["perversity", "0", "1", "2", "3", "4"]


@pytest.mark.parametrize("coeffs", ["Z", "Q", "Zmod:4"])
@pytest.mark.parametrize("command", [["homology"],
                                     ["ih", "--perversity", "zero"]],
                         ids=["homology", "ih-zero"])
def test_single_degree_is_its_line_of_every_degree(monkeypatch, capsys,
                                                   command, coeffs):
    # every degree at once decides each cycle basis on the pivot rows of
    # the one below; one degree alone, from a fresh space, uses every row
    from ihomology.spaces import projective_space, suspension
    monkeypatch.setattr("ihomology.cli.builtin",
                        lambda name: suspension(projective_space(4)))
    argv = command + ["--builtin", "sigma-rp3", "--coeffs", coeffs]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    for k, line in enumerate(lines):
        code, out, _ = run_cli(capsys, *argv, "--degree", str(k))
        assert code == 0
        assert f"{k}: {out}" == line + "\n"


def test_verify_zero_top_rational(capsys):
    code, out, _ = run_cli(capsys, "verify", "zero-top",
                           "--builtin", "sigma-rp3", "--coeffs", "Q")
    assert code == 0
    assert out == "PASS: (i) holds, (ii) holds, equivalence OK\n"


def test_verify_zero_top_integral_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "zero-top",
                           "--builtin", "sigma-rp3", "--coeffs", "Z")
    assert code == 1
    assert out == "FAIL: (i) fails, (ii) fails, equivalence OK\n"


def test_verify_zero_top_sphere(capsys):
    code, out, _ = run_cli(capsys, "verify", "zero-top",
                           "--builtin", "s4", "--coeffs", "Z")
    assert code == 0
    assert out == "PASS: (i) holds, (ii) holds, equivalence OK\n"


def test_verify_factorization_sphere(capsys):
    code, out, _ = run_cli(capsys, "verify", "factorization",
                           "--builtin", "s4", "--coeffs", "Z")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "square commutes on 2 generators"
    assert lines[-1] == "PASS"


def test_demo_output(capsys):
    code, out, _ = run_cli(capsys, "demo", "sigma-rp3")
    assert code == 0
    assert out.splitlines() == [
        "cohomology, degree 3 = Z/2",
        "gm cohomology, clip:2, degree 3 = Z/2",
        "gm cohomology, clip:1, degree 3 = 0",
        "intersection homology, zero, degree 1 = Z/2",
        "intersection homology, clip:1, degree 1 = Z/2",
        "comparison zero -> clip:1, degree 1: isomorphism",
        "an isomorphism of the degree-1 groups cannot factor through "
        "the trivial degree-3 group",
        "PASS",
    ]


@pytest.mark.parametrize("coeffs, name", [("Q", "Q"), ("Zmod:2", "Z/2"),
                                           ("Zmod:3", "Z/3")])
def test_demo_refuses_every_ring_but_the_integers(capsys, coeffs, name):
    # the obstruction is that an integral group vanishes; over a field
    # the groups differ, and comparing them with Z's would print FAIL
    code, out, err = run_cli(capsys, "demo", "sigma-rp3", "--coeffs", coeffs)
    assert code == 2
    assert out == ""
    assert err == ("error: the degree-3 obstruction is an integral "
                   f"statement; demo needs coefficients Z, not {name}\n")


def test_input_file(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    path.write_text(
        "# a triangle boundary\n"
        "dim 1\n"
        "vertex a stratum 1\n"
        "vertex b stratum 1\n"
        "vertex c stratum 1\n"
        "facet a b\n"
        "facet b c\n"
        "facet a c\n")
    code, out, _ = run_cli(capsys, "homology", "--input", str(path),
                           "--coeffs", "Z")
    assert code == 0
    assert out == "0: Z\n1: Z\n"


def test_verify_refuses_invalid_input(tmp_path, capsys):
    # a triangle boundary with a codimension-one stratum at vertex a
    path = tmp_path / "codim_one.txt"
    path.write_text(
        "dim 1\n"
        "vertex a stratum 0\n"
        "vertex b stratum 1\n"
        "vertex c stratum 1\n"
        "facet a b\n"
        "facet a c\n"
        "facet b c\n")
    for what in ("zero-top", "factorization"):
        code, out, err = run_cli(capsys, "verify", what, "--input", str(path))
        assert code == 2, what
        assert out == ""
        assert err == "error: input fails the no_codim_one check, witness a\n"


def test_verify_refuses_a_singular_stratum_of_too_high_dimension(
        tmp_path, capsys, patch_snf):
    # three tetrahedron boundaries sharing the edge p q at stratum 0: both
    # verify commands refuse it on the singular_dimension check, before
    # any group is built
    path = tmp_path / "three_spheres.txt"
    path.write_text(
        "dim 2\nvertex p stratum 0\nvertex q stratum 0\n"
        + "".join(f"vertex {v} stratum 2\n" for v in "abcdef")
        + "".join(f"facet p q {a}\nfacet p q {b}\nfacet p {a} {b}\n"
                  f"facet q {a} {b}\n" for a, b in ("ab", "cd", "ef")))
    patch_snf("kernel", lambda *a: pytest.fail("a group was built"))
    for what in ("zero-top", "factorization"):
        code, out, err = run_cli(capsys, "verify", what, "--input", str(path))
        assert code == 2, what
        assert out == ""
        assert err == ("error: input fails the singular_dimension check, "
                       "witness ('p', 'q')\n")


def test_verify_zero_top_refuses_non_normal_input(tmp_path, capsys, wedge_text):
    # the zero-top equivalence does not apply to a non-normal space, but
    # the factorization does
    path = tmp_path / "wedge.txt"
    path.write_text(wedge_text)
    for ring in ("Z", "Q"):
        code, out, err = run_cli(capsys, "verify", "zero-top", "--input",
                                 str(path), "--coeffs", ring)
        assert code == 2, ring
        assert out == ""
        assert err == "error: input fails the normality check, witness ('p',)\n"
        code, out, _ = run_cli(capsys, "verify", "factorization", "--input",
                               str(path), "--coeffs", ring)
        assert code == 0, ring
        assert out.endswith("\nPASS\n")


def test_verify_refuses_a_non_orientable_input(tmp_path, capsys):
    # RP^2 has no top cycle over Z or Z/3, so both drivers refuse it and
    # name its first top simplex; over Z/2 it has a fundamental class
    from ihomology.spaces import projective_space
    rp2 = projective_space(3, subdivisions=2)
    names = rp2.vertex_names
    path = tmp_path / "rp2.txt"
    path.write_text(
        "dim 2\n"
        + "".join(f"vertex {v} stratum 2\n" for v in names)
        + "".join("facet " + " ".join(names[v] for v in f) + "\n"
                  for f in rp2.facets))
    first = ("('b{b{+e1}}', 'b{b{+e1},b{+e1,+e2}}', "
             "'b{b{+e1},b{+e1,+e2},b{+e1,+e2,+e3}}')")
    for ring, name in (("Z", "Z"), ("Zmod:3", "Z/3")):
        for what in ("zero-top", "factorization"):
            code, out, err = run_cli(capsys, "verify", what, "--input",
                                     str(path), "--coeffs", ring)
            assert code == 2, (what, ring)
            assert out == ""
            assert err == (f"error: not orientable over {name}: top simplex "
                           f"{first} has no unit coefficient in any top "
                           "cycle\n")
    code, out, _ = run_cli(capsys, "verify", "factorization", "--input",
                           str(path), "--coeffs", "Zmod:2")
    assert code == 0
    assert out == (
        "square commutes on 3 generators\n"
        + "".join(f"{p}: duality isomorphism in every degree; capped "
                  "generators inside the perverse complex\n"
                  for p in ("zero", "clip:1", "top"))
        + "PASS\n")


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(space, ring):
        raise AssertionError("differential left the perverse subcomplex")

    monkeypatch.setattr("ihomology.cap.check_zero_top", broken)
    code, out, err = run_cli(capsys, "verify", "zero-top", "--builtin", "s2")
    assert code == 3
    assert out == ""
    assert err == "internal error: differential left the perverse subcomplex\n"


@pytest.mark.parametrize("caps, what", [("_classical_caps", "zero-top"),
                                         ("_blown_caps", "factorization")],
                         ids=["classical", "blown-up"])
def test_broken_duality_chain_map_exits_three(monkeypatch, capsys, tmp_path,
                                              caps, what):
    # the input is valid, so a cap that fails its chain-map check is a
    # broken invariant, not bad input.  A file loads a fresh space on
    # every run, so the passing run before it caches nothing, maps or
    # passed checks, that the broken run could reuse
    path = tmp_path / "s2.txt"
    path.write_text("dim 2\n" + "".join(f"vertex {v} stratum 2\n"
                                         for v in "abcd")
                    + "facet a b c\nfacet a b d\nfacet a c d\nfacet b c d\n")
    assert run_cli(capsys, "verify", what, "--input", str(path))[0] == 0
    real = getattr(cap, caps)

    def broken(space, ring):
        mats = dict(real(space, ring))
        mats[1] = mats[1].scale(ring.el(2))
        return mats

    monkeypatch.setattr(cap, caps, broken)
    code, out, err = run_cli(capsys, "verify", what, "--input", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and "chain map" in err


def test_degree_outside_the_dimension_rejected(capsys):
    for degree, bad in (("5", "5"), ("-1", "-1"), ("2..5", "5"),
                        ("0..1000000000000", "1000000000000")):
        code, out, err = run_cli(capsys, "homology", "--builtin", "s4",
                                 "--degree", degree)
        assert code == 2
        assert out == ""
        assert err == f"error: degree {bad} is outside 0..4\n"


def test_unknown_builtin_is_rejected(capsys):
    code, _, err = run_cli(capsys, "ih", "--builtin", "nosuch")
    assert code == 2
    assert "unknown builtin" in err


def test_oversized_builtin_is_refused_before_building(monkeypatch, capsys):
    def never(n):
        raise AssertionError("the oversized sphere was built")

    monkeypatch.setattr("ihomology.spaces.simplex_sphere", never)
    code, out, err = run_cli(capsys, "homology", "--builtin", "s40")
    assert code == 2
    assert out == ""
    assert err == ("error: builtin 's40' would have 4398046511102 simplices, "
                   "over the cap of 200000\n")
    code, _, err = run_cli(capsys, "ih", "--builtin", "susp:cone:s40")
    assert code == 2
    assert f"would have {3 * (2 * (2 ** 42 - 2) + 1) + 2} simplices" in err


def test_missing_source_is_rejected(capsys):
    code, _, err = run_cli(capsys, "homology", "--coeffs", "Z")
    assert code == 2
    assert "no space given" in err


def test_builtin_and_input_together_rejected(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("dim 1\nvertex a stratum 1\nfacet a\n")
    code, _, err = run_cli(capsys, "homology", "--builtin", "s4",
                           "--input", str(path))
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("text, message", [
    ("dim 2\nvertex a stratum 5\nvertex b stratum 2\nfacet a b\n",
     "line 2: stratum 5 outside 0..2"),
    ("dim 2\nvertex b stratum 2\nvertex a stratum 5\n",
     "line 3: stratum 5 outside 0..2"),
    ("dim -1\nvertex a stratum 2\nfacet a\n",
     "line 1: dimension -1 is negative"),
    ("dim 2\nvertex a stratum 2\nvertex b stratum 2\nvertex c stratum 2\n"
     "facet a a c\n", "line 5: facet repeats vertex 'a'"),
    ("dim 1\nvertex a stratum 1\nvertex b stratum 1\nfacet a b\ndim 5\n",
     "line 5: second 'dim' line (first on line 1)"),
    ("dim 1\nvertex a stratum 1\nvertex b stratum 1\nfacet\nfacet a b\n",
     "line 4: facet has no vertex"),
], ids=["stratum", "stratum-last", "dim", "facet", "second-dim", "empty-facet"])
def test_bad_input_lines_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "homology", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_coefficients_rejected(capsys):
    code, _, err = run_cli(capsys, "homology", "--builtin", "s4",
                           "--coeffs", "GF(9)")
    assert code == 2
    assert "unknown coefficient ring" in err


def test_composite_coefficients_rejected_for_verify(capsys):
    code, _, err = run_cli(capsys, "verify", "factorization",
                           "--builtin", "s4", "--coeffs", "Zmod:6")
    assert code == 2
    assert "integer or field" in err


def test_bad_degree_rejected(capsys):
    code, _, err = run_cli(capsys, "homology", "--builtin", "s4",
                           "--degree", "two")
    assert code == 2
    assert "bad degree" in err


def test_empty_degree_range_rejected(capsys):
    code, _, err = run_cli(capsys, "homology", "--builtin", "s4",
                           "--degree", "4..1")
    assert code == 2
    assert "empty degree range" in err


def test_bad_perversity_rejected(capsys):
    code, _, err = run_cli(capsys, "ih", "--builtin", "s4",
                           "--perversity", "middle")
    assert code == 2


# The benchmark's workloads on their unrelabelled base complexes; a
# relabelling is an isomorphism, so perfbench/expected.json holds the
# exit status and stdout sha256 of these runs too.
BENCHMARK_WORKLOADS = {
    "factorization-Z": ["verify", "factorization", "--builtin", "rp3"],
    "zero-top-Q": ["verify", "zero-top", "--builtin", "rp3", "--coeffs", "Q"],
    "homology-sigma-Z": ["homology", "--builtin", "sigma-rp3"],
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_workload_output(workload, capsys):
    expected_file = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    want = json.loads(expected_file.read_text())[workload]
    code, out, _ = run_cli(capsys, *BENCHMARK_WORKLOADS[workload])
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


# Commands over Q and the sha256 of their stdout: how the rational
# field represents its elements must not change a byte of what they print.
RATIONAL_OUTPUTS = {
    ("ih", "--builtin", "sigma-rp3", "--perversity", "clip:1", "--coeffs", "Q"):
        "6c8d68f450584eb08cc567b41b4a4f9ea10508679b9d7a802b39f81f386ee67d",
    ("tw", "--builtin", "sigma-rp3", "--perversity", "zero", "--coeffs", "Q"):
        "6c8d68f450584eb08cc567b41b4a4f9ea10508679b9d7a802b39f81f386ee67d",
    ("gm", "--builtin", "rp3", "--perversity", "top", "--coeffs", "Q"):
        "06097ca91e0329f81599cc1ceab65ecb8eecd24368fd97e8f9f6114aed59d615",
    ("table", "--builtin", "sigma-rp3", "--coeffs", "Q"):
        "b11b5520e3d7bcb483ebe7976f608a408ec4eb81fce302d24ac208e5277d0df6",
}


@pytest.mark.parametrize("argv", sorted(RATIONAL_OUTPUTS), ids=" ".join)
def test_rational_output(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATIONAL_OUTPUTS[argv]


def test_unknown_subcommand_exits_two(capsys):
    assert main(["bogus"]) == 2


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "homology", "--input",
                           str(tmp_path / "absent.txt"))
    assert code == 2


# The wrapper an installer writes for a console_scripts entry point
# (distlib's SCRIPT_TEMPLATE, as used by pip).
CONSOLE_SCRIPT = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def install_console_script(name, bindir):
    """Write the console script that ``pyproject.toml`` declares as
    ``name`` into ``bindir``, the way an installer does, and return its
    path. Fails if the entry is missing or its callable does not load."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert name in scripts
    entry = importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts")
    assert callable(entry.load())
    exe = bindir / name
    exe.write_text(CONSOLE_SCRIPT.format(
        python=sys.executable, module=entry.module, attr=entry.attr))
    exe.chmod(0o755)
    return exe


def test_console_script_installed(tmp_path):
    exe = install_console_script("ihomology", tmp_path)
    # run against the package this suite imports, not an installed copy
    env = dict(os.environ)
    pkg_root = str(Path(ihomology.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    r = subprocess.run([str(exe), "homology", "--builtin", "s4",
                        "--degree", "4"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert r.stdout == "Z\n"
    # main's exit status must reach the shell through sys.exit
    r = subprocess.run([str(exe), "homology", "--input",
                        str(tmp_path / "missing.txt")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
