"""Self-tests of the benchmark: tracer, input generator, and stdout oracle.

    python3 -m pytest -q perfbench

They exercise only small spaces, so they take seconds.
"""

import hashlib
import io
import itertools
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ihomology import cli  # noqa: E402
from ihomology.filtered import builtin, parse_complex  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def cli_stdout(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def complex_parts(K):
    return (K.n, K.vertex_names, K.strata,
            [tuple(K.vertex_names[i] for i in f) for f in K.facets])


# --- tracer ---


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "ihomology" or name.startswith("ihomology."))]


def test_tracer_wraps_every_import_site():
    originals = {}
    for target in tracer.TARGETS:
        modname, qualname = target.split(":")
        if "." not in qualname:
            originals[target] = getattr(sys.modules[f"ihomology.{modname}"], qualname)
    sites = [(m.__name__, key) for m in _package_modules()
             for key, v in vars(m).items()
             if v is originals["snf:smith_normal_form"]]
    assert len(sites) > 1, "smith_normal_form should be imported by name elsewhere"

    t = tracer.Tracer().install()
    try:
        for target, original in originals.items():
            for m in _package_modules():
                for key, value in vars(m).items():
                    assert value is not original, f"{m.__name__}.{key} left unwrapped"
        for modname, key in sites:
            assert getattr(sys.modules[modname], key).__wrapped__ \
                is originals["snf:smith_normal_form"]
        from ihomology.matrices import Matrix
        assert Matrix.__matmul__.__wrapped__ is not None
    finally:
        t.uninstall()
    for modname, key in sites:
        assert getattr(sys.modules[modname], key) is originals["snf:smith_normal_form"]


def test_tracer_spans_give_self_and_inclusive_times():
    t = tracer.Tracer().install()
    try:
        code, _ = cli_stdout("homology", "--builtin", "rp3")
    finally:
        t.uninstall()
    assert code == 0
    agg = tracer.aggregate(t.spans)
    root = agg["cli.main"]
    assert root["calls"] == 1
    snf = agg["snf.smith_normal_form"]
    assert snf["calls"] > 0 and snf["in_nnz"] > 0 and snf["max_bits"] >= 1
    assert 0 <= snf["self_s"] <= snf["incl_s"] + 1e-9
    total_self = sum(a["self_s"] for a in agg.values())
    assert total_self == pytest.approx(root["incl_s"], rel=0.05)
    assert all(a["self_s"] >= -1e-6 for a in agg.values())


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    job = run.Job(1.0, 1.0, 1.0, True, None)
    produced = set(run.layer_metrics([], job))
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_rel", "cpu_rel", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    names = {tracer.span_name(t) for t in tracer.TARGETS}
    assert set(run.LAYER_STATS) <= names


# --- input generator ---


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelling_keeps_f_vector_and_stdout(tmp_path, seed):
    K = builtin("rp3")
    text = inputs.render(*inputs.relabel(*complex_parts(K), seed))
    L = parse_complex(text)
    assert L.f_vector() == K.f_vector()
    assert L.strata == sorted(L.strata)
    if seed == 0:
        assert L.vertex_names == K.vertex_names
    else:
        assert L.vertex_names != K.vertex_names
        assert sorted(L.vertex_names) == sorted(K.vertex_names)
    f = tmp_path / "rp3.txt"
    f.write_text(text)
    assert cli_stdout("homology", "--input", str(f)) == \
        cli_stdout("homology", "--builtin", "rp3")


@pytest.mark.parametrize("base,name", [("rp3", "rp3"),
                                       ("sigma-rp3", "sigma-rp3")])
def test_seed_zero_reproduces_the_builtin(base, name):
    L = parse_complex(inputs.make_input(base, 0))
    K = builtin(name)
    assert complex_parts(L) == complex_parts(K)


def test_same_seed_same_input():
    assert inputs.make_input("sigma-rp3", 7) == inputs.make_input("sigma-rp3", 7)
    assert inputs.make_input("sigma-rp3", 7) != inputs.make_input("sigma-rp3", 8)


def test_job_seeds_start_at_the_run_seed_and_repeat():
    first = list(itertools.islice(run.job_seeds(7), 20))
    assert first[0] == 7
    assert first == list(itertools.islice(run.job_seeds(7), 20))
    assert len(set(first)) == 20 and 0 not in first[1:]
    assert first != list(itertools.islice(run.job_seeds(8), 20))


# --- oracle ---


def _expected(text, code=0):
    return {"exit": code,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize("script,expected,why", [
    ("print('PASS')", _expected("PASS\n"), None),
    ("print('FAIL')", _expected("PASS\n"), "stdout sha256"),
    ("import sys; print('PASS'); sys.exit(1)", _expected("PASS\n"), "exit 1"),
    ("print('PASS'); raise RuntimeError('boom')", _expected("PASS\n", 1),
     "exception"),
])
def test_oracle_flags_wrong_stdout_exit_or_exception(tmp_path, script, expected, why):
    job = run.run_job([sys.executable, "-c", script], None, tmp_path,
                      expected, 30)
    assert job.ok is (why is None)
    assert why is None or why in job.why
    assert job.wall_s > 0 and job.cpu_s >= 0 and job.peak_rss_mb > 0


def test_reference_job_runs_without_the_package(tmp_path):
    job = run.reference_job({"PATH": os.environ.get("PATH", "")}, tmp_path, 60)
    assert job.ok and job.wall_s > 0 and job.cpu_s > 0
