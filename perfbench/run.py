"""End-to-end benchmark of the ihomology CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from
./src.  Each job is one fresh `python3 -m ihomology.cli` process on an
input relabelled from a committed base complex (inputs.py), so every
cache in the package starts cold, as on a user's invocation.  The loop
is closed, with one client: jobs run one after another, and a new job
starts only while it is expected to end within --seconds.  Job j of a
run gets its own relabelling, fixed by --seed and j (job_seeds), so the
run's medians average over relabellings as well as over the machine's
noise; job 0 uses --seed itself.

Every job is checked against expected.json: its exit status and the
sha256 of its stdout.  Relabelling is an isomorphism of filtered
complexes, so the expected output is the same on every seed.

With --trace 0 the last stdout line reports the end-to-end metrics
(medians over the run's jobs).  Job times are reported as ratios to the
time of reference.py, a fixed job that does not use the package, run
between each two CLI jobs.  On a shared machine the CPU's speed can
drift by a quarter within minutes; the ratio cancels most of that drift,
and no change to the package changes the reference.  The raw medians go
to stderr.  With --trace 1 the run makes one untraced job and one job
under tracer.py and reports the per-layer metrics from the traced job's
spans, plus the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import make_input  # noqa: E402
from tracer import aggregate  # noqa: E402

WORKLOADS = {
    "factorization-Z": ("rp3", ["verify", "factorization", "--coeffs", "Z"]),
    "zero-top-Q": ("rp3", ["verify", "zero-top", "--coeffs", "Q"]),
    "homology-sigma-Z": ("sigma-rp3", ["homology", "--coeffs", "Z"]),
}

# Per-layer metrics reported by a traced run: span name -> stats.
LAYER_STATS = {
    "snf.SNFResult.solve": ("calls", "incl_s"),
    "snf.solve_matrix": ("calls", "incl_s"),
    "snf.smith_normal_form": ("calls", "self_s", "in_nnz", "out_nnz", "max_bits"),
    "snf.hermite_column_form": ("calls", "self_s"),
    "snf.hermite_solve_vector": ("calls", "self_s"),
    "snf.hermite_solve": ("incl_s",),
    "snf.integer_kernel": ("incl_s",),
    "matrices.Matrix.__matmul__": ("calls", "self_s"),
    "complexes.homology_of": ("calls", "incl_s"),
    "complexes.PresentedComplex.homology": ("calls",),
    "complexes.HomologyGroup.coords": ("calls", "incl_s"),
    "complexes.InducedMap.is_isomorphism": ("incl_s",),
    "complexes.ChainMap.verify": ("incl_s",),
    "intersection.perverse_complex": ("calls", "incl_s"),
    "intersection.comparison_map": ("calls", "incl_s"),
    "intersection.allowable_indices": ("self_s",),
    "blowup.blowup_complex": ("incl_s",),
    "blowup.tw_complex": ("calls", "incl_s"),
    "cap.classical_duality": ("incl_s",),
    "cap.duality_map": ("incl_s",),
    "cap.verify_factorization": ("self_s",),
    "cap.check_zero_top": ("self_s",),
    "filtered.load_complex": ("incl_s",),
    "filtered.FilteredComplex.boundary_matrix": ("calls", "self_s"),
    "filtered.FilteredComplex.fundamental_class": ("incl_s",),
    "cli.main": ("incl_s",),
}
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s",
         "in_nnz": "count", "out_nnz": "count", "max_bits": "bits"}

REFERENCE = HERE / "reference.py"
# reference.py prints nothing and exits 0 when its result is right.
REFERENCE_EXPECTED = {"exit": 0, "sha256": hashlib.sha256(b"").hexdigest()}
# The fewest set-up probes a run makes.
SETUP_PROBES = 11
# Everything a run does must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ihomology.cli
from ihomology.filtered import load_complex
load_complex(sys.argv[1])
print(time.perf_counter() - t0)
"""


class Job:
    """One finished child process: its wall and CPU time, peak RSS, verdict."""

    def __init__(self, wall_s, cpu_s, peak_rss_mb, ok, why):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.ok = ok
        self.why = why


def run_job(cmd, env, work, expected, limit_s):
    """Run cmd to completion (killed after limit_s) and check its output."""
    out_path, err_path = work / "job.out", work / "job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    digest = hashlib.sha256(stdout).hexdigest()
    if proc.returncode != expected["exit"]:
        why = f"exit {proc.returncode}, expected {expected['exit']}"
    elif b"Traceback (most recent call last)" in stderr:
        why = "exception on stderr"
    elif digest != expected["sha256"]:
        why = f"stdout sha256 {digest}, expected {expected['sha256']}"
    else:
        why = None
    if why:
        print(f"job failed: {why}\n{stderr.decode(errors='replace')[-2000:]}",
              file=sys.stderr)
    return Job(wall_s, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, why is None, why)


def setup_seconds(env, input_path):
    """Import plus load_complex of the input, timed inside a fresh process."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(input_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


def reference_job(env, work, limit_s):
    """Run reference.py once; a failure stops the run."""
    job = run_job([sys.executable, str(REFERENCE)], env, work,
                  REFERENCE_EXPECTED, limit_s)
    if not job.ok:
        raise RuntimeError(f"reference job failed: {job.why}")
    return job


def job_seeds(seed):
    """Relabelling seeds of a run's jobs: seed itself, then ones drawn from it."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**32)


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(spans, untraced):
    """Per-layer metrics from the spans of a traced job.

    trace.overhead_s is the traced root span minus the wall time of the
    untraced job of the same run.
    """
    agg = aggregate(spans)
    metrics = {}
    for name, stats in LAYER_STATS.items():
        a = agg.get(name, {})
        for stat in stats:
            metrics[f"{name}.{stat}"] = metric(a.get(stat, 0), UNITS[stat])
    root = agg.get("cli.main", {}).get("incl_s", 0.0)
    metrics["trace.overhead_s"] = metric(root - untraced.wall_s, "s")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # A terminated run unwinds through run_job, which ends its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "ihomology" / "cli.py").is_file():
        print(f"error: no ihomology package under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    base, cli_args = WORKLOADS[args.workload]

    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    seeds = job_seeds(args.seed)
    input_path = work / f"{args.workload}.txt"

    def next_input():
        """Write the next job's relabelled input; return its CLI arguments."""
        input_path.write_text(make_input(base, next(seeds)), encoding="utf-8")
        return [*cli_args, "--input", str(input_path)]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    cli_cmd = [sys.executable, "-m", "ihomology.cli"]

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    job_args = next_input()
    # Untimed: compiles the package's bytecode on a fresh checkout.
    setup_seconds(env, input_path)

    if args.trace:
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        untraced = run_job([*cli_cmd, *job_args], env, work, expected,
                           remaining())
        traced = run_job([sys.executable, str(HERE / "tracer.py"),
                          str(spans_path), "--", *job_args],
                         env, work, expected, remaining())
        jobs = [untraced, traced]
        spans = json.loads(spans_path.read_text()) if traced.ok else []
        metrics = layer_metrics(spans, untraced)
    else:
        # A set-up probe goes before each job, so that the probes sample
        # the machine over the whole run, as the jobs do.  Each job is
        # compared with the mean of the reference jobs on either side.
        setups, jobs = [], []
        t_start = time.perf_counter()
        refs = [reference_job(env, work, remaining())]
        rounds = []
        while True:
            t_round = time.perf_counter()
            setups.append(setup_seconds(env, input_path))
            jobs.append(run_job([*cli_cmd, *job_args], env, work, expected,
                                remaining()))
            refs.append(reference_job(env, work, remaining()))
            rounds.append(time.perf_counter() - t_round)
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(rounds) > min(args.seconds,
                                                         remaining()):
                break
            job_args = next_input()
        while len(setups) < SETUP_PROBES:
            setups.append(setup_seconds(env, input_path))
        pairs = list(zip(jobs, refs, refs[1:]))
        metrics = {
            "wall_rel": metric(statistics.median(
                2 * j.wall_s / (a.wall_s + b.wall_s) for j, a, b in pairs),
                "ratio"),
            "cpu_rel": metric(statistics.median(
                2 * j.cpu_s / (a.cpu_s + b.cpu_s) for j, a, b in pairs),
                "ratio"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                statistics.median(j.peak_rss_mb for j in jobs), "MB"),
        }
        print("raw medians: " + ", ".join(
            f"{who} {name} {statistics.median(getattr(j, name) for j in js):.4f}"
            for who, js in (("job", jobs), ("reference", refs))
            for name in ("wall_s", "cpu_s")), file=sys.stderr)

    failed = sum(not j.ok for j in jobs)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
