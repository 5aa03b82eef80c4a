"""bosonsim benchmark: closed-loop CLI jobs, end-to-end metrics, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client runs one job at a time: each
job is ``python -m bosonsim.cli ...`` with ``PYTHONPATH=src`` on a fresh
input generated from the seed, and the next job starts when the previous
one has exited. Every job's output is checked against reference values
computed by the benchmark's own code (``reference.py``).

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced jobs with jobs run under ``tracer.py``, derives the per-layer
metrics from the recorded spans, reports the tracing overhead, and prints
the layer sweep of the ROADMAP baseline table for the workload's layers.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. Everything else, including the environment block, comes
before it. Work files live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import harness
from workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Jobs generated per set-up chunk; more are generated, with the clock
# stopped, only if a run outlasts this pool.
JOBS_PER_SETUP = 6
INTERP_REPEATS = 5
# A job or sweep running this long is killed and counts as failed; jobs
# take a few seconds, and the whole run must end within three minutes.
CHILD_TIMEOUT_S = 25.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Result:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    traced: bool
    failure: str | None = None
    spans: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], out_path: Path, err_path: Path) -> tuple[float, int, object]:
    """Run one child to exit, killing it after CHILD_TIMEOUT_S; returns wall seconds,
    exit code and its rusage."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_job(job: Job, workdir: Path, tag: str, traced: bool) -> Result:
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    if traced:
        spans_path = workdir / f"{tag}.spans"
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path), "--", *job.argv]
    else:
        argv = [sys.executable, "-m", "bosonsim.cli", *job.argv]
    wall, code, usage = spawn(argv, out_path, err_path)
    out = out_path.read_bytes()
    result = Result(job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    len(out), traced)
    if traced:
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else {"error": (
            f"tracer wrote no spans: {err_path.read_text(errors='replace')[-500:]}")}
        if "error" in spans:
            raise harness.TraceError(spans["error"])
        result.spans = spans
    if code != 0:
        stderr = err_path.read_text(errors="replace").strip().splitlines()
        result.failure = f"exit code {code}: {stderr[-1] if stderr else ''}"
    else:
        result.failure = job.check(out)
    out_path.unlink()
    return result


class Pool:
    """Jobs generated from the seed, chunk by chunk, in a fixed order."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.jobs: list[Job] = []
        self.chunks = 0

    def add_chunk(self, count: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, self.chunks])
        jobs = self.workload.make_chunk(rng, count, self.workdir, f"c{self.chunks}")
        self.chunks += 1
        return jobs


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def env_block(load_start, inputs_sha256: str) -> dict:
    import scipy

    try:
        import numba  # noqa: F401
        numba_note = "present"
    except ImportError:
        numba_note = ("absent: the numpy fallback _ryser_chunked and the pure-Python "
                      "_rate_terms were measured")
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_note,
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "inputs_sha256": inputs_sha256,
    }


def timed_loop(pool: Pool, seconds: float, traced: bool) -> tuple[list[Result], float]:
    """Closed loop with one client until ``seconds`` of job time have passed.

    A traced run alternates untraced and traced jobs and runs at least one
    of each. Generating more inputs, when the set-up pool runs out, stops
    the clock. Returns the results and the seconds the clock ran.
    """
    results: list[Result] = []
    busy = 0.0
    while busy < seconds or (traced and len(results) < 2):
        if not pool.jobs:
            pool.jobs = pool.add_chunk(JOBS_PER_SETUP)
        job = pool.jobs.pop(0)
        start = time.perf_counter()
        results.append(run_job(job, pool.workdir, f"job{len(results)}",
                               traced and len(results) % 2 == 1))
        busy += time.perf_counter() - start
    return results, busy


def setup(pool: Pool) -> tuple[float, Result, str]:
    """Generate SETUP_REPEATS chunks of inputs and references, then run one warm-up job.

    Returns the set-up time (the median chunk time plus the warm-up job),
    the warm-up result and the sha256 of every input generated; jobs beyond
    this pool continue the same seeded stream. One warm-up job suffices to
    load the interpreter, the libraries and the compiled sources.
    """
    times = []
    digest = hashlib.sha256()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        jobs = pool.add_chunk(JOBS_PER_SETUP)
        times.append(time.perf_counter() - start)
        pool.jobs.extend(jobs)
        for job in jobs:
            digest.update(job.input_path.read_bytes())
    start = time.perf_counter()
    warmup = run_job(pool.jobs.pop(0), pool.workdir, "warmup", traced=False)
    return harness.median(times) + time.perf_counter() - start, warmup, digest.hexdigest()


def end_to_end(results: list[Result], busy_s: float, setup_s: float) -> dict:
    walls = [r.wall_s for r in results]
    ok = sum(r.failure is None for r in results)
    return {
        "job_s.p50": (harness.median(walls), "s"),
        "job_cpu_s.p50": (harness.median([r.cpu_s for r in results]), "s"),
        "jobs_per_s": (ok / busy_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
        "ok_frac": (1.0 - harness.error_frac(r.failure for r in results), "frac"),
    }


LAYER_UNITS = {
    "cli.interp_s": "s", "cli.import_s": "s", "cli.offcpu_s": "s",
    "io.read_s": "s", "io.write_s": "s", "io.bytes_out": "bytes",
    "fock.basis_states": "count", "fock.enumerate_s": "s",
    "fock.distribution_self_s": "s", "fock.sample_self_s": "s",
    "permanent.calls": "count", "permanent.self_s": "s", "permanent.us_per_call": "us",
    "permanent.ops": "computed_ops", "permanent.gops_per_s": "Gop/s",
    "unitary.check_calls": "count", "unitary.check_s": "s",
    "interference.rate_calls": "count", "interference.ms_per_rate": "ms",
    "interference.overlap_s": "s",
    "circuit.compile_calls": "count", "circuit.compile_s": "s",
    "reconstruction.restarts": "count", "reconstruction.nfev": "count",
    "reconstruction.residual_evals": "count", "reconstruction.s_per_residual": "s",
    "reconstruction.lsq_self_s": "s", "reconstruction.jac_eval_frac": "frac",
    "reconstruction.useful_restart_frac": "frac",
    "trace.job_s": "s", "trace.overhead_s": "s",
}


def per_layer(workload, results: list[Result], workdir: Path) -> dict:
    plain = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced]
    seen = set().union(*(harness.layers_seen(r.spans["spans"]) for r in traced))
    missing = [layer for layer in workload.layers if layer not in seen]
    if missing:
        raise harness.TraceError(
            f"workload {workload.name} declares layers {missing} but the trace recorded "
            "no span for them")
    per_job = [harness.job_layer_metrics(r.spans["spans"]) for r in traced]
    metrics = {name: harness.median([m[name] for m in per_job]) for name in per_job[0]}
    interp = []
    for _ in range(INTERP_REPEATS):
        wall, _, _ = spawn([sys.executable, "-c", "pass"], workdir / "interp.out",
                           workdir / "interp.err")
        interp.append(wall)
    metrics["cli.interp_s"] = harness.median(interp)
    metrics["cli.import_s"] = harness.median([r.spans["import_s"] for r in traced])
    metrics["cli.offcpu_s"] = harness.median([r.wall_s - r.cpu_s for r in plain])
    metrics["io.bytes_out"] = harness.median([r.out_bytes for r in results])
    metrics["trace.job_s"] = harness.median([r.wall_s for r in traced])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - harness.median([r.wall_s for r in plain])
    return {name: (metrics[name], unit) for name, unit in LAYER_UNITS.items()}


def layer_sweep(workload_name: str, seed: int, workdir: Path) -> list[dict]:
    out_path = workdir / "sweep.json"
    _, code, _ = spawn([sys.executable, str(BENCH / "tracer.py"), "--sweep", workload_name,
                        "--seed", str(seed)], out_path, workdir / "sweep.err")
    if code != 0:
        raise harness.TraceError(f"layer sweep failed: {(workdir / 'sweep.err').read_text()}")
    return json.loads(out_path.read_text())


def report(args, metrics: dict, results: list[Result], warmup: Result, env: dict,
           sweep_rows: list[dict]) -> None:
    print(f"bosonsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    walls = [r.wall_s for r in results if not r.traced]
    tail = harness.tail_percentile(walls)
    print(f"jobs: {len(results)} timed ({sum(r.traced for r in results)} traced), "
          f"1 warm-up; error_frac {harness.error_frac(r.failure for r in results):.4g}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_s.p50":
            note = f"  (n={len(walls)}"
            note += f"; p{tail[0]:g} = {tail[1]:.4f} s)" if tail else "; too few jobs for a tail percentile)"
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    if sweep_rows:
        print("layer sweep (median of repeated calls; ROADMAP baseline beside it):")
        for row in sweep_rows:
            print(f"  {row['layer']:24s} {row['case']:30s} {row['seconds'] * 1e3:12.4f} ms"
                  f"  x{row['calls']:<3d} roadmap {row['roadmap']}")
    for r in [warmup] + results:
        if r.failure is not None:
            print(f"FAILED {' '.join(r.job.argv)}: {r.failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bosonsim" / "cli.py").is_file():
        print(f"bench: no bosonsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        load_start = list(os.getloadavg())
        pool = Pool(workload, args.seed, workdir)
        setup_s, warmup, inputs_sha256 = setup(pool)
        results, busy_s = timed_loop(pool, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, results, workdir)
            sweep_rows = layer_sweep(args.workload, args.seed, workdir)
        else:
            metrics = end_to_end(results, busy_s, setup_s)
            sweep_rows = []
        report(args, metrics, results, warmup, env_block(load_start, inputs_sha256), sweep_rows)
    except harness.TraceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    failed = sum(r.failure is not None for r in results)
    print(json.dumps({
        "correct": failed == 0 and warmup.failure is None,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
