"""Each benchmark workload's command, run tiny under the benchmark tracer, records
a span in every layer the workload declares.

The tracer wraps functions under the names their callers look them up by,
so a rename or a re-routed call that the benchmark would only notice at
``bench/run.py --trace 1`` fails here first. Each workload's layer sweep, which
calls library functions and the fit's private helpers by name, runs here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bosonsim import io, random_circuit, random_unitary, simulate_dataset
from bosonsim.reconstruction import CircuitParameters

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _matrix(tmp_path: Path, m: int) -> str:
    path = tmp_path / "net.matrix"
    io.write_matrix(path, random_unitary(m, 3))
    return str(path)


def _dataset(tmp_path: Path) -> str:
    circuit = random_circuit(2)
    params = CircuitParameters(
        tuple(c.eta for c in circuit.couplers()), tuple(p.phi for p in circuit.phases())
    )
    path = tmp_path / "data.txt"
    io.write_dataset(path, simulate_dataset(params, 2000, seed=1))
    return str(path)


# One tiny job per workload, running the same subcommand as the workload's jobs.
TINY_JOBS = {
    "sampling": lambda tmp: ["sample", _matrix(tmp, 4), "--input", "1,1,0,0",
                             "--count", "20", "--seed", "1"],
    "permanent": lambda tmp: ["permanent", _matrix(tmp, 4)],
    "hom_scan": lambda tmp: ["hom-scan", _matrix(tmp, 4), "--in-modes", "1,2",
                             "--out-modes", "3,4", "--delay-grid=-100:100:5"],
    "reconstruct": lambda tmp: ["reconstruct", _dataset(tmp), "--restarts", "1"],
}


def test_every_workload_has_a_tiny_job():
    assert set(TINY_JOBS) == set(WORKLOADS)


def _run_tracer(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_job_covers_declared_layers(tmp_path, name):
    argv = TINY_JOBS[name](tmp_path)
    spans_path = tmp_path / "job.spans"
    proc = _run_tracer(tmp_path, "--spans", str(spans_path), "--", *argv)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    missing = set(WORKLOADS[name].layers) - harness.layers_seen(spans)
    assert not missing, f"{name}: no spans in layers {sorted(missing)}"


# The layers each workload's sweep times, one row per case of the ROADMAP table.
SWEEP_LAYERS = {
    "sampling": ["transition_probability"] + ["full_distribution"] * 3,
    "permanent": ["permanent_ryser"] * 4,
    "hom_scan": ["coincidence_rate"] * 3,
    "reconstruct": ["compile_circuit", "fit residual eval", "fit"],
}


@pytest.mark.parametrize("workload", sorted(SWEEP_LAYERS))
def test_sweep_runs(tmp_path, workload):
    # the sweeps call library functions, and the fit's private helpers, by name
    proc = _run_tracer(tmp_path, "--sweep", workload, "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert [row["layer"] for row in rows] == SWEEP_LAYERS[workload]
    assert all(row["seconds"] > 0 and row["calls"] >= 1 for row in rows)
