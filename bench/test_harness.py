"""Tests of the benchmark's own helpers: statistics, span self times, output checks."""

import importlib

import numpy as np
import pytest

import harness
import reference as ref
import run
import tracer
import workloads


# ----------------------------------------------------------------------
# percentiles and sample counts
# ----------------------------------------------------------------------

def test_no_tail_percentile_below_twenty_samples():
    assert harness.tail_percentile(range(19)) is None


@pytest.mark.parametrize(
    "n, q, rank",
    [(20, 50, 10), (39, 50, 20), (40, 75, 30), (100, 90, 90), (199, 90, 180), (200, 95, 190),
     (1000, 99, 990), (10_000, 99.9, 9990)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q, rank):
    values = list(range(n, 0, -1))
    assert harness.tail_percentile(values) == (q, rank)
    assert sum(v > rank for v in values) >= harness.TAIL_SAMPLES


def test_median_of_even_count_is_midpoint():
    assert harness.median([4.0, 1.0, 3.0, 2.0]) == 2.5


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["io.read_matrix", 1.0, 4.0, 0, None],
        ["fock.full_distribution", 5.0, 9.0, 0, None],
        ["permanent.permanent_ryser", 6.0, 8.0, 2, 6],
    ]
    assert harness.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert harness.layers_seen(spans) == {"cli", "io", "fock", "permanent"}


def test_reconstruction_metrics_from_nested_spans():
    # One fit with two restarts; the first restart is 1 step + 2 Jacobian
    # evaluations, the second 1 step and a cost far above the best.
    spans = [
        ["reconstruction.fit", 0.0, 10.0, -1, None],
        ["reconstruction.least_squares", 0.0, 4.0, 0, (1, 1.0)],
        ["reconstruction._residuals", 0.0, 1.0, 1, None],
        ["reconstruction._residuals", 1.0, 2.0, 1, None],
        ["reconstruction._residuals", 2.0, 3.0, 1, None],
        ["reconstruction.least_squares", 4.0, 6.0, 0, (1, 5.0)],
        ["reconstruction._residuals", 4.0, 5.0, 5, None],
        ["reconstruction._residuals", 8.0, 9.0, 0, None],
    ]
    m = harness.job_layer_metrics(spans)
    assert m["reconstruction.restarts"] == 2
    assert m["reconstruction.nfev"] == 2
    assert m["reconstruction.residual_evals"] == 5
    assert m["reconstruction.jac_eval_frac"] == pytest.approx(0.5)
    assert m["reconstruction.useful_restart_frac"] == 0.5
    assert m["reconstruction.lsq_self_s"] == pytest.approx(1.0 + 1.0)


def test_permanent_ops_are_computed_from_matrix_size():
    spans = [["permanent.permanent_ryser", 0.0, 2.0, -1, 3],
             ["permanent.permanent_ryser", 2.0, 4.0, -1, 4]]
    m = harness.job_layer_metrics(spans)
    assert m["permanent.calls"] == 2
    assert m["permanent.ops"] == 2**3 * 6 + 2**4 * 8
    assert m["permanent.us_per_call"] == pytest.approx(2e6)


def test_declared_layer_without_spans_is_an_error(tmp_path):
    job = workloads.Job(["permanent", "x"], tmp_path / "x", lambda out: None)
    traced = run.Result(job, 1.0, 1.0, 1.0, 0, True, None,
                        {"import_s": 0.1, "spans": [["cli.main", 0.0, 1.0, -1, None]]})
    plain = run.Result(job, 1.0, 1.0, 1.0, 0, False)
    with pytest.raises(harness.TraceError, match="io"):
        run.per_layer(workloads.WORKLOADS["permanent"], [plain, traced], tmp_path)


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    # The missing name comes last, after every other layer has been looked up.
    monkeypatch.setitem(tracer.WRAPPED, "reconstruction",
                        tracer.WRAPPED["reconstruction"] + [("bosonsim.fock", "no_such_kernel")])
    targets = [(m, a) for names in tracer.WRAPPED.values() for m, a in names if a != "no_such_kernel"]
    before = [getattr(importlib.import_module(m), a, None) for m, a in targets]
    with pytest.raises(LookupError, match="bosonsim.fock.no_such_kernel"):
        tracer.Recorder().install()
    after = [getattr(importlib.import_module(m), a, None) for m, a in targets]
    assert all(x is y for x, y in zip(before, after))


# ----------------------------------------------------------------------
# output checks and error_frac
# ----------------------------------------------------------------------

def test_error_frac_counts_failed_checks():
    assert harness.error_frac([None, None, "bad", None]) == 0.25
    with pytest.raises(ValueError):
        harness.error_frac([])


def _format_permanent(z):
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15g} {sign} {abs(z.imag):.15g}i\n".encode()


def test_corrupted_permanent_output_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Permanent, "n", 6)
    job = workloads.Permanent().make_chunk(np.random.default_rng(1), 1, tmp_path, "t")[0]
    a = np.array([[complex(t.replace("i", "j")) for t in line.split()]
                  for line in job.input_path.read_text().splitlines()])
    good = _format_permanent(ref.glynn_permanents(a[None])[0])
    corrupted = good.replace(b" + ", b" - ") if b" + " in good else good.replace(b" - ", b" + ")
    outcomes = [job.check(good), job.check(corrupted), job.check(b"")]
    assert outcomes[0] is None
    assert harness.error_frac(outcomes) == pytest.approx(2 / 3)


def test_corrupted_scan_output_is_a_failure(tmp_path):
    wl = workloads.HomScan()
    job = wl.make_chunk(np.random.default_rng(2), 1, tmp_path, "t")[0]
    delays, rates, _ = job.check.args
    good = "delay,rate\n" + "".join(f"{d:.17g},{r:.17g}\n" for d, r in zip(delays, rates))
    bad = good.replace(f"{rates[3]:.17g}", f"{rates[3] * (1 + 1e-6):.17g}")
    assert job.check(good.encode()) is None
    assert "differs" in job.check(bad.encode())


def test_truncated_sample_output_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.Sampling, "modes", 4)
    monkeypatch.setattr(workloads.Sampling, "photons", 2)
    monkeypatch.setattr(workloads.Sampling, "count", 2000)
    wl = workloads.Sampling()
    job = wl.make_chunk(np.random.default_rng(3), 1, tmp_path, "t")[0]
    index, p, _ = job.check.args
    states = sorted(index, key=index.get)
    draws = np.random.default_rng(4).choice(len(p), size=wl.count, p=p / p.sum())
    good = b"".join(states[i] + b"\n" for i in draws)
    assert job.check(good) is None
    assert "sample lines" in job.check(good[: good.rindex(b"\n", 0, -1) + 1])
    wrong = b"".join(states[0] + b"\n" for _ in draws)
    assert "TV distance" in job.check(wrong)


def test_corrupted_fit_output_is_a_failure(tmp_path):
    wl = workloads.Reconstruct()
    job = wl.make_chunk(np.random.default_rng(5), 1, tmp_path, "t")[0]
    rng = np.random.default_rng(5)  # the true circuit is the chunk's first draw
    etas, phis = rng.uniform(0.2, 0.8, ref.ETA_COUNT), rng.uniform(0.0, 2 * np.pi, ref.PHI_COUNT)
    good = "[parameters]\n" + "".join(f"eta {k} {e:.17g}\n" for k, e in enumerate(etas, 1)) + "".join(
        f"phi {k} {p:.17g}\n" for k, p in enumerate(phis, 1)) + "[fit]\nresidual 1\n"
    assert job.check(good.encode()) is None
    bad_params = "[parameters]\n" + "".join(f"eta {k} 0.5\n" for k in range(1, 9)) + "".join(
        f"phi {k} 0\n" for k in range(1, 12))
    assert "TV distance" in job.check(bad_params.encode())
    assert "missing" in job.check(b"[parameters]\neta 1 0.5\n")
