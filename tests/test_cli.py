import importlib
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosonsim import cli, fock, interference, io, random_circuit
from bosonsim.cli import main

BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


@pytest.fixture
def balanced_file(tmp_path):
    path = tmp_path / "balanced.matrix"
    io.write_matrix(path, BALANCED)
    return str(path)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "net.circuit"
    io.write_circuit(path, random_circuit(5))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# permanent
# ----------------------------------------------------------------------

def test_permanent_integer_matrix(tmp_path, capsys):
    path = tmp_path / "m.matrix"
    io.write_matrix(path, [[1, 2], [3, 4]])
    code, out, _ = run_cli(capsys, "permanent", str(path))
    assert code == 0
    assert out.strip() == "10 + 0i"


def test_permanent_identity_naive(tmp_path, capsys):
    path = tmp_path / "eye.matrix"
    io.write_matrix(path, np.eye(4))
    code, out, _ = run_cli(capsys, "permanent", str(path), "--method", "naive")
    assert code == 0
    assert out.strip() == "1 + 0i"


def test_permanent_balanced_coupler_suppressed(balanced_file, capsys):
    code, out, _ = run_cli(capsys, "permanent", balanced_file)
    assert code == 0
    re_part, _, im_part = out.strip().partition(" + ")
    assert abs(complex(float(re_part), float(im_part.rstrip("i")))) < 1e-12


def test_permanent_size_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "big.matrix"
    io.write_matrix(path, np.eye(10))
    code, _, err = run_cli(capsys, "permanent", str(path), "--method", "naive")
    assert code == 3
    assert "capped" in err


def test_permanent_parse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.matrix"
    path.write_text("1 2\n3 junk\n")
    code, _, err = run_cli(capsys, "permanent", str(path))
    assert code == 2
    assert ":2:" in err


# ----------------------------------------------------------------------
# distribution
# ----------------------------------------------------------------------

def parse_distribution(text):
    header = {}
    rows = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        elif line and not line.startswith("occupation"):
            occ, _, p = line.partition(",")
            rows[tuple(int(x) for x in occ.split())] = float(p)
    return header, rows


def test_distribution_collision_free_has_ten_rows(circuit_file, capsys):
    code, out, _ = run_cli(
        capsys, "distribution", circuit_file, "--input", "0,0,1,1,1", "--collision-free"
    )
    assert code == 0
    header, rows = parse_distribution(out)
    assert len(rows) == 10
    assert abs(sum(rows.values()) - 1.0) <= 1e-10
    assert 0.0 < float(header["normalization"]) < 1.0
    assert header["input"] == "0 0 1 1 1"


def test_distribution_identity_single_row(tmp_path, capsys):
    path = tmp_path / "eye.matrix"
    io.write_matrix(path, np.eye(3))
    code, out, _ = run_cli(capsys, "distribution", str(path), "--input", "1,0,1")
    assert code == 0
    _, rows = parse_distribution(out)
    assert rows == {(1, 0, 1): 1.0}


def test_distribution_probabilities_normalized(circuit_file, capsys):
    code, out, _ = run_cli(capsys, "distribution", circuit_file, "--input", "0,0,1,1,1")
    assert code == 0
    _, rows = parse_distribution(out)
    assert abs(sum(rows.values()) - 1.0) <= 1e-10


def test_distribution_photon_mismatch_exit_code(circuit_file, capsys):
    code, _, err = run_cli(capsys, "distribution", circuit_file, "--input", "1,1")
    assert code == 2


def test_distribution_degenerate_postselection_exit_code(balanced_file, capsys):
    code, _, err = run_cli(
        capsys, "distribution", balanced_file, "--input", "1,1", "--collision-free"
    )
    assert code == 4


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def test_sample_deterministic_files(tmp_path, circuit_file, capsys):
    out1 = tmp_path / "s1.txt"
    out2 = tmp_path / "s2.txt"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "sample", circuit_file,
            "--input", "0,0,1,1,1", "--count", "200", "--seed", "1",
            "--output", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_identity_network(tmp_path, capsys):
    path = tmp_path / "eye.matrix"
    io.write_matrix(path, np.eye(2))
    code, out, _ = run_cli(
        capsys, "sample", str(path), "--input", "1,0", "--count", "5", "--seed", "3"
    )
    assert code == 0
    assert out.splitlines() == ["1,0"] * 5


def test_sample_never_draws_suppressed_outcome(balanced_file, capsys):
    code, out, _ = run_cli(
        capsys, "sample", balanced_file, "--input", "1,1", "--count", "10000", "--seed", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10000
    assert "1,1" not in set(lines)


# ----------------------------------------------------------------------
# hom-scan
# ----------------------------------------------------------------------

def parse_scan(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("delay"):
            continue
        delay, _, rate = line.partition(",")
        rows.append((float(delay), float(rate)))
    return rows


def test_hom_scan_two_photon_dip(balanced_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "hom-scan", balanced_file,
        "--in-modes", "1,2", "--out-modes", "1,2",
        "--delay-grid=-500:500:101", "--sigma", "100",
    )
    assert code == 0
    rows = parse_scan(out)
    assert len(rows) == 101
    rates = [rate for _, rate in rows]
    middle = rates[50]
    assert middle < 1e-12
    assert all(abs(a - b) <= 1e-12 for a, b in zip(rates, rates[::-1]))


def test_hom_scan_plateau_matches_classical_rate(balanced_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "hom-scan", balanced_file,
        "--in-modes", "1,2", "--out-modes", "1,2",
        "--delay-grid", "1000:1000:1", "--sigma", "100",
    )
    assert code == 0
    (_, rate), = parse_scan(out)
    assert abs(rate - 0.5) < 0.005  # within 1% of the distinguishable rate


def test_hom_scan_three_photon_joint(circuit_file, tmp_path, capsys):
    # default scan modes: all input modes but the first, the joint-delay case
    path = tmp_path / "dip.circuit"
    io.write_circuit(path, random_circuit(1))
    code, out, _ = run_cli(
        capsys,
        "hom-scan", str(path),
        "--in-modes", "3,4,5", "--out-modes", "2,4,5",
        "--delay-grid=-400:400:41",
    )
    assert code == 0
    rows = parse_scan(out)
    rates = [rate for _, rate in rows]
    assert int(np.argmin(rates)) == 20


def test_hom_scan_invalid_modes_exit_code(balanced_file, capsys):
    code, _, _ = run_cli(
        capsys,
        "hom-scan", balanced_file,
        "--in-modes", "1,7", "--out-modes", "1,2",
        "--delay-grid", "0:1:2",
    )
    assert code == 2


def test_size_limits_checked_before_loading(tmp_path, capsys):
    # the network file does not exist, so exit 3 proves the bound came first
    missing = str(tmp_path / "missing.matrix")
    code, _, err = run_cli(
        capsys, "sample", missing, "--input", "1,0", "--count", "100000000000", "--seed", "1"
    )
    assert code == 3 and "capped" in err
    code, _, err = run_cli(
        capsys, "hom-scan", missing, "--in-modes", "1,2", "--out-modes", "1,2",
        "--delay-grid=0:1:100000000000",
    )
    assert code == 3 and "capped" in err


def test_hom_scan_photon_cap_exit_code(tmp_path, capsys):
    n = interference.RATE_PHOTON_LIMIT + 1
    path = tmp_path / "eye.matrix"
    io.write_matrix(path, np.eye(n))
    modes = ",".join(str(k) for k in range(1, n + 1))
    code, out, err = run_cli(
        capsys, "hom-scan", str(path), "--in-modes", modes, "--out-modes", modes,
        "--delay-grid", "0:1:2",
    )
    assert code == 3 and out == ""
    assert f"capped at {interference.RATE_PHOTON_LIMIT} photons" in err


def test_size_limits_are_inclusive(balanced_file, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SAMPLE_COUNT_LIMIT", 4)
    monkeypatch.setattr(cli, "DELAY_GRID_LIMIT", 3)
    sample = ("sample", balanced_file, "--input", "1,1", "--seed", "1", "--count")
    assert run_cli(capsys, *sample, "4")[0] == 0
    assert run_cli(capsys, *sample, "5")[0] == 3
    scan = ("hom-scan", balanced_file, "--in-modes", "1,2", "--out-modes", "1,2")
    assert run_cli(capsys, *scan, "--delay-grid=0:1:3")[0] == 0
    assert run_cli(capsys, *scan, "--delay-grid=0:1:4")[0] == 3


# ----------------------------------------------------------------------
# simulate + reconstruct
# ----------------------------------------------------------------------

def test_simulate_reconstruct_round_trip(tmp_path, circuit_file, capsys):
    dataset = tmp_path / "data.txt"
    code, _, _ = run_cli(
        capsys,
        "simulate", circuit_file, "--counts", "1000000", "--seed", "4",
        "--output", str(dataset),
    )
    assert code == 0
    result1 = tmp_path / "fit1.txt"
    result2 = tmp_path / "fit2.txt"
    for result in (result1, result2):
        code, _, _ = run_cli(
            capsys,
            "reconstruct", str(dataset), "--restarts", "4", "--seed", "7",
            "--output", str(result),
        )
        assert code == 0
    assert result1.read_bytes() == result2.read_bytes()
    # result file round-trips through prediction
    from bosonsim import predict_observables

    back = io.read_result(result1)
    again = predict_observables(back.params, back.predicted.visibility_pairs())
    assert np.max(np.abs(again.singles - back.predicted.singles)) == 0.0
    # near-noiseless data: fitted observables match the dataset closely
    data = io.read_dataset(dataset)
    assert np.max(np.abs(back.predicted.singles - data.singles)) < 1e-2


def test_simulate_deterministic(tmp_path, circuit_file, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", circuit_file, "--counts", "5000", "--seed", "11",
            "--output", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("pairs", ["-5", "101"])
def test_simulate_pairs_out_of_range_exit_code(circuit_file, capsys, pairs):
    code, out, err = run_cli(
        capsys, "simulate", circuit_file, "--counts", "100", "--seed", "1", "--pairs", pairs
    )
    assert code == 2
    assert out == ""
    assert "0..100" in err


def test_simulate_rejects_non_unitary_matrix(tmp_path, capsys):
    # distribution already rejected this file; simulate wrote a dataset from it
    path = tmp_path / "twice.matrix"
    io.write_matrix(path, 2 * np.eye(5))
    for argv in (["simulate", str(path), "--counts", "100", "--seed", "1"],
                 ["distribution", str(path), "--input", "1,1,0,0,0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "bosonsim: matrix is not unitary within 1e-08\n"


def test_parsed_defaults_are_the_library_defaults(tmp_path, circuit_file, capsys, monkeypatch):
    # the parser leaves these options unset, and the command leaves them to the library
    from bosonsim import DEFAULT_SIGMA_FS, FitConfig
    from bosonsim.reconstruction import DEFAULT_PAIR_COUNT

    calls = {}

    def record(name):
        def stop(*args):
            calls[name] = args
            raise ValueError("recorded")
        return stop

    for name in ("fit", "hom_scan"):
        monkeypatch.setattr(cli, name, record(name))
    dataset = tmp_path / "data.txt"
    assert run_cli(capsys, "simulate", circuit_file, "--counts", "1000", "--seed", "1",
                   "--output", str(dataset))[0] == 0
    assert len(io.read_dataset(dataset).visibilities) == DEFAULT_PAIR_COUNT
    assert run_cli(capsys, "reconstruct", str(dataset))[0] == 2
    assert calls["fit"][1] == FitConfig()
    assert run_cli(capsys, "hom-scan", circuit_file, "--in-modes", "1,2", "--out-modes", "1,2",
                   "--delay-grid=0:1:2")[0] == 2
    assert [config.sigma for config in calls["hom_scan"][3]] == [DEFAULT_SIGMA_FS] * 2


def test_reconstruct_malformed_dataset_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("[singles]\n1 1 0.5 zzz\n")
    code, _, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 2
    assert ":2:" in err


def test_reconstruct_nan_sigma_exit_code(tmp_path, capsys):
    lines = ["[singles]"]
    lines += [f"{j} {k} 0.2 {'nan' if (j, k) == (3, 2) else '0.01'}"
              for j in range(1, 6) for k in range(1, 6)]
    path = tmp_path / "nan.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "reconstruct", str(path), "--restarts", "1")
    assert code == 2
    assert out == ""
    assert ":13:" in err


@pytest.mark.parametrize("argv, content", [
    (["distribution", "--input", "1,0"], "modes 2\ncoupler 1 0.5\n".encode("utf-16")),
    (["permanent"], b"\xff\xfe1+0i\n"),
    (["reconstruct", "--restarts", "1"], b"\xff\xfe[singles]\n"),
], ids=["circuit", "matrix", "dataset"])
def test_undecodable_file_is_named(tmp_path, capsys, argv, content):
    path = tmp_path / "not-utf8.txt"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *argv[:1], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"bosonsim: {path}: 'utf-8' codec")


def test_simulate_counts_above_the_limit_exit_code(circuit_file, capsys):
    code, out, err = run_cli(
        capsys, "simulate", circuit_file, "--counts", "1000000000000000000000", "--seed", "1"
    )
    assert (code, out) == (2, "")
    assert err == "bosonsim: counts_per_setting must be at most 1000000000000000000\n"


def test_reconstruct_nonconvergence_exit_code(tmp_path, capsys):
    lines = ["[singles]"]
    reversal = np.eye(5)[::-1]
    for j in range(1, 6):
        for k in range(1, 6):
            lines.append(f"{j} {k} {reversal[j - 1, k - 1]} 1e-9")
    path = tmp_path / "unreachable.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "reconstruct", str(path), "--restarts", "2", "--max-iterations", "60"
    )
    assert code == 5


@pytest.fixture
def dataset_file(tmp_path, circuit_file, capsys):
    path = tmp_path / "data.txt"
    code, _, _ = run_cli(
        capsys, "simulate", circuit_file, "--counts", "20000", "--seed", "3",
        "--output", str(path),
    )
    assert code == 0
    return str(path)


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tolerance", "inf", "tolerance"),
        ("--tolerance", "nan", "tolerance"),
        ("--tolerance", "0", "tolerance"),
        ("--tolerance", "-1", "tolerance"),
        ("--max-iterations", "0", "max_iterations"),
        ("--restarts", "0", "restarts"),
    ],
)
def test_reconstruct_meaningless_fit_settings_exit_code(dataset_file, capsys, flag, value, field):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "reconstruct", dataset_file, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("bosonsim: ") and err.count("\n") == 1
    assert field in err
    assert "Warning" not in err
    assert caught == []


def test_reconstruct_stdout_unchanged_by_restart_log(dataset_file, capsys, caplog):
    from bosonsim import FitConfig, fit

    caplog.set_level(logging.DEBUG, logger="bosonsim")
    code, out, _ = run_cli(capsys, "reconstruct", dataset_file, "--restarts", "3", "--seed", "2")
    assert code == 0
    result = fit(io.read_dataset(dataset_file), FitConfig(restarts=3, seed=2))
    io.write_result(None, result)
    assert out == capsys.readouterr().out
    assert "fit restart" not in out
    logged = [m for m in caplog.messages if m.startswith("fit restart")]
    assert len(logged) == 2 * result.restarts_used


def test_distribution_photon_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fock, "_photon_modes", _never_called)
    monkeypatch.setattr(fock, "enumerate_basis", _never_called)
    path = tmp_path / "one.matrix"
    io.write_matrix(path, np.eye(1))
    code, out, err = run_cli(capsys, "distribution", str(path), "--input", "3000")
    assert code == 3
    assert out == ""
    assert err == "bosonsim: photon number is capped at 30, got 3000\n"


def _never_called(*_args, **_kwargs):
    raise AssertionError("called past the photon cap")


def test_permanent_overflowing_entry_exit_code(tmp_path, capsys):
    path = tmp_path / "big.matrix"
    path.write_text("1 2\n3 1e400\n")
    code, out, err = run_cli(capsys, "permanent", str(path))
    assert (code, out) == (2, "")
    assert err == f"bosonsim: {path}:2: invalid complex entry '1e400'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--delay-grid=0:1",), "delay grid must be 'start:stop:count'"),
        (("--delay-grid=0:x:3",), "invalid delay grid"),
        (("--delay-grid=0:1:0",), "delay grid needs at least one point"),
        (("--delay-grid=0:1:2", "--scan-modes", "3"), r"scan modes \[3\] are not input modes"),
        (("--delay-grid=0:1:2", "--in-modes", "2", "--out-modes", "1"),
         "need at least one scanned mode"),
    ],
)
def test_hom_scan_rejects_bad_grid_and_scan_modes(balanced_file, capsys, argv, message):
    defaults = ("--in-modes", "1,2", "--out-modes", "1,2")
    code, out, err = run_cli(capsys, "hom-scan", balanced_file, *defaults, *argv)
    assert (code, out) == (2, "")
    assert re.search(message, err)


@pytest.mark.parametrize(
    "case, field",
    [("sample", "seed"), ("simulate", "seed"), ("reconstruct", "seed"),
     ("infinite grid", "delay grid"), ("overflowing grid", "delay grid")],
)
def test_bad_seed_or_grid_bound_is_one_error_line(
    balanced_file, circuit_file, tmp_path, capsys, case, field
):
    scan = ("hom-scan", balanced_file, "--in-modes", "1,2", "--out-modes", "1,2")
    argv = {
        "sample": ("sample", balanced_file, "--input", "1,1", "--count", "5", "--seed", "-1"),
        "simulate": ("simulate", circuit_file, "--counts", "100", "--seed", "-1"),
        # the dataset does not exist: the seed must be rejected before it is read
        "reconstruct": ("reconstruct", str(tmp_path / "missing.txt"), "--seed", "-1"),
        "infinite grid": (*scan, "--delay-grid=0:inf:2"),
        "overflowing grid": (*scan, "--delay-grid=-1e308:1e308:3"),
    }[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"bosonsim: {field}") and err.count("\n") == 1
    assert caught == []


def test_distribution_rejects_bad_input_token(balanced_file, capsys):
    code, out, err = run_cli(capsys, "distribution", balanced_file, "--input", "1,x")
    assert (code, out) == (2, "")
    assert err == "bosonsim: invalid occupation list '1,x'\n"


def source_env():
    """The environment with this checkout's src first on PYTHONPATH, for a subprocess."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_module_entry_point_exits_with_the_error_code(tmp_path):
    # python -m bosonsim.cli goes through sys.exit, not just main()
    path = tmp_path / "bad.matrix"
    path.write_text("1 2\n3 junk\n")
    proc = subprocess.run([sys.executable, "-m", "bosonsim.cli", "permanent", str(path)],
                          env=source_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"bosonsim: [^\n]*:2:[^\n]*\n", proc.stderr), proc.stderr


def _command_argv(command, balanced_file, circuit_file, dataset_file):
    return {
        "permanent": ["permanent", balanced_file],
        "distribution": ["distribution", circuit_file, "--input", "1,1,0,0,0"],
        "sample": ["sample", balanced_file, "--input", "1,1", "--count", "5", "--seed", "1"],
        "hom-scan": ["hom-scan", balanced_file, "--in-modes", "1,2", "--out-modes", "1,2",
                     "--delay-grid=-100:100:3"],
        "simulate": ["simulate", circuit_file, "--counts", "100", "--seed", "3"],
        "reconstruct": ["reconstruct", dataset_file, "--restarts", "2"],
    }[command]


def _run_module(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "bosonsim.cli", *argv], env=source_env(),
                          capture_output=True, timeout=60, **kwargs)


@pytest.mark.parametrize("command", [
    "permanent", "distribution", "sample", "hom-scan", "simulate", "reconstruct"])
def test_module_entry_point_output_matches_main(
        tmp_path, balanced_file, circuit_file, dataset_file, capsys, command):
    # acceptance criterion 10 through the real entry point and its exit path
    argv = _command_argv(command, balanced_file, circuit_file, dataset_file)
    code, out, _ = run_cli(capsys, *argv)
    proc = _run_module(argv)
    assert (proc.returncode, proc.stdout, code) == (0, out.encode(), 0), proc.stderr
    if command != "permanent":
        ours, theirs = tmp_path / "main.out", tmp_path / "module.out"
        assert run_cli(capsys, *argv, "--output", str(ours))[0] == 0
        proc = _run_module([*argv, "--output", str(theirs)])
        assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr
        assert theirs.read_bytes() == ours.read_bytes()


@pytest.mark.parametrize("command, absent", [
    ("permanent", {"circuit", "fock", "interference", "reconstruction"}),
    ("hom-scan", {"circuit", "fock", "reconstruction"}),
    ("sample", {"circuit", "interference", "reconstruction"}),
    ("reconstruct", {"fock"}),
])
def test_each_command_loads_only_the_modules_it_runs(
        balanced_file, circuit_file, dataset_file, command, absent):
    argv = _command_argv(command, balanced_file, circuit_file, dataset_file)
    code = ("import sys; from bosonsim.cli import main; code = main(sys.argv[1:]); "
            "print(*sorted(m for m in sys.modules if m.startswith('bosonsim.'))); "
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=source_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("bosonsim.") for name in proc.stdout.splitlines()[-1].split()}
    assert not loaded & absent, sorted(loaded & absent)


def test_only_the_entry_point_freezes_the_heap(balanced_file, capsys):
    import gc

    assert run_cli(capsys, "permanent", balanced_file)[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (0, True)
    code = ("import gc, sys; from bosonsim import cli; sys.argv[0] = 'bosonsim'\n"
            "try:\n    cli.entry_point()\n"
            "except SystemExit as stop:\n    print(stop.code, gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-c", code, "permanent", balanced_file],
                          env=source_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 True", proc.stderr


@pytest.mark.parametrize("command", ["permanent", "hom-scan", "sample"])
def test_full_stdout_is_one_error_line_and_exit_code_2(
        balanced_file, circuit_file, dataset_file, command):
    # without PYTHONUNBUFFERED, stdout is block-buffered and fails only when flushed
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)
    argv = _command_argv(command, balanced_file, circuit_file, dataset_file)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bosonsim.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "bosonsim: [Errno 28] No space left on device\n")


def test_cli_start_up_loads_no_scipy():
    # every command pays for the import of bosonsim.cli, so it must not pull in scipy
    code = ("import sys, bosonsim.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_loads_neither_numpy_nor_a_submodule():
    # the CLI caps BLAS threads before numpy loads, so `import bosonsim` must load nothing
    code = ("import sys, bosonsim; print(bosonsim.__version__, sorted("
            "m for m in sys.modules if m == 'numpy' or m.startswith('bosonsim.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 []\n"


def test_package_serves_every_public_name_from_its_module():
    import bosonsim

    modules = [importlib.import_module(f"bosonsim.{name}") for name in (
        "circuit", "errors", "fock", "interference", "permanent", "reconstruction", "unitary")]
    for name in bosonsim.__all__:
        value = getattr(bosonsim, name)
        owners = [module for module in modules if name in vars(module)]
        assert owners and all(vars(module)[name] is value for module in owners), name
        home = getattr(value, "__module__", "")
        assert not home.startswith("bosonsim.") or getattr(sys.modules[home], name) is value
    namespace = {}
    exec("from bosonsim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bosonsim.__all__)
    assert set(bosonsim.__all__) <= set(dir(bosonsim))
    with pytest.raises(AttributeError, match="no_such_name"):
        bosonsim.no_such_name


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_caps_blas_threads_unless_the_user_set_them(preset, expected):
    env = source_env()
    # source_env copies os.environ, which this process's own import of bosonsim.cli may have set
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, bosonsim.cli; task = '/proc/self/task'; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir(task)) if os.path.isdir(task) else '-')")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == expected
    if preset is None and threads != "-":
        assert threads == "1"
