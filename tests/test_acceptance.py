"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest output.
"""

import math
import time

import numpy as np
from oracles import brute_force_distribution

import bosonsim as bs


def _report(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")


def params_of(circuit):
    return bs.CircuitParameters(
        tuple(e.eta for e in circuit.couplers()),
        tuple(p.phi for p in circuit.phases()),
    )


def balanced_coupler():
    s = 1.0 / math.sqrt(2.0)
    return np.array([[s, 1j * s], [1j * s, s]])


def test_criterion_1_two_photon_suppression():
    ok = False
    try:
        assert bs.transition_probability(balanced_coupler(), (1, 1), (1, 1)) <= 1e-12
        t, r = math.sqrt(0.8), math.sqrt(0.2)
        coupler = np.array([[t, 1j * r], [1j * r, t]])
        p = bs.transition_probability(coupler, (1, 1), (1, 1))
        assert abs(p - abs(0.8 - 0.2) ** 2) <= 1e-12
        ok = True
    finally:
        _report(1, "two-photon suppression |T^2 - R^2|^2 on a coupler", ok)


def test_criterion_2_worked_example_3x3():
    # P((1,1,0) -> (0,1,1)) = |Per([[d, e], [g, h]])|^2 / 1 = |d*h + e*g|^2
    # with d, e, g, h the lower-left 2x2 of U (1-based rows 2-3, cols 1-2).
    ok = False
    try:
        for seed in range(10):
            u = bs.random_unitary(3, seed)
            p = bs.transition_probability(u, (1, 1, 0), (0, 1, 1))
            expected = abs(u[1, 0] * u[2, 1] + u[1, 1] * u[2, 0]) ** 2
            assert abs(p - expected) <= 1e-12
        ok = True
    finally:
        _report(2, "3x3 worked example, permanent of the duplicated submatrix", ok)


def test_criterion_3_oracle_equivalence():
    ok = False
    try:
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 50:
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            u = bs.random_unitary(m, 9000 + cases)
            basis = bs.enumerate_basis(m, n)
            inp = basis[rng.integers(len(basis))]
            dist = bs.full_distribution(u, inp)
            oracle = brute_force_distribution(u, inp)
            for state, p in dist.outcomes():
                assert abs(p - oracle.get(state, 0.0)) <= 1e-9
            assert abs(dist.probabilities.sum() - 1.0) <= 1e-10
            cases += 1
        ok = True
    finally:
        _report(3, "full_distribution vs brute-force propagation oracle, 50 unitaries", ok)


def test_criterion_4_permanent_cross_check():
    ok = False
    try:
        rng = np.random.default_rng(7)
        for case in range(200):
            n = int(rng.integers(1, 8))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            expected = bs.permanent_naive(m)
            got = bs.permanent_ryser(m)
            assert abs(got - expected) <= 1e-9 * (1 + abs(expected))
        for n in range(1, 10):
            assert bs.permanent_ryser(np.ones((n, n))) == complex(math.factorial(n))
        ok = True
    finally:
        _report(4, "Ryser vs naive on 200 random matrices; Per(ones) = n!", ok)


def test_criterion_5_collision_free_count():
    ok = False
    try:
        u = bs.compile_circuit(bs.random_circuit(3))
        full = bs.full_distribution(u, (0, 0, 1, 1, 1))
        assert len(full.states) == 35
        cf = bs.collision_free_distribution(u, (0, 0, 1, 1, 1))
        assert len(cf.states) == 10
        for state, p in cf.outcomes():
            assert p == full.probability_of(state) / cf.normalization
        ok = True
    finally:
        _report(5, "5-mode 3-photon collision-free: 10 outcomes from 35 states", ok)


def test_criterion_6_interference_limits():
    ok = False
    try:
        rng = np.random.default_rng(55)
        for case in range(50):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, min(3, m) + 1))
            u = bs.random_unitary(m, 7000 + case)
            ins = tuple(int(x) + 1 for x in rng.choice(m, size=n, replace=False))
            outs = tuple(int(x) + 1 for x in rng.choice(m, size=n, replace=False))
            quantum = bs.coincidence_rate(u, ins, outs, np.ones((n, n)))
            inp = tuple(1 if k + 1 in ins else 0 for k in range(m))
            out = tuple(1 if k + 1 in outs else 0 for k in range(m))
            assert abs(quantum - bs.transition_probability(u, inp, out)) <= 1e-10
            classical = bs.coincidence_rate(u, ins, outs, np.eye(n))
            sub = u[np.ix_([o - 1 for o in outs], [i - 1 for i in ins])]
            expected = bs.permanent_naive(np.abs(sub) ** 2).real
            assert abs(classical - expected) <= 1e-10
        sigma = 120.0
        taus = np.linspace(-5 * sigma, 5 * sigma, 101)
        scan = bs.hom_scan(
            balanced_coupler(), (1, 2), (1, 2),
            [bs.DelayConfig((0.0, t), sigma) for t in taus],
        )
        for (_, rate), tau in zip(scan, taus):
            closed_form = 0.5 * (1.0 - math.exp(-(tau**2) / (2.0 * sigma**2)))
            assert abs(rate - closed_form) <= 1e-10
        ok = True
    finally:
        _report(6, "coincidence-rate limits and the closed-form two-photon dip", ok)


def test_criterion_7_noiseless_reconstruction():
    ok = False
    try:
        for seed in range(10):
            p_true = params_of(bs.random_circuit(seed))
            u = bs.compile_circuit(bs.default_topology(p_true.etas, p_true.phis))
            pairs = bs.default_visibility_pairs(u, 40)
            data = bs.predict_observables(p_true, pairs)
            result = bs.fit(data, bs.FitConfig(restarts=20, seed=500 + seed))
            assert result.restarts_used <= 20
            assert result.residual < 1e-6
            mismatch = np.max(np.abs(result.predicted.singles - data.singles))
            for got, want in zip(result.predicted.visibilities, data.visibilities):
                mismatch = max(mismatch, abs(got.value - want.value))
            assert mismatch < 1e-4
        ok = True
    finally:
        _report(7, "noiseless round trip: residual < 1e-6, observables < 1e-4", ok)


def test_criterion_8_noisy_reconstruction():
    ok = False
    try:
        distances = []
        for seed in range(10):
            circuit = bs.random_circuit(100 + seed)
            p_true = params_of(circuit)
            u_true = bs.compile_circuit(circuit)
            data = bs.simulate_dataset(p_true, 10_000, seed=600 + seed)
            result = bs.fit(data, bs.FitConfig(restarts=20, seed=700 + seed))
            u_fit = bs.compile_circuit(
                bs.default_topology(result.params.etas, result.params.phis)
            )
            d_true = bs.collision_free_distribution(u_true, (0, 0, 1, 1, 1))
            d_fit = bs.collision_free_distribution(u_fit, (0, 0, 1, 1, 1))
            distances.append(0.5 * np.abs(d_true.probabilities - d_fit.probabilities).sum())
        assert np.mean(distances) < 0.05
        ok = True
    finally:
        _report(8, "Poisson-noisy round trip: mean 3-photon TV distance < 0.05", ok)


def test_criterion_9_performance_kernel():
    ok = False
    try:
        bs.permanent_ryser(np.eye(2))  # untimed first call keeps one-off costs out
        u20 = bs.random_unitary(20, 1)
        start = time.perf_counter()
        bs.permanent_ryser(u20)
        t20 = time.perf_counter() - start
        assert t20 < 10.0, f"20x20 took {t20:.2f}s"
        u24 = bs.random_unitary(24, 2)
        start = time.perf_counter()
        bs.permanent_ryser(u24)
        t24 = time.perf_counter() - start
        assert t24 < 300.0, f"24x24 took {t24:.2f}s"
        ok = True
    finally:
        _report(9, "Glynn kernel (permanent_ryser): 20x20 under 10 s, 24x24 under 5 min", ok)


def test_criterion_10_determinism(tmp_path):
    import contextlib
    import io as stringio

    ok = False
    try:
        # seeded library operations
        assert np.array_equal(bs.random_unitary(6, 9), bs.random_unitary(6, 9))
        assert bs.random_circuit(9) == bs.random_circuit(9)
        u = bs.random_unitary(4, 3)
        assert bs.sample(u, (1, 1, 0, 0), 100, seed=5) == bs.sample(u, (1, 1, 0, 0), 100, seed=5)
        p = params_of(bs.random_circuit(21))
        d1 = bs.simulate_dataset(p, 2000, seed=8)
        d2 = bs.simulate_dataset(p, 2000, seed=8)
        assert np.array_equal(d1.singles, d2.singles) and d1.visibilities == d2.visibilities
        f1 = bs.fit(d1, bs.FitConfig(restarts=2, seed=3))
        f2 = bs.fit(d2, bs.FitConfig(restarts=2, seed=3))
        assert f1.params == f2.params and f1.residual == f2.residual

        # every CLI command, run twice, byte-identical output files
        from bosonsim import io
        from bosonsim.cli import main

        matrix_file = tmp_path / "m.matrix"
        io.write_matrix(matrix_file, u)
        circuit_file = tmp_path / "net.circuit"
        io.write_circuit(circuit_file, bs.random_circuit(21))
        dataset_file = tmp_path / "data.txt"
        assert main([
            "simulate", str(circuit_file), "--counts", "20000", "--seed", "5",
            "--output", str(dataset_file),
        ]) == 0

        commands = {
            "permanent": ["permanent", str(matrix_file)],
            "distribution": [
                "distribution", str(circuit_file), "--input", "0,0,1,1,1",
                "--collision-free",
            ],
            "sample": [
                "sample", str(circuit_file), "--input", "0,0,1,1,1",
                "--count", "50", "--seed", "2",
            ],
            "hom-scan": [
                "hom-scan", str(circuit_file), "--in-modes", "3,4,5",
                "--out-modes", "1,2,3", "--delay-grid=-200:200:11",
            ],
            "simulate": [
                "simulate", str(circuit_file), "--counts", "20000", "--seed", "5",
            ],
            "reconstruct": [
                "reconstruct", str(dataset_file), "--restarts", "2", "--seed", "1",
            ],
        }
        for name, argv in commands.items():
            outputs = []
            for run in (1, 2):
                out_file = tmp_path / f"{name}-{run}.out"
                if name == "permanent":
                    buffer = stringio.StringIO()
                    with contextlib.redirect_stdout(buffer):
                        code = main(argv)
                    assert code == 0
                    out_file.write_text(buffer.getvalue())
                else:
                    code = main(argv + ["--output", str(out_file)])
                    assert code == 0
                outputs.append(out_file.read_bytes())
            assert outputs[0] == outputs[1], f"{name} output differs between runs"
        ok = True
    finally:
        _report(10, "seeded operations and CLI commands are byte-identical", ok)
