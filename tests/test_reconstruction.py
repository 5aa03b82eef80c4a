import itertools
import logging

import numpy as np
import pytest
from oracles import (
    central_differences,
    one_sided_differences,
    ranked_pairs_loop,
    simulated_visibilities_loop,
)

import bosonsim.reconstruction as rec
from bosonsim.circuit import FIT_PHASES, _parameter_vector

from bosonsim import (
    CircuitParameters,
    FitConfig,
    MeasurementDataset,
    NonConvergenceError,
    UndefinedVisibilityError,
    VisibilityRecord,
    coincidence_rate,
    compile_circuit,
    default_topology,
    default_visibility_pairs,
    fit,
    objective,
    predict_observables,
    random_circuit,
    random_unitary,
    simulate_dataset,
)

ALL_PAIRS_SEED = 5


def params_of(circuit) -> CircuitParameters:
    return CircuitParameters(
        tuple(e.eta for e in circuit.couplers()), tuple(p.phi for p in circuit.phases())
    )


def random_params(seed) -> CircuitParameters:
    return params_of(random_circuit(seed))


def network_of(params) -> np.ndarray:
    return compile_circuit(default_topology(params.etas, params.phis))


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------

def test_predict_identity_network():
    p = CircuitParameters((0.0,) * 8, (0.0,) * 11)
    data = predict_observables(p, [])
    assert np.array_equal(data.singles, np.eye(5))
    assert data.visibilities == ()


def test_predict_columns_normalized():
    data = predict_observables(random_params(1), [])
    assert np.allclose(data.singles.sum(axis=0), 1.0, atol=1e-10)


def test_predict_single_active_coupler_full_visibility():
    p = CircuitParameters((0.5,) + (0.0,) * 7, (0.0,) * 11)
    data = predict_observables(p, [((1, 2), (1, 2))])
    assert np.isclose(data.visibilities[0].value, 1.0, atol=1e-12)
    assert data.visibilities[0].sigma == 0.0


def test_predict_matches_interference_visibility():
    # the closed form against 1 - P_Q / P_D from the n-photon permanent rates
    p = random_params(2)
    u = network_of(p)
    pairs = [
        (ip, op)
        for ip in itertools.combinations(range(1, 6), 2)
        for op in itertools.combinations(range(1, 6), 2)
    ]
    data = predict_observables(p, pairs)
    assert len(data.visibilities) == 100
    for record in data.visibilities:
        i, o = record.in_pair, record.out_pair
        dip = 1.0 - coincidence_rate(u, i, o, np.ones((2, 2))) / coincidence_rate(u, i, o, np.eye(2))
        assert np.isclose(record.value, dip, atol=1e-12)
    assert np.allclose(data.singles, np.abs(u) ** 2, atol=1e-15)


def test_predict_raises_for_undefined_pair():
    p = CircuitParameters((0.0,) * 8, (0.0,) * 11)
    with pytest.raises(UndefinedVisibilityError):
        predict_observables(p, [((1, 3), (1, 2))])


def test_parameter_validation():
    with pytest.raises(ValueError):
        CircuitParameters((0.5,) * 7, (0.0,) * 11)
    with pytest.raises(ValueError):
        CircuitParameters((1.5,) + (0.5,) * 7, (0.0,) * 11)
    with pytest.raises(ValueError):
        CircuitParameters((0.5,) * 8, (7.0,) * 11)


@pytest.mark.parametrize("field", ["singles", "singles_sigma", "visibilities"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dataset_rejects_non_finite_values(field, bad):
    singles, sigma = np.full((5, 5), 0.2), np.full((5, 5), 0.01)
    value, v_sigma = 0.5, 0.01
    if field == "singles":
        singles[2, 3] = bad
    elif field == "singles_sigma":
        sigma[2, 3] = bad
    else:
        v_sigma = bad
    with pytest.raises(ValueError, match=field):
        MeasurementDataset(singles, sigma, (VisibilityRecord((1, 2), (1, 2), value, v_sigma),))


# ----------------------------------------------------------------------
# objective
# ----------------------------------------------------------------------

def test_objective_zero_on_own_prediction():
    p = random_params(3)
    data = predict_observables(p, default_visibility_pairs(network_of(p)))
    assert objective(p, data) <= 1e-12


def test_objective_increases_under_perturbation():
    p = random_params(4)
    data = predict_observables(p, default_visibility_pairs(network_of(p)))
    etas = list(p.etas)
    etas[0] = min(etas[0] + 0.1, 1.0)
    assert objective(CircuitParameters(tuple(etas), p.phis), data) > 1e-4


def test_objective_singles_only():
    p = random_params(6)
    data = predict_observables(p, [])
    assert objective(p, data) <= 1e-15


def test_objective_penalizes_undefined_pairs():
    # identity network leaves (1,3) -> (1,2) with no classical path
    p = CircuitParameters((0.0,) * 8, (0.0,) * 11)
    data = MeasurementDataset(
        np.eye(5),
        np.full((5, 5), 0.01),
        (VisibilityRecord((1, 3), (1, 2), 0.5, 0.01),),
    )
    value = objective(p, data)
    assert value >= 1e6
    assert value < 1e6 + 1.0


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------

def test_fit_noiseless_round_trip():
    p = random_params(7)
    u = network_of(p)
    pairs = default_visibility_pairs(u)
    data = predict_observables(p, pairs)
    result = fit(data, FitConfig(restarts=20, seed=11))
    assert result.residual < 1e-6
    assert result.restarts_used <= 20
    mismatch = np.max(np.abs(result.predicted.singles - data.singles))
    for got, want in zip(result.predicted.visibilities, data.visibilities):
        mismatch = max(mismatch, abs(got.value - want.value))
    assert mismatch < 1e-4


def test_fit_deterministic():
    p = random_params(8)
    data = simulate_dataset(p, 1000, seed=1)
    config = FitConfig(restarts=3, max_iterations=120, seed=2)
    a = fit(data, config)
    b = fit(data, config)
    assert a.params == b.params
    assert a.residual == b.residual
    assert a.iterations == b.iterations
    assert a.restarts_used == b.restarts_used


def test_fit_predicted_consistency():
    p = random_params(9)
    data = simulate_dataset(p, 10_000, seed=3)
    result = fit(data, FitConfig(restarts=3, seed=4))
    again = predict_observables(result.params, data.visibility_pairs())
    assert np.array_equal(result.predicted.singles, again.singles)
    assert result.predicted.visibilities == again.visibilities
    assert np.isclose(result.residual, objective(result.params, data), rtol=0, atol=0)


def test_fit_nonconvergence_on_unreachable_data():
    # a full mode-reversal cannot be realized by the canonical topology, and the
    # tiny stated uncertainties push the best objective above the penalty floor
    singles = np.eye(5)[::-1].copy()
    data = MeasurementDataset(singles, np.full((5, 5), 1e-9), ())
    with pytest.raises(NonConvergenceError):
        fit(data, FitConfig(restarts=2, max_iterations=60, seed=0))


def test_fit_validation():
    data = predict_observables(random_params(10), [])
    with pytest.raises(ValueError):
        fit(data, FitConfig(restarts=0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", 0),
        ("restarts", -3),
        ("max_iterations", 0),
        ("max_iterations", -1),
        ("tolerance", float("inf")),
        ("tolerance", float("nan")),
        ("tolerance", 0.0),
        ("tolerance", -1.0),
        ("tolerance", np.finfo(float).eps),
        ("seed", -1),
        ("seed", 1.5),
    ],
)
def test_fit_config_rejects_meaningless_settings(field, value):
    with pytest.raises(ValueError, match=field):
        FitConfig(**{field: value})


def test_fit_config_accepts_smallest_settings():
    FitConfig(restarts=1, max_iterations=1, tolerance=2 * np.finfo(float).eps)


def test_fit_config_stores_integer_settings_as_int():
    config = FitConfig(restarts=np.int64(2), max_iterations=3.0, seed=np.int64(3))
    assert (config.restarts, config.max_iterations, config.seed) == (2, 3, 3)
    assert all(type(x) is int for x in (config.restarts, config.max_iterations, config.seed))


def test_fit_records_every_restart(caplog):
    data = simulate_dataset(random_params(31), 1000, seed=2)
    caplog.set_level(logging.DEBUG, logger="bosonsim")
    result = fit(data, FitConfig(restarts=3, max_iterations=60, seed=5))
    assert len(result.restarts) == result.restarts_used == 3
    assert [r.start for r in result.restarts] == [0, 1, 2]
    best = min(result.restarts, key=lambda r: r.cost)
    assert result.iterations == best.nfev
    assert all(1 <= r.njev <= r.nfev <= 60 for r in result.restarts)
    assert all(isinstance(r.status, rec.Stop) for r in result.restarts)
    assert {int(code) for code in rec.Stop} == {0, 1, 2, 3, 4}
    lines = [m for m in caplog.messages if m.startswith("fit restart")]
    assert len(lines) == 3


@pytest.mark.parametrize("budget", [1, 2, 7])
def test_fit_budget_ends_restarts_with_budget_code(budget):
    data = simulate_dataset(random_params(33), 1000, seed=4)
    result = fit(data, FitConfig(restarts=3, max_iterations=budget, seed=6))
    assert [r.status for r in result.restarts] == [rec.Stop.BUDGET] * 3
    assert all(1 <= r.njev <= r.nfev <= budget for r in result.restarts)


def test_fit_noiseless_restarts_end_on_convergence():
    p = random_params(7)
    data = predict_observables(p, default_visibility_pairs(network_of(p)))
    result = fit(data, FitConfig(restarts=20, seed=11))
    assert result.restarts[-1].status != rec.Stop.BUDGET
    assert result.restarts[-1].cost <= 1e-12


def test_least_squares_stops_on_gradient_at_a_fitted_minimum():
    # restarted from a fit's best point, the first Jacobian already passes the gradient test
    data = simulate_dataset(random_params(2), 10000, seed=1)
    result = fit(data, FitConfig(restarts=5, seed=0))
    x = _parameter_vector(result.params.etas, result.params.phis)
    idx = rec._pair_index_arrays(data.visibility_pairs())
    again = rec.least_squares(x, data, idx, FitConfig(tolerance=1e-8))
    assert (again.status, again.nfev, again.njev) == (rec.Stop.GRADIENT, 1, 1)
    assert np.isclose(again.fun @ again.fun, result.residual, rtol=1e-12)


def test_fit_stops_early_and_records_only_the_restarts_run():
    p = random_params(7)
    data = predict_observables(p, default_visibility_pairs(network_of(p)))
    result = fit(data, FitConfig(restarts=20, seed=11, tolerance=1e-6))
    assert len(result.restarts) == result.restarts_used < 20


def test_fit_evaluates_residuals_only_for_steps(monkeypatch):
    # with the exact Jacobian no residual evaluation is spent on finite differences;
    # a stacked call evaluates one point per row of its fit vectors
    rows = []
    residuals = rec._residuals

    def counted(x, *args):
        rows.append(len(np.atleast_2d(x)))
        return residuals(x, *args)

    monkeypatch.setattr(rec, "_residuals", counted)
    data = simulate_dataset(random_params(32), 1000, seed=3)
    result = fit(data, FitConfig(restarts=2, max_iterations=80, seed=1))
    # the final objective compiles the result's circuit instead
    assert sum(rows) == sum(r.nfev for r in result.restarts)


def test_fit_never_worse_than_best_start():
    from bosonsim.circuit import wrap_phases

    data = simulate_dataset(random_params(30), 1000, seed=9)
    config = FitConfig(restarts=3, max_iterations=60, seed=77)
    result = fit(data, config)
    rng = np.random.default_rng(config.seed)
    start_objectives = []
    for _ in range(config.restarts):
        # as fit draws them: 8 etas and 11 phases, of which it keeps phi5-phi8
        etas, drawn = rng.uniform(0.05, 0.95, 8), rng.uniform(0.0, 2 * np.pi, 11)
        phis = np.zeros(11)
        phis[FIT_PHASES] = wrap_phases(drawn[FIT_PHASES])
        start_objectives.append(objective(CircuitParameters(tuple(etas), tuple(phis)), data))
    assert result.residual <= min(start_objectives) + 1e-12


def fit_starts(config) -> list[np.ndarray]:
    # the fit vectors of config's starts, drawn as fit draws them
    rng = np.random.default_rng(config.seed)
    return [_parameter_vector(rng.uniform(0.05, 0.95, 8), rng.uniform(0.0, 2 * np.pi, 11))
            for _ in range(config.restarts)]


def params_at(x) -> CircuitParameters:
    # the parameters fit reports for the end point x of its best restart
    phis = np.zeros(11)
    phis[FIT_PHASES] = rec.wrap_phases(x[8:])
    return CircuitParameters(tuple(np.sin(x[:8]) ** 2), tuple(phis))


@pytest.mark.parametrize("seed", range(10))
def test_fit_restarts_end_as_lone_least_squares_runs(seed):
    # the restarts advance as one stack, yet each ends bit for bit where it ends alone
    data = simulate_dataset(random_params(110 + seed), 10_000, seed=seed)
    config = FitConfig(restarts=6, seed=seed)
    idx = rec._pair_index_arrays(data.visibility_pairs())
    starts = fit_starts(config)
    alone = [rec.least_squares(x, data, idx, config) for x in starts]
    result = fit(data, config)
    assert [(r.cost, r.nfev, r.njev, r.status) for r in result.restarts] == [
        (float(a.fun @ a.fun), a.nfev, a.njev, a.status) for a in alone]
    stack = rec._lm_stack(np.array(starts), data, idx, config)
    assert np.array_equal(stack.x, [a.x for a in alone])
    assert np.array_equal(stack.fun, [a.fun for a in alone])
    best = min(range(len(alone)), key=lambda r: result.restarts[r].cost)
    assert result.params == params_at(alone[best].x)


def noiseless_cut_case():
    # restarts 0-3 of this fit miss the tolerance and restart 4 reaches it
    p = random_params(1)
    return predict_observables(p, default_visibility_pairs(network_of(p))), \
        FitConfig(restarts=20, seed=501)


def test_fit_stops_at_the_first_restart_that_reaches_tolerance(caplog):
    data, config = noiseless_cut_case()
    idx = rec._pair_index_arrays(data.visibility_pairs())
    for j, x in enumerate(fit_starts(config)):
        alone = rec.least_squares(x, data, idx, config)
        if alone.fun @ alone.fun <= config.tolerance:
            break
    assert j > 0
    caplog.set_level(logging.DEBUG, logger="bosonsim")
    result = fit(data, config)
    assert result.restarts_used == len(result.restarts) == j + 1
    assert result.restarts[-1].cost <= config.tolerance
    assert all(r.cost > config.tolerance for r in result.restarts[:-1])
    assert len([m for m in caplog.messages if m.startswith("fit restart")]) == j + 1


@pytest.mark.parametrize("stack", [1, 3, 7])
def test_fit_across_stack_boundaries_matches_one_stack(monkeypatch, stack):
    # restarts split over several stacks, with the last one cut short or the
    # tolerance reached in a later stack, end as in one stack of all of them
    cases = [(simulate_dataset(random_params(34), 1000, seed=5),
              FitConfig(restarts=8, max_iterations=60, seed=3)), noiseless_cut_case()]
    whole = [fit(data, config) for data, config in cases]
    assert whole[1].restarts_used == 5
    monkeypatch.setattr(rec, "RESTART_STACK", stack)
    for (data, config), one in zip(cases, whole):
        parts = fit(data, config)
        assert parts.restarts == one.restarts
        assert (parts.params, parts.residual) == (one.params, one.residual)


# ----------------------------------------------------------------------
# dataset simulation
# ----------------------------------------------------------------------

def test_simulate_deterministic():
    p = random_params(12)
    a = simulate_dataset(p, 5000, seed=42)
    b = simulate_dataset(p, 5000, seed=42)
    assert np.array_equal(a.singles, b.singles)
    assert np.array_equal(a.singles_sigma, b.singles_sigma)
    assert a.visibilities == b.visibilities


def test_simulate_high_count_limit():
    p = random_params(13)
    pairs = default_visibility_pairs(network_of(p))
    truth = predict_observables(p, pairs)
    noisy = simulate_dataset(p, 10**8, seed=5, visibility_pairs=pairs)
    assert np.max(np.abs(noisy.singles - truth.singles)) < 1e-3
    for got, want in zip(noisy.visibilities, truth.visibilities):
        assert abs(got.value - want.value) < 1e-3


def test_simulate_uncertainty_scaling():
    p = random_params(14)
    small = simulate_dataset(p, 10**4, seed=6)
    large = simulate_dataset(p, 10**6, seed=6)
    ratio = np.mean(small.singles_sigma) / np.mean(large.singles_sigma)
    assert 8.0 < ratio < 12.0
    v_ratio = np.mean([r.sigma for r in small.visibilities]) / np.mean(
        [r.sigma for r in large.visibilities]
    )
    assert 8.0 < v_ratio < 12.0


def test_simulate_singles_unbiased():
    p = random_params(15)
    truth = predict_observables(p, [])
    draws = np.zeros((1000, 5, 5))
    for k in range(1000):
        draws[k] = simulate_dataset(p, 10**4, seed=10_000 + k, visibility_pairs=[]).singles
    mean = draws.mean(axis=0)
    stderr = draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - truth.singles) <= 3.0 * stderr + 1e-12)


def test_simulate_columns_sum_to_one():
    p = random_params(16)
    data = simulate_dataset(p, 200, seed=8)
    assert np.allclose(data.singles.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(data.singles_sigma > 0)
    assert all(-1.0 <= r.value <= 1.0 for r in data.visibilities)
    assert all(r.sigma > 0 for r in data.visibilities)


def test_simulate_pair_without_classical_counts():
    # on the identity no path joins modes 1, 2 to 3, 4: the classical draw is 0
    data = rec.simulate_dataset_from_unitary(np.eye(5), 1000, 0, [((1, 2), (3, 4))])
    assert (data.visibilities[0].value, data.visibilities[0].sigma) == (0.0, 1.0)


@pytest.mark.parametrize("counts", [1, 3, 20_000, 10**8])
def test_simulate_matches_per_pair_loop(counts):
    for seed in range(3):
        u = network_of(random_params(90 + seed))
        pairs = default_visibility_pairs(u, 100)
        data = rec.simulate_dataset_from_unitary(u, counts, seed, pairs)
        got = [(r.value, r.sigma) for r in data.visibilities]
        assert got == simulated_visibilities_loop(u, counts, seed, pairs)
        assert data.visibility_pairs() == pairs


@pytest.mark.parametrize("simulate", [
    lambda u: rec.simulate_dataset_from_unitary(u, 1000, seed=1),
    lambda u: rec.simulate_dataset_from_unitary(u, 1000, seed=1, visibility_pairs=[]),
    lambda u: default_visibility_pairs(u, 10),
], ids=["default_pairs", "no_pairs", "pair_ranking"])
def test_simulate_rejects_non_unitary_matrix(simulate):
    with pytest.raises(ValueError, match=r"matrix is not unitary within 1e-08"):
        simulate(2 * np.eye(5))


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_dataset(random_params(17), 0, seed=1)


def test_simulate_counts_limit_names_the_field():
    # a mean above about 9.2e18 makes numpy's Poisson draw fail with "lam value too large"
    data = rec.simulate_dataset_from_unitary(np.eye(5), rec.COUNTS_LIMIT, 0, [])
    assert np.array_equal(data.singles, np.eye(5))
    for counts in (rec.COUNTS_LIMIT + 1, 10**19):
        with pytest.raises(ValueError, match=r"^counts_per_setting must be at most 10{18}$"):
            rec.simulate_dataset_from_unitary(np.eye(5), counts, 0, [])
    with pytest.raises(ValueError, match=r"^counts_per_setting must be at most"):
        simulate_dataset(random_params(17), 10**19, seed=1)


# ----------------------------------------------------------------------
# default pair selection
# ----------------------------------------------------------------------

def test_default_pairs_ranked_by_classical_rate():
    u = network_of(random_params(ALL_PAIRS_SEED))
    pairs = default_visibility_pairs(u, 40)
    assert len(pairs) == 40
    assert len(set(pairs)) == 40

    def classical(spec):
        (a, b), (c, d) = spec
        direct = u[c - 1, a - 1] * u[d - 1, b - 1]
        crossed = u[c - 1, b - 1] * u[d - 1, a - 1]
        return abs(direct) ** 2 + abs(crossed) ** 2

    rates = [classical(spec) for spec in pairs]
    assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
    everything = default_visibility_pairs(u, 100)
    assert len(everything) == 100
    assert min(classical(s) for s in pairs) >= max(
        classical(s) for s in everything[40:]
    ) - 1e-15


def test_default_pairs_match_scalar_loop():
    networks = [random_unitary(5, seed) for seed in range(200)]
    networks += [compile_circuit(random_circuit(seed)) for seed in range(200)]
    for u in networks:
        assert default_visibility_pairs(u, 100) == ranked_pairs_loop(u, 100)


def test_default_pairs_exact_ties_break_lexicographically():
    # every classical rate of the 5-mode DFT is 2/25, up to rounding noise
    k = np.arange(5)
    dft = np.exp(2j * np.pi * np.outer(k, k) / 5) / np.sqrt(5)
    everything = list(itertools.product(itertools.combinations(range(1, 6), 2), repeat=2))
    assert default_visibility_pairs(dft, 40) == everything[:40]


@pytest.mark.parametrize("count", [-5, -1, 101])
def test_default_pairs_count_out_of_range(count):
    with pytest.raises(ValueError):
        default_visibility_pairs(np.eye(5), count)


def test_default_pairs_count_bounds_inclusive():
    assert default_visibility_pairs(np.eye(5), 0) == []
    assert len(default_visibility_pairs(np.eye(5), 100)) == 100


def test_simulate_checks_each_chosen_pair_twice(monkeypatch):
    # the CLI's simulate: ranking scores the candidate pairs without checking
    # them; each chosen pair is checked for its index arrays and by its record
    calls = []
    pair_spec = rec._pair_spec

    def counted(*args):
        calls.append(1)
        return pair_spec(*args)

    monkeypatch.setattr(rec, "_pair_spec", counted)
    u = network_of(random_params(4))
    rec.simulate_dataset_from_unitary(u, 1000, 1, default_visibility_pairs(u, 40))
    assert len(calls) == 80


# ----------------------------------------------------------------------
# the fit's vector compiler and Jacobian
# ----------------------------------------------------------------------

def vector_of(params) -> np.ndarray:
    return _parameter_vector(params.etas, params.phis)


def fitted_network_of(params) -> np.ndarray:
    # the network with the seven phases outside the fit vector set to 0
    phis = np.zeros(11)
    phis[FIT_PHASES] = np.asarray(params.phis)[FIT_PHASES]
    return network_of(CircuitParameters(params.etas, tuple(phis)))


def test_vector_unitary_matches_compile_circuit():
    for seed in range(200):
        p = random_params(seed)
        assert len(vector_of(p)) == 12
        assert np.max(np.abs(rec._vector_unitary(vector_of(p)) - fitted_network_of(p))) < 1e-14


def test_vector_unitary_matches_compile_circuit_at_eta_corners():
    rng = np.random.default_rng(8)
    corners = [np.zeros(8), np.ones(8)] + [rng.integers(0, 2, 8).astype(float) for _ in range(30)]
    for etas in corners:
        p = CircuitParameters(tuple(etas), tuple(rng.uniform(0.0, 2 * np.pi, 11)))
        assert np.max(np.abs(rec._vector_unitary(vector_of(p)) - fitted_network_of(p))) < 1e-14


def interior_point(seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _parameter_vector(rng.uniform(0.1, 0.9, 8), rng.uniform(0.0, 2 * np.pi, 11))


def assert_jacobian_matches_differences(x, data, sides=None):
    # central differences in theta and phi, or one-sided ones toward sides
    idx = rec._pair_index_arrays(data.visibility_pairs())
    exact = rec._jacobian(x, data, idx)

    def residuals(y):
        return rec._residuals(y, data, idx)

    if sides is None:
        numeric = central_differences(residuals, x, h=1e-6)
    else:
        numeric = one_sided_differences(residuals, x, sides, h=1e-6)
    assert exact.shape == numeric.shape == (25 + len(data.visibilities), 12)
    assert np.all(np.isfinite(exact))
    assert np.max(np.abs(exact - numeric)) <= 1e-6 * np.max(np.abs(numeric))
    return exact


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_differences_noisy_data(seed):
    data = simulate_dataset(random_params(40 + seed), 10_000, seed=seed)
    assert_jacobian_matches_differences(interior_point(seed), data)


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_differences_unit_weights(seed):
    p = random_params(50 + seed)
    data = predict_observables(p, default_visibility_pairs(network_of(p)))
    assert np.all(data.singles_sigma == 0) and all(r.sigma == 0 for r in data.visibilities)
    assert_jacobian_matches_differences(interior_point(10 + seed), data)


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_differences_singles_only(seed):
    data = simulate_dataset(random_params(60 + seed), 10_000, seed=seed, visibility_pairs=[])
    assert_jacobian_matches_differences(interior_point(20 + seed), data)


def test_jacobian_row_is_zero_for_undefined_pair():
    # inputs 1, 2 reach outputs 4, 5 only through couplers 3 and 6, so making
    # both weak leaves (1, 2) -> (4, 5) with a classical rate below the floor
    x = interior_point(30)
    x[2] = x[5] = np.arcsin(np.sqrt(5e-4))
    pairs = [((1, 2), (4, 5))] + default_visibility_pairs(rec._vector_unitary(x), 10)
    records = tuple(VisibilityRecord(i, o, 0.3, 0.02) for i, o in pairs)
    data = MeasurementDataset(np.full((5, 5), 0.2), np.full((5, 5), 0.01), records)
    _, classical = rec._two_photon_rates(rec._vector_unitary(x), rec._pair_index_arrays(pairs))
    assert classical[0] < rec.CLASSICAL_RATE_FLOOR < classical[1:].min()
    exact = assert_jacobian_matches_differences(x, data)
    assert np.all(exact[25] == 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_jacobian_finite_and_one_sided_at_eta_zero_and_one(seed):
    # two couplers at eta = 0 and two at eta = 1 exactly; the Jacobian there is
    # finite and matches the one-sided differences that keep theta in [0, pi/2]
    rng = np.random.default_rng(70 + seed)
    etas = rng.uniform(0.1, 0.9, 8)
    ends = rng.permutation(8)[:4]
    etas[ends[:2]], etas[ends[2:]] = 0.0, 1.0
    x = _parameter_vector(etas, rng.uniform(0.0, 2 * np.pi, 11))
    assert np.array_equal(np.sin(x[:8]) ** 2 == 1.0, etas == 1.0)
    u = rec._vector_unitary(x)
    pairs = default_visibility_pairs(u, 10)
    _, classical = rec._two_photon_rates(u, rec._pair_index_arrays(pairs))
    assert classical.min() > rec.CLASSICAL_RATE_FLOOR
    data = rec.simulate_dataset_from_unitary(u, 10_000, seed, pairs)
    sides = np.concatenate([np.where(etas == 1.0, -1.0, 1.0), np.ones(4)])
    assert_jacobian_matches_differences(x, data, sides)


def test_stacked_forward_model_equals_lone_rows():
    # each row of a stack, including all couplers at eta = 0 or 1 (undefined
    # pairs, penalized), gives bit for bit what the row gives alone
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(0.0, np.pi / 2, (6, 8)), rng.uniform(-7.0, 7.0, (6, 4))],
                       axis=1)
    x[0, :8], x[1, :8] = 0.0, np.pi / 2
    data = simulate_dataset(random_params(35), 10_000, seed=2)
    idx = rec._pair_index_arrays(data.visibility_pairs())
    u, du = rec._unitary_jacobian(x)
    res, jac = rec._residuals(x, data, idx), rec._jacobian(x, data, idx)
    assert u.shape == (6, 5, 5) and du.shape == (6, 12, 5, 5)
    assert res.shape == (6, 65) and jac.shape == (6, 65, 12)
    assert np.array_equal(rec._vector_unitary(x), u)
    assert np.any(res[0, 25:] == np.sqrt(rec.UNDEFINED_PENALTY))
    for r, row in enumerate(x):
        lone_u, lone_du = rec._unitary_jacobian(row)
        assert np.array_equal(rec._vector_unitary(row), u[r])
        assert np.array_equal(lone_u, u[r]) and np.array_equal(lone_du, du[r])
        assert np.array_equal(rec._residuals(row, data, idx), res[r])
        assert np.array_equal(rec._jacobian(row, data, idx), jac[r])
    # two stack axes; and a 19-entry vector (8 thetas, 11 phases) reads its first 12
    assert np.array_equal(rec._residuals(x.reshape(2, 3, 12), data, idx), res.reshape(2, 3, 65))
    assert np.array_equal(rec._jacobian(x.reshape(3, 2, 12), data, idx), jac.reshape(3, 2, 65, 12))
    assert np.array_equal(rec._residuals(np.concatenate([x[2], rng.uniform(0, 6, 7)]), data, idx),
                          res[2])


def test_stacked_jacobian_matches_differences_with_eta_corners():
    # a stack whose rows put couplers at eta = 0 and eta = 1 exactly: each row
    # of the stacked Jacobian matches central differences of the stacked
    # residuals in that row's entries, which move no other row
    x = np.array([interior_point(90 + r) for r in range(4)])
    x[1, [0, 4]] = 0.0
    x[2, [3, 6]] = np.pi / 2
    x[3, [1, 7]], x[3, [2, 5]] = 0.0, np.pi / 2
    u = rec._vector_unitary(x)
    # the 10 pairs whose smallest classical rate over the rows is largest
    _, classical = rec._two_photon_rates(u, rec._CANDIDATE_INDEX)
    order = np.argsort(-classical.min(axis=0))[:10]
    assert classical[:, order].min() > rec.CLASSICAL_RATE_FLOOR
    pairs = [rec._CANDIDATE_PAIRS[j] for j in order]
    data = rec.simulate_dataset_from_unitary(u[0], 10_000, 3, pairs)
    idx = rec._pair_index_arrays(pairs)
    exact = rec._jacobian(x, data, idx)
    assert exact.shape == (4, 35, 12) and np.all(np.isfinite(exact))
    for r in range(len(x)):
        def residuals(y):
            stack = x.copy()
            stack[r] = y
            return rec._residuals(stack, data, idx).ravel()

        numeric = central_differences(residuals, x[r], h=1e-6).reshape(4, 35, 12)
        assert np.all(np.delete(numeric, r, axis=0) == 0.0)
        assert np.max(np.abs(exact[r] - numeric[r])) <= 1e-6 * np.max(np.abs(numeric[r]))


def test_jacobian_has_full_column_rank():
    # no direction of the fit vector leaves every observable unchanged, with
    # visibility data and with singles alone: the smallest singular value is
    # at least 8e-3 of the largest at these points, and 0 for the 19 parameters
    for seed in range(10):
        x = interior_point(80 + seed)
        for pairs in (None, []):
            data = simulate_dataset(random_params(80 + seed), 10_000, seed=seed,
                                    visibility_pairs=pairs)
            jac = rec._jacobian(x, data, rec._pair_index_arrays(data.visibility_pairs()))
            s = np.linalg.svd(jac, compute_uv=False)
            assert len(s) == 12 and s[-1] > 1e-4 * s[0]


def gauge_mismatch(u_fit, u) -> float:
    # max |u_fit - D1 u D2| with D1, D2 read off u_fit * conj(u) = d1[j] d2[k] |u[j, k]|^2;
    # output 5 and input 1 reach every mode, so row 4 and column 0 have no zeros
    w = u_fit * u.conj()
    d2 = w[4] / np.abs(w[4])
    d1 = w[:, 0] / np.abs(w[:, 0]) / d2[0]
    return float(np.max(np.abs(u_fit - d1[:, None] * u * d2)))


def test_noiseless_fit_recovers_network_up_to_input_and_output_phases():
    # singles and visibilities are also unchanged by u -> conj(u), so the fit
    # finds one of the two, each up to D1 u D2
    for seed in range(6):
        p = random_params(seed)
        u = network_of(p)
        data = predict_observables(p, default_visibility_pairs(u))
        result = fit(data, FitConfig(restarts=20, seed=500 + seed))
        u_fit = network_of(result.params)
        assert min(gauge_mismatch(u_fit, u), gauge_mismatch(u_fit, u.conj())) < 1e-12
        assert np.max(np.abs(np.subtract(result.params.etas, p.etas))) < 1e-12


@pytest.mark.parametrize(
    "pair, message",
    [
        (((1, 6), (1, 2)), r"outside 1\.\.5"),
        (((1, 2), (0, 2)), r"outside 1\.\.5"),
        (((3, 3), (1, 2)), "distinct"),
        (((1, 2), (5, 5)), "distinct"),
        (((1.9, 2), (3, 4)), r"input modes must be integers, got \(1\.9, 2\)"),
        (((1, 2, 3), (1, 2)), "needs two input and two output modes"),
    ],
)
def test_pair_index_arrays_rejects_bad_pairs(pair, message):
    with pytest.raises(ValueError, match=message):
        rec._pair_index_arrays([((1, 2), (1, 2)), pair])
    with pytest.raises(ValueError, match=message):
        predict_observables(random_params(1), [pair])


def test_parameter_phase_count():
    with pytest.raises(ValueError, match="expected 11 phases, got 10"):
        CircuitParameters((0.5,) * 8, (0.0,) * 10)
    with pytest.raises(ValueError, match="expected 8 reflectivities, got 9"):
        CircuitParameters((0.5,) * 9, (0.0,) * 11)


@pytest.mark.parametrize("field", ["singles", "singles_sigma", "visibilities sigma"])
def test_dataset_rejects_negative_values(field):
    singles, sigma = np.full((5, 5), 0.2), np.full((5, 5), 0.01)
    v_sigma = 0.01
    if field == "singles":
        singles[2, 3] = -0.1
    elif field == "singles_sigma":
        sigma[2, 3] = -0.01
    else:
        v_sigma = -0.01
    with pytest.raises(ValueError, match=f"{field} values must be finite and nonnegative"):
        MeasurementDataset(singles, sigma, (VisibilityRecord((1, 2), (1, 2), 0.5, v_sigma),))


@pytest.mark.parametrize("singles_shape, sigma_shape", [((4, 5), (4, 5)), ((5, 5), (5, 4))])
def test_dataset_rejects_wrong_shape(singles_shape, sigma_shape):
    with pytest.raises(ValueError, match="singles blocks must be 5 x 5"):
        MeasurementDataset(np.full(singles_shape, 0.2), np.full(sigma_shape, 0.01), ())


def test_simulate_rejects_non_five_mode_matrix():
    with pytest.raises(ValueError, match=r"expected a 5 x 5 matrix, got shape \(4, 4\)"):
        rec.simulate_dataset_from_unitary(random_unitary(4, 1), 1000, seed=1)


def test_dataset_accepts_negative_visibility():
    data = MeasurementDataset(
        np.full((5, 5), 0.2), np.full((5, 5), 0.01), (VisibilityRecord((1, 2), (1, 2), -0.4, 0.01),)
    )
    assert data.visibilities[0].value == -0.4


@pytest.mark.parametrize(
    "in_pair, out_pair, value, sigma, message",
    [
        ((1, 1), (2, 3), 0.5, 0.01, "input modes must be distinct"),
        ((1, 2), (3, 4), 5.0, 0.1, r"visibility 5\.0 outside \[-1, 1\]"),
        ((1, 2), (3, 4), -1.5, 0.1, r"visibility -1\.5 outside \[-1, 1\]"),
        ((1, 2), (3, 4), np.nan, 0.1, r"visibility nan outside \[-1, 1\]"),
        ((1, 2), (3, 4), 0.5, np.nan, "visibilities sigma values must be finite and nonnegative"),
    ],
)
def test_visibility_record_checks_itself(in_pair, out_pair, value, sigma, message):
    with pytest.raises(ValueError, match=message):
        VisibilityRecord(in_pair, out_pair, value, sigma)


def test_visibility_record_normalizes_its_pair():
    record = VisibilityRecord([np.int64(1), 2.0], (3, 4), -1.0, 0.0)
    assert (record.in_pair, record.out_pair) == ((1, 2), (3, 4))
    assert all(type(x) is int for x in record.in_pair + record.out_pair)
