import itertools
import math

import numpy as np
import pytest
from oracles import rate_pair_sum

import bosonsim.interference as interference
import bosonsim.permanent as permanent_module
from bosonsim import (
    DEFAULT_SIGMA_FS,
    DelayConfig,
    SizeLimitError,
    UndefinedVisibilityError,
    coincidence_rate,
    compile_circuit,
    hom_scan,
    overlap_from_delays,
    permanent_naive,
    random_circuit,
    random_unitary,
    transition_probability,
    visibility,
)

BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


# ----------------------------------------------------------------------
# overlap model
# ----------------------------------------------------------------------

def test_equal_delays_give_all_ones():
    s = overlap_from_delays(DelayConfig((3.0, 3.0, 3.0), 10.0))
    assert np.array_equal(s, np.ones((3, 3), dtype=complex))


def test_overlap_at_two_sigma():
    s = overlap_from_delays(DelayConfig((0.0, 20.0), 10.0))
    assert np.isclose(s[0, 1].real, math.exp(-1.0), rtol=0, atol=1e-15)


def test_far_delay_is_distinguishable():
    s = overlap_from_delays(DelayConfig((0.0, 0.0, 1e6 * 10.0), 10.0))
    assert np.all(np.abs(s[2, :2]) < 1e-100)
    assert np.all(np.abs(s[:2, 2]) < 1e-100)


def test_delay_config_validation():
    with pytest.raises(ValueError):
        DelayConfig((0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        DelayConfig((0.0, 1.0), -2.0)
    with pytest.raises(ValueError):
        DelayConfig((), 1.0)


def test_default_sigma_matches_filter_math():
    c_nm_fs = 299.792458
    dnu = c_nm_fs * 3.0 / 789.0**2
    fwhm_t = 2.0 * math.log(2.0) / math.pi / dnu
    assert np.isclose(DEFAULT_SIGMA_FS, fwhm_t / (2.0 * math.sqrt(2.0 * math.log(2.0))))
    assert 120.0 < DEFAULT_SIGMA_FS < 140.0


# ----------------------------------------------------------------------
# coincidence rates
# ----------------------------------------------------------------------

def _random_modes(rng, m, n):
    return tuple(int(x) + 1 for x in rng.choice(m, size=n, replace=False))


def _unit_diagonal_gram(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = g @ g.conj().T
    d = np.sqrt(np.real(np.diagonal(gram)))
    return gram / np.outer(d, d)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3), (5, 3), (10, 8)])
def test_all_ones_limit_is_quantum_rate(m, n):
    rng = np.random.default_rng(m * 10 + n)
    for trial in range(5):
        u = random_unitary(m, 50 * m + trial)
        ins = _random_modes(rng, m, n)
        outs = _random_modes(rng, m, n)
        rate = coincidence_rate(u, ins, outs, np.ones((n, n)))
        inp = tuple(1 if k + 1 in ins else 0 for k in range(m))
        out = tuple(1 if k + 1 in outs else 0 for k in range(m))
        assert abs(rate - transition_probability(u, inp, out)) <= 1e-10


@pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 3), (10, 8)])
def test_identity_limit_is_classical_rate(m, n):
    rng = np.random.default_rng(m + n)
    for trial in range(5):
        u = random_unitary(m, 60 * m + trial)
        ins = _random_modes(rng, m, n)
        outs = _random_modes(rng, m, n)
        rate = coincidence_rate(u, ins, outs, np.eye(n))
        sub = u[np.ix_([o - 1 for o in outs], [i - 1 for i in ins])]
        classical = permanent_naive(np.abs(sub) ** 2).real
        assert abs(rate - classical) <= 1e-10


def test_balanced_coupler_bunching():
    assert coincidence_rate(BALANCED, (1, 2), (1, 2), np.ones((2, 2))) <= 1e-12


def test_rate_nonnegative_for_random_psd_overlaps():
    rng = np.random.default_rng(123)
    for n, m in ((2, 4), (3, 5), (4, 5)):
        u = random_unitary(m, n)
        ins = _random_modes(rng, m, n)
        outs = _random_modes(rng, m, n)
        for _ in range(5):
            rate = coincidence_rate(u, ins, outs, _unit_diagonal_gram(rng, n))
            assert rate >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rate_matches_pair_sum_oracle(n):
    rng = np.random.default_rng(700 + n)
    m = n + 3
    for trial in range(2):
        u = random_unitary(m, 10 * n + trial)
        ins = _random_modes(rng, m, n)
        outs = _random_modes(rng, m, n)
        a = u[np.ix_([o - 1 for o in outs], [i - 1 for i in ins])]
        delays = DelayConfig(tuple(rng.normal(0.0, 100.0, n)), 100.0)
        overlaps = [
            _unit_diagonal_gram(rng, n),
            _unit_diagonal_gram(rng, n),
            overlap_from_delays(delays),
            np.ones((n, n)),
            np.eye(n),
        ]
        for s in overlaps:
            expected = rate_pair_sum(a, s)
            assert abs(expected.imag) <= 1e-12
            assert abs(coincidence_rate(u, ins, outs, s) - expected.real) <= 1e-12


def test_rate_interpolates_monotonically():
    sigma = 100.0
    taus = np.linspace(0.0, 5 * sigma, 30)
    rates = [
        coincidence_rate(
            BALANCED, (1, 2), (1, 2), overlap_from_delays(DelayConfig((0.0, t), sigma))
        )
        for t in taus
    ]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert rates[0] <= 1e-12
    assert np.isclose(rates[-1], 0.5, atol=1e-5)


def test_rate_input_validation():
    with pytest.raises(ValueError):
        coincidence_rate(BALANCED, (1, 1), (1, 2), np.ones((2, 2)))
    with pytest.raises(ValueError):
        coincidence_rate(BALANCED, (1, 2), (1, 3), np.ones((2, 2)))
    with pytest.raises(SizeLimitError):
        coincidence_rate(np.eye(9), range(1, 10), range(1, 10), np.ones((9, 9)))
    with pytest.raises(ValueError):
        coincidence_rate(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 2), (1, 2), np.ones((2, 2)))


def test_overlap_matrix_validation():
    u = random_unitary(3, 3)
    bad_hermitian = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        coincidence_rate(u, (1, 2), (1, 2), bad_hermitian)
    bad_diag = np.array([[0.9, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        coincidence_rate(u, (1, 2), (1, 2), bad_diag)
    rho = -0.9
    bad_psd = (1 - rho) * np.eye(3) + rho * np.ones((3, 3))
    with pytest.raises(ValueError):
        coincidence_rate(u, (1, 2, 3), (1, 2, 3), bad_psd)


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

def test_two_photon_scan_closed_form():
    sigma = 150.0
    taus = np.linspace(-4 * sigma, 4 * sigma, 101)
    configs = [DelayConfig((0.0, t), sigma) for t in taus]
    result = hom_scan(BALANCED, (1, 2), (1, 2), configs)
    for (cfg, rate), tau in zip(result, taus):
        expected = 0.5 * (1.0 - math.exp(-(tau**2) / (2.0 * sigma**2)))
        assert abs(rate - expected) <= 1e-10
    # symmetric in the delay
    rates = [rate for _, rate in result]
    assert all(abs(a - b) <= 1e-12 for a, b in zip(rates, rates[::-1]))


def test_three_photon_joint_scan_dips_at_zero():
    u = compile_circuit(random_circuit(1))
    sigma = DEFAULT_SIGMA_FS
    taus = np.linspace(-400.0, 400.0, 41)
    configs = [DelayConfig((0.0, t, t), sigma) for t in taus]
    rates = [rate for _, rate in hom_scan(u, (3, 4, 5), (2, 4, 5), configs)]
    assert int(np.argmin(rates)) == len(taus) // 2
    assert min(rates) < 0.8 * max(rates)


def _count_unitarity_checks(monkeypatch):
    calls = []
    real = interference.is_unitary

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(interference, "is_unitary", counted)
    return calls


def test_scan_validates_network_once(monkeypatch):
    u = random_unitary(6, 31)
    ins, outs = (1, 3, 4), (2, 5, 6)
    configs = [
        DelayConfig((0.0, tau, -0.5 * tau), 120.0) for tau in np.linspace(-300.0, 300.0, 21)
    ]
    calls = _count_unitarity_checks(monkeypatch)
    result = hom_scan(u, ins, outs, configs)
    assert len(calls) == 1
    assert [cfg for cfg, _ in result] == configs
    for cfg, rate in result:
        assert abs(rate - coincidence_rate(u, ins, outs, overlap_from_delays(cfg))) <= 1e-12


def test_scan_rejects_bad_overlap_at_its_grid_point():
    good = [DelayConfig((0.0, tau), 100.0) for tau in (-50.0, 0.0, 50.0)]
    bad = DelayConfig((0.0, 10.0, 20.0), 100.0)
    consumed = []

    def grid():
        for cfg in good + [bad] + good:
            consumed.append(cfg)
            yield cfg

    with pytest.raises(ValueError, match="overlap matrix must be 2 x 2"):
        hom_scan(BALANCED, (1, 2), (1, 2), grid())
    assert consumed == good + [bad]


# ----------------------------------------------------------------------
# visibilities
# ----------------------------------------------------------------------

def test_balanced_coupler_visibility_is_one():
    assert np.isclose(visibility(BALANCED, (1, 2), (1, 2)), 1.0, atol=1e-12)


def test_identity_network_visibility_is_zero():
    assert np.isclose(visibility(np.eye(2), (1, 2), (1, 2)), 0.0, atol=1e-12)


def test_unbalanced_coupler_visibility():
    t, r = math.sqrt(0.8), math.sqrt(0.2)
    coupler = np.array([[t, 1j * r], [1j * r, t]])
    expected = 2 * 0.8 * 0.2 / (0.8**2 + 0.2**2)
    assert np.isclose(visibility(coupler, (1, 2), (1, 2)), expected, atol=1e-12)


def test_visibility_undefined_when_classical_rate_vanishes():
    with pytest.raises(UndefinedVisibilityError):
        visibility(np.eye(3), (1, 3), (1, 2))


def test_visibility_equals_relative_dip_depth():
    # V should be the depth of an actual delay scan: 1 - rate(0)/rate(infinity)
    sigma = 100.0
    for seed in range(5):
        u = compile_circuit(random_circuit(40 + seed))
        for in_pair, out_pair in itertools.islice(
            itertools.product(itertools.combinations(range(1, 6), 2), repeat=2), 7
        ):
            zero = overlap_from_delays(DelayConfig((0.0, 0.0), sigma))
            far = overlap_from_delays(DelayConfig((0.0, 1e6 * sigma), sigma))
            rate_zero = coincidence_rate(u, in_pair, out_pair, zero)
            rate_far = coincidence_rate(u, in_pair, out_pair, far)
            if rate_far > 1e-12:
                assert np.isclose(
                    visibility(u, in_pair, out_pair), 1.0 - rate_zero / rate_far, atol=1e-10
                )


def test_visibility_accepts_iterators():
    u = random_unitary(4, 17)
    expected = visibility(u, (1, 2), (3, 4))
    assert visibility(u, iter((1, 2)), iter((3, 4))) == expected
    assert visibility(u, (m for m in (1, 2)), [3, 4]) == expected
    with pytest.raises(ValueError, match="needs two input and two output modes"):
        visibility(u, iter((1, 2, 3)), (3, 4))


def test_visibility_validates_network_once(monkeypatch):
    calls = _count_unitarity_checks(monkeypatch)
    visibility(random_unitary(4, 18), (1, 2), (3, 4))
    assert len(calls) == 1


def _forbid(monkeypatch, module, name):
    def forbidden(*_args):
        raise AssertionError(f"{module.__name__}.{name} was called")

    monkeypatch.setattr(module, name, forbidden)


def test_visibility_is_the_closed_form(monkeypatch):
    _forbid(monkeypatch, permanent_module, "_glynn")
    _forbid(monkeypatch, interference, "_rate")
    assert np.isclose(visibility(BALANCED, (1, 2), (1, 2)), 1.0, atol=1e-12)


def test_rates_compute_no_permanent(monkeypatch):
    _forbid(monkeypatch, permanent_module, "_glynn")
    u = random_unitary(10, 4)
    assert coincidence_rate(u, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10), np.ones((5, 5))) > 0.0
    grid = [DelayConfig((0.0, 0.0, d), 100.0) for d in (-50.0, 0.0, 50.0)]
    assert len(hom_scan(u, (1, 2, 3), (4, 5, 6), grid)) == 3


@pytest.mark.parametrize("overlap, message", [
    (2j, "rate has imaginary residue 2.0"),
    (-2.0, "rate is negative beyond tolerance: -2.0"),
])
def test_rate_rejects_an_unphysical_permanent_sum(monkeypatch, overlap, message):
    # with the overlap checks bypassed, one photon through a unit amplitude has rate S[0, 0]
    monkeypatch.setattr(interference, "_check_overlap", lambda s, n: np.asarray(s, dtype=complex))
    with pytest.raises(ValueError, match=message):
        coincidence_rate(np.eye(2), (1,), (1,), [[overlap]])


def test_non_integer_modes_are_rejected():
    u = random_unitary(4, 3)
    with pytest.raises(ValueError, match=r"input modes must be integers, got \(1\.9, 2\.2\)"):
        coincidence_rate(u, [1.9, 2.2], [3, 4], np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"output modes must be integers, got \(3, 4\.5\)"):
        coincidence_rate(u, [1, 2], [3, 4.5], np.ones((2, 2)))


def test_integral_modes_of_any_numeric_type_are_accepted():
    u = random_unitary(4, 3)
    s = np.ones((2, 2))
    expected = coincidence_rate(u, [1, 2], [3, 4], s)
    assert coincidence_rate(u, [1.0, np.int64(2)], (np.float64(3.0), 4), s) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_overlap_is_rejected(bad):
    s = np.ones((2, 2), dtype=complex)
    s[0, 1] = s[1, 0] = bad
    with pytest.raises(ValueError, match="overlap entries must be finite"):
        coincidence_rate(random_unitary(4, 3), [1, 2], [3, 4], s)


@pytest.mark.parametrize("delay", [np.nan, np.inf, -np.inf])
def test_delay_config_rejects_non_finite_delay(delay):
    with pytest.raises(ValueError, match="delays must be finite"):
        DelayConfig((0.0, delay), 100.0)


@pytest.mark.parametrize(
    "in_modes, out_modes, overlap, message",
    [
        ((), (), np.ones((0, 0)), "need at least one input mode"),
        ((1, 2), (), np.ones((2, 2)), "need at least one output mode"),
        ((1, 2), (1, 2, 3), np.ones((2, 2)), "input and output mode counts must match"),
        ((1, 2), (3, 4), np.array([[1.0, 1.5], [1.5, 1.0]]), "overlap magnitudes cannot exceed 1"),
        ((np.inf, 1), (3, 4), np.ones((2, 2)), r"input modes must be integers, got \(inf, 1\)"),
        ((1, 2), (3, np.nan), np.ones((2, 2)), r"output modes must be integers, got \(3, nan\)"),
    ],
)
def test_rate_rejects_bad_modes_and_overlaps(in_modes, out_modes, overlap, message):
    with pytest.raises(ValueError, match=message):
        coincidence_rate(random_unitary(4, 3), in_modes, out_modes, overlap)
