import math

import numpy as np
import pytest
from oracles import brute_force_distribution, compositions

import bosonsim.fock as fock
from bosonsim import (
    CapacityError,
    DegeneratePostselectionError,
    SizeLimitError,
    build_submatrix,
    collision_free_distribution,
    enumerate_basis,
    full_distribution,
    random_unitary,
    sample,
    transition_probability,
)
from bosonsim.permanent import RYSER_LIMIT

BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


# ----------------------------------------------------------------------
# basis enumeration
# ----------------------------------------------------------------------

def test_basis_counts_match_binomial():
    assert len(enumerate_basis(5, 3)) == math.comb(7, 3)
    assert len(enumerate_basis(4, 2)) == math.comb(5, 2)


def test_basis_vacuum():
    assert enumerate_basis(3, 0) == [(0, 0, 0)]


@pytest.mark.parametrize("m,n", [(1, 0), (1, 4), (3, 0), (4, 3), (6, 5), (12, 3)])
def test_basis_order_and_contents(m, n):
    states = enumerate_basis(m, n)
    assert states[0] == (n,) + (0,) * (m - 1)
    assert states[-1] == (0,) * (m - 1) + (n,)
    # oracle: every occupation tuple summing to n, lexicographically decreasing
    oracle = sorted(compositions(n, m), reverse=True)
    assert states == oracle


def test_basis_stable_across_calls():
    assert enumerate_basis(5, 3) == enumerate_basis(5, 3)


def test_basis_guard():
    with pytest.raises(CapacityError):
        enumerate_basis(3000, 3)


def test_basis_validation():
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        enumerate_basis(3, -1)


@pytest.mark.parametrize(
    "m, n, message",
    [
        (2.5, 2, "mode count must be a positive integer, got 2.5"),
        (np.inf, 2, "mode count must be a positive integer, got inf"),
        (3, 1.5, "photon number must be a nonnegative integer, got 1.5"),
        (3, np.nan, "photon number must be a nonnegative integer, got nan"),
    ],
)
def test_basis_rejects_non_integer_sizes(m, n, message):
    with pytest.raises(ValueError, match=message):
        enumerate_basis(m, n)


def test_basis_accepts_integral_floats():
    assert enumerate_basis(3.0, np.int64(2)) == enumerate_basis(3, 2)


# ----------------------------------------------------------------------
# submatrix construction
# ----------------------------------------------------------------------

def test_submatrix_worked_example():
    # rows duplicated by outputs after columns by inputs: picks [[d, e], [g, h]]
    u = np.arange(9, dtype=complex).reshape(3, 3)
    sub = build_submatrix(u, (1, 1, 0), (0, 1, 1))
    assert np.array_equal(sub, np.array([[3, 4], [6, 7]], dtype=complex))


def test_submatrix_identity_occupations():
    u = random_unitary(4, 1)
    assert np.array_equal(build_submatrix(u, (1, 1, 1, 1), (1, 1, 1, 1)), u)


def test_submatrix_bunched_input():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    sub = build_submatrix(np.array([[a, b], [c, d]]), (2, 0), (1, 1))
    assert np.array_equal(sub, np.array([[a, a], [c, c]], dtype=complex))


def test_submatrix_single_occupancy_is_plain_submatrix():
    u = random_unitary(5, 9)
    sub = build_submatrix(u, (1, 0, 1, 0, 0), (0, 1, 0, 0, 1))
    assert np.array_equal(sub, u[np.ix_([1, 4], [0, 2])])


def test_submatrix_errors():
    u = np.eye(3)
    with pytest.raises(ValueError):
        build_submatrix(u, (1, 1, 0), (1, 0, 0))  # photon mismatch
    with pytest.raises(ValueError):
        build_submatrix(u, (1, 1), (1, 1))  # length mismatch
    with pytest.raises(ValueError):
        build_submatrix(u, (0, 0, 0), (0, 0, 0))  # no photons


# ----------------------------------------------------------------------
# transition probabilities
# ----------------------------------------------------------------------

def test_worked_example_probability():
    # P((1,1,0) -> (0,1,1)) = |Per([[d, e], [g, h]])|^2 = |d*h + e*g|^2
    u = random_unitary(3, 21)
    d, e, g, h = u[1, 0], u[1, 1], u[2, 0], u[2, 1]
    p = transition_probability(u, (1, 1, 0), (0, 1, 1))
    assert np.isclose(p, abs(d * h + e * g) ** 2, atol=1e-12, rtol=0)
    # and the independent propagation oracle agrees
    oracle = brute_force_distribution(u, (1, 1, 0))
    assert np.isclose(p, oracle[(0, 1, 1)], atol=1e-12, rtol=0)


def test_balanced_coupler_suppression_and_bunching():
    assert transition_probability(BALANCED, (1, 1), (1, 1)) <= 1e-12
    assert np.isclose(transition_probability(BALANCED, (1, 1), (2, 0)), 0.5, atol=1e-12)


def test_transition_rejects_non_unitary():
    with pytest.raises(ValueError):
        transition_probability(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 0), (0, 1))


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------

def test_full_distribution_identity():
    dist = full_distribution(np.eye(3), (2, 0, 1))
    for state, p in dist.outcomes():
        assert np.isclose(p, 1.0 if state == (2, 0, 1) else 0.0, atol=1e-14)


def test_full_distribution_balanced_coupler():
    dist = full_distribution(BALANCED, (1, 1))
    assert np.isclose(dist.probability_of((2, 0)), 0.5, atol=1e-12)
    assert np.isclose(dist.probability_of((0, 2)), 0.5, atol=1e-12)
    assert dist.probability_of((1, 1)) <= 1e-12


def test_full_distribution_normalized():
    u = random_unitary(5, 33)
    dist = full_distribution(u, (0, 0, 1, 1, 1))
    assert len(dist.states) == 35
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("m,n,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 3, 3)])
def test_full_distribution_matches_oracle(m, n, seed):
    u = random_unitary(m, seed)
    rng = np.random.default_rng(seed)
    basis = enumerate_basis(m, n)
    inp = basis[rng.integers(len(basis))]
    dist = full_distribution(u, inp)
    oracle = brute_force_distribution(u, inp)
    for state, p in dist.outcomes():
        assert abs(p - oracle.get(state, 0.0)) <= 1e-9


def test_collision_free_counts_and_exact_renormalization():
    u = random_unitary(5, 4)
    full = full_distribution(u, (0, 0, 1, 1, 1))
    cf = collision_free_distribution(u, (0, 0, 1, 1, 1))
    assert len(cf.states) == 10
    assert all(max(s) <= 1 for s in cf.states)
    for state, p in cf.outcomes():
        # exactly the full probability divided by the recorded mass
        assert p == full.probability_of(state) / cf.normalization


def test_collision_free_identity():
    cf = collision_free_distribution(np.eye(3), (1, 1, 0))
    for state, p in cf.outcomes():
        assert p == (1.0 if state == (1, 1, 0) else 0.0)
    assert cf.normalization == 1.0


def test_probability_of_a_state_outside_the_distribution():
    dist = collision_free_distribution(random_unitary(3, 2), (1, 1, 0))
    with pytest.raises(KeyError, match=r"state \(2, 0, 0\) not in distribution"):
        dist.probability_of((2, 0, 0))


def test_collision_free_degenerate():
    with pytest.raises(DegeneratePostselectionError):
        collision_free_distribution(BALANCED, (1, 1))


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def test_sample_identity_network():
    states = sample(np.eye(2), (1, 0), count=100, seed=5)
    assert states == [(1, 0)] * 100


def test_sample_deterministic():
    u = random_unitary(4, 8)
    a = sample(u, (1, 1, 0, 0), count=50, seed=123)
    b = sample(u, (1, 1, 0, 0), count=50, seed=123)
    assert a == b


def test_sample_balanced_coupler_frequencies():
    states = sample(BALANCED, (1, 1), count=10_000, seed=7)
    counts = {s: states.count(s) for s in set(states)}
    assert counts.get((1, 1), 0) == 0
    assert abs(counts[(2, 0)] / 10_000 - 0.5) < 0.02
    assert abs(counts[(0, 2)] / 10_000 - 0.5) < 0.02
    from scipy.stats import chisquare

    result = chisquare([counts[(2, 0)], counts[(0, 2)]])
    assert result.pvalue > 0.001


def test_sample_total_variation_convergence():
    u = random_unitary(5, 11)
    dist = full_distribution(u, (0, 0, 1, 1, 1))
    count = 10_000
    states = sample(u, (0, 0, 1, 1, 1), count=count, seed=13)
    empirical = np.array([states.count(s) / count for s in dist.states])
    tv = 0.5 * np.abs(empirical - dist.probabilities).sum()
    assert tv <= 3.0 * np.sqrt(len(dist.states) / count)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(np.eye(2), (1, 0), count=0, seed=1)


# ----------------------------------------------------------------------
# photon-number cap
# ----------------------------------------------------------------------

def _forbid(*_args, **_kwargs):
    raise AssertionError("called past the photon cap")


@pytest.mark.parametrize(
    "call",
    [
        lambda: full_distribution(np.eye(1), (3000,)),
        lambda: collision_free_distribution(np.eye(1), (31,)),
        lambda: sample(np.eye(2), (31, 0), count=1, seed=0),
        lambda: transition_probability(np.eye(1), (31,), (31,)),
        lambda: build_submatrix(np.eye(2), (1, 0), (100000, 0)),
    ],
    ids=["full_distribution", "collision_free", "sample", "transition", "build_submatrix"],
)
def test_photon_cap_checked_before_allocation(monkeypatch, call):
    monkeypatch.setattr(fock, "_photon_modes", _forbid)
    monkeypatch.setattr(fock, "enumerate_basis", _forbid)
    with pytest.raises(SizeLimitError, match=f"capped at {RYSER_LIMIT}"):
        call()


def test_zero_photon_distribution_is_certain():
    dist = full_distribution(random_unitary(3, 1), (0, 0, 0))
    assert dist.states == ((0, 0, 0),)
    assert dist.probabilities.tolist() == [1.0]


def test_photon_cap_is_inclusive():
    assert fock._occupation_for(np.eye(2), (RYSER_LIMIT, 0)) == (RYSER_LIMIT, 0)
    assert len(fock._FACTORIAL) == RYSER_LIMIT + 1


@pytest.mark.parametrize(
    "state, message",
    [
        ((1, -1, 0), "occupation must be a nonnegative integer, got -1"),
        ((1, 0.5, 0), "occupation must be a nonnegative integer, got 0.5"),
        ((), "at least one mode"),
        ((np.inf, 0, 0), "occupation must be a nonnegative integer, got inf"),
        ((1, np.nan, 0), "occupation must be a nonnegative integer, got nan"),
    ],
)
def test_as_occupation_rejects_bad_entries(state, message):
    with pytest.raises(ValueError, match=message):
        fock.as_occupation(state)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_full_distribution_rejects_a_non_finite_occupation(bad):
    with pytest.raises(ValueError, match=f"occupation must be a nonnegative integer, got {bad!r}"):
        full_distribution(random_unitary(4, 1), (bad, 0, 0, 0))


def test_full_distribution_accepts_a_matrix_the_unitarity_check_accepts():
    # |U^dagger U - I| = 4e-9 passes is_unitary; the 6-photon sum is 1 + 2.4e-8
    u = random_unitary(12, 3) * (1 + 2e-9)
    dist = full_distribution(u, (1,) * 6 + (0,) * 6)
    assert abs(dist.probabilities.sum() - 1.0) < 3e-8


def test_full_distribution_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary within"):
        full_distribution(np.array([[1.0, 1.0], [0.0, 1.0]]), (1, 0))


def test_full_distribution_reports_an_unnormalized_sum(monkeypatch):
    # coefficients 2, 0, 2 with unit factorials over (2, 0), (1, 1), (0, 2)
    monkeypatch.setattr(fock, "_amplitudes", lambda u, inp: (np.array([2.0, 0.0, 2.0]), np.ones(3)))
    with pytest.raises(ValueError, match=r"output probabilities sum to 8\.0;"):
        full_distribution(np.eye(2), (1, 1))


def test_full_distribution_cross_checks_its_largest_entry(monkeypatch):
    # a wrong permanent leaves the SLOS sum at 1, so only the cross-check sees it
    permanent = fock.permanent_ryser
    monkeypatch.setattr(fock, "permanent_ryser", lambda a: 2 * permanent(a))
    with pytest.raises(ValueError, match=r"SLOS gives P\(.*\) = .*, but its permanent gives"):
        full_distribution(random_unitary(4, 2), (1, 0, 1, 0))


# ----------------------------------------------------------------------
# SLOS amplitudes
# ----------------------------------------------------------------------

def _slos_probabilities(u, inp):
    c, f = fock._amplitudes(u, inp)
    return np.abs(c) ** 2 * f / math.prod(math.factorial(k) for k in inp)


# vacuum, one photon, collision-free and bunched inputs per mode count
SLOS_INPUTS = [
    (0,), (1,), (3,),
    (0, 0), (0, 1), (1, 1), (2, 1),
    (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 1, 1, 0), (0, 3, 0, 0, 1),
    (0,) * 8, (0,) * 7 + (1,), (1, 1, 1, 1, 0, 0, 0, 0), (2, 0, 0, 1, 0, 0, 0, 2),
    (0,) * 12, (0, 0, 0, 0, 0, 1) + (0,) * 6, (0, 1) * 2 + (1, 0) * 4, (3,) + (0,) * 10 + (1,),
    # (n+1)^m = 3^40 overflows int64: ranks must not be base-(n+1) keys
    (1,) + (0,) * 38 + (1,), (0,) * 20 + (2,) + (0,) * 19,
]


@pytest.mark.parametrize("inp", SLOS_INPUTS, ids=lambda inp: f"{len(inp)}m-" + "".join(map(str, inp)))
def test_slos_matches_per_state_permanents(inp):
    m, n = len(inp), sum(inp)
    u = random_unitary(m, m + n)
    got = _slos_probabilities(u, inp)
    if n == 0:
        assert got.tolist() == [1.0]
        return
    expected = [transition_probability(u, inp, out) for out in enumerate_basis(m, n)]
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("inp", [(2, 1), (1, 0, 2), (0, 3, 0, 0, 1), (0, 1) * 2 + (1, 0) * 4])
def test_slos_chunk_size_changes_no_bit(monkeypatch, chunk, inp):
    u = random_unitary(len(inp), 5)
    c, f = fock._amplitudes(u, inp)
    monkeypatch.setattr(fock, "SLOS_CHUNK", chunk)
    c_chunked, f_chunked = fock._amplitudes(u, inp)
    assert np.array_equal(c_chunked, c) and np.array_equal(f_chunked, f)


def test_full_distribution_makes_one_permanent_and_one_enumeration(monkeypatch):
    calls = {"permanent_ryser": 0, "enumerate_basis": 0}

    def counted(name):
        inner = getattr(fock, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fock, name, counted(name))
    dist = full_distribution(random_unitary(6, 1), (1, 0, 2, 0, 0, 1))
    assert len(dist.states) == math.comb(9, 4)
    assert calls == {"permanent_ryser": 1, "enumerate_basis": 1}
