import re

import numpy as np
import pytest

from bosonsim import (
    Coupler,
    FitConfig,
    OpticalCircuit,
    PhaseShifter,
    default_visibility_pairs,
    enumerate_basis,
    fit,
    is_unitary,
    random_circuit,
    random_unitary,
    sample,
    simulate_dataset_from_unitary,
)
from bosonsim.fock import as_occupation

BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


def test_identity_is_unitary():
    assert is_unitary(np.eye(4), 1e-12)


def test_balanced_coupler_is_unitary():
    assert is_unitary(BALANCED, 1e-12)


def test_shear_is_not_unitary():
    assert not is_unitary(np.array([[1.0, 1.0], [0.0, 1.0]]), 1e-6)


def test_is_unitary_validation():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)), 1e-9)
    with pytest.raises(ValueError):
        is_unitary(np.eye(2), -1e-9)
    with pytest.raises(ValueError, match="tolerance must be nonnegative, got nan"):
        is_unitary(np.eye(2), float("nan"))


def test_random_unitary_passes_check():
    assert is_unitary(random_unitary(5, 42), 1e-10)


def test_random_unitary_deterministic():
    a = random_unitary(5, 42)
    b = random_unitary(5, 42)
    assert np.array_equal(a, b)


def test_random_unitary_seed_sensitivity():
    a = random_unitary(5, 42)
    b = random_unitary(5, 43)
    assert np.max(np.abs(a - b)) > 1e-3


def test_random_unitary_rejects_zero_modes():
    with pytest.raises(ValueError):
        random_unitary(0, 1)


@pytest.mark.parametrize("seed", [-1, 1.5, np.inf, "3"])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: random_unitary(3, seed),
        lambda seed: random_circuit(seed),
        lambda seed: sample(np.eye(2), (1, 0), count=1, seed=seed),
        lambda seed: simulate_dataset_from_unitary(np.eye(5), 100, seed, []),
        lambda seed: fit(None, FitConfig(seed=seed)),
    ],
    ids=["random_unitary", "random_circuit", "sample", "simulate", "fit"],
)
def test_seeded_calls_reject_a_seed_that_is_not_a_nonnegative_integer(call, seed):
    with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
        call(seed)


# Every entry point that takes a count, size or mode index, as (call, field,
# minimum).  Each call returns a plain value that shows the integer it used.
INTEGER_ARGUMENTS = [
    (lambda k: random_unitary(k, 1).shape, "mode count", 1),
    (lambda k: enumerate_basis(k, 2), "mode count", 1),
    (lambda k: enumerate_basis(3, k), "photon number", 0),
    (lambda k: as_occupation((k, 1)), "occupation", 0),
    (lambda k: sample(np.eye(2), (1, 0), count=k, seed=1), "count", 1),
    (lambda k: Coupler(k, 0.3).mode, "coupler mode", 1),
    (lambda k: PhaseShifter(k, 0.3).mode, "phase mode", 1),
    (lambda k: OpticalCircuit(k, ()).mode_count, "mode count", 1),
    (lambda k: FitConfig(restarts=k).restarts, "restarts", 1),
    (lambda k: FitConfig(max_iterations=k).max_iterations, "max_iterations", 1),
    (lambda k: simulate_dataset_from_unitary(np.eye(5), k, 1, []).singles.tolist(),
     "counts_per_setting", 1),
    (lambda k: default_visibility_pairs(np.eye(5), k), "visibility pair count", 0),
]
INTEGER_ARGUMENT_IDS = [
    "random_unitary", "basis_modes", "basis_photons", "occupation", "sample_count",
    "coupler", "phase", "circuit", "restarts", "max_iterations", "simulate_counts", "pair_count",
]
BELOW_MINIMUM = object()


@pytest.mark.parametrize(
    "bad", [2.5, np.nan, np.inf, "3", BELOW_MINIMUM],
    ids=["fraction", "nan", "inf", "string", "below_minimum"],
)
@pytest.mark.parametrize("call, field, minimum", INTEGER_ARGUMENTS, ids=INTEGER_ARGUMENT_IDS)
def test_integer_arguments_reject_a_value_that_is_not_an_integer_in_range(call, field, minimum, bad):
    if bad is BELOW_MINIMUM:
        bad = minimum - 1
    with pytest.raises(ValueError, match=f"^{re.escape(field)} .*got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("call, field, minimum", INTEGER_ARGUMENTS, ids=INTEGER_ARGUMENT_IDS)
def test_integer_arguments_take_integral_floats_and_numpy_ints_as_ints(call, field, minimum):
    expected = call(2)
    for value in (2.0, np.int64(2)):
        # repr tells 2 from 2.0 and np.int64(2), also inside tuples and lists
        assert repr(call(value)) == repr(expected)
