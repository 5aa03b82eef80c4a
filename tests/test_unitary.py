import numpy as np
import pytest

from bosonsim import (
    FitConfig,
    fit,
    is_unitary,
    random_circuit,
    random_unitary,
    sample,
    simulate_dataset_from_unitary,
)

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
