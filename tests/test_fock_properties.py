"""Property tests of full_distribution for up to four photons in up to seven modes.

Examples are drawn deterministically (``derandomize=True``), so every run
checks the same cases.  The first-moment oracle, the mean photon number
of each output mode, needs no permanent: by linearity it is
sum_j s_j |U[k, j]|^2, and it changes when amplitudes land on the wrong
states even where the total stays 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim import full_distribution, random_unitary

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def distribution_cases(draw):
    """A Haar unitary on m <= 7 modes and an input of n <= 4 photons, bunched or not."""
    m = draw(st.integers(1, 7))
    u = random_unitary(m, draw(st.integers(0, 2**16)))
    modes = draw(st.lists(st.integers(0, m - 1), max_size=4))
    return u, tuple(np.bincount(modes, minlength=m).tolist())


@PROPERTY_SETTINGS
@given(distribution_cases())
def test_distribution_sums_to_one(case):
    u, inp = case
    assert abs(full_distribution(u, inp).probabilities.sum() - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(distribution_cases())
def test_mean_photon_number_per_mode(case):
    u, inp = case
    dist = full_distribution(u, inp)
    mean = np.array(dist.states).T @ dist.probabilities
    assert np.max(np.abs(mean - np.abs(u) ** 2 @ np.array(inp))) <= 1e-12
