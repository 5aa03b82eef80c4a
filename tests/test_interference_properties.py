"""Property tests of coincidence_rate for up to four photons.

Examples are drawn deterministically (``derandomize=True``), so every run
checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim import coincidence_rate, random_unitary, transition_probability

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def rate_cases(draw):
    """A Haar unitary, collision-free modes, a unit-diagonal Gram matrix and a photon relabelling."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    u = random_unitary(m, draw(st.integers(0, 2**16)))
    ins = tuple(draw(st.permutations(range(1, m + 1)))[:n])
    outs = tuple(draw(st.permutations(range(1, m + 1)))[:n])
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rank = draw(st.integers(1, n))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    gram = g @ g.conj().T
    d = np.sqrt(np.real(np.diagonal(gram)))
    perm = list(draw(st.permutations(range(n))))
    return u, ins, outs, gram / np.outer(d, d), perm


@PROPERTY_SETTINGS
@given(rate_cases())
def test_relabelling_photons_keeps_rate(case):
    u, ins, outs, s, perm = case
    relabelled = coincidence_rate(u, [ins[j] for j in perm], outs, s[np.ix_(perm, perm)])
    assert abs(relabelled - coincidence_rate(u, ins, outs, s)) <= 1e-12


@PROPERTY_SETTINGS
@given(rate_cases())
def test_permuting_outputs_keeps_rate(case):
    u, ins, outs, s, perm = case
    permuted = coincidence_rate(u, ins, [outs[k] for k in perm], s)
    assert abs(permuted - coincidence_rate(u, ins, outs, s)) <= 1e-12


@PROPERTY_SETTINGS
@given(rate_cases())
def test_rate_is_nonnegative(case):
    u, ins, outs, s, _ = case
    assert coincidence_rate(u, ins, outs, s) >= 0.0


@PROPERTY_SETTINGS
@given(rate_cases())
def test_all_ones_overlap_is_transition_probability(case):
    u, ins, outs, _, _ = case
    m, n = u.shape[0], len(ins)
    inp = tuple(int(k + 1 in ins) for k in range(m))
    out = tuple(int(k + 1 in outs) for k in range(m))
    rate = coincidence_rate(u, ins, outs, np.ones((n, n)))
    assert abs(rate - transition_probability(u, inp, out)) <= 1e-12
