import math

import numpy as np
import pytest
from oracles import integer_ryser_permanent

from bosonsim import SizeLimitError, permanent_naive, permanent_ryser, random_unitary
from bosonsim import permanent as permanent_module

BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


def test_naive_2x2_rule():
    # Per([[a, b], [c, d]]) = a*d + b*c
    rng = np.random.default_rng(0)
    a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.isclose(permanent_naive([[a, b], [c, d]]), a * d + b * c)


def test_naive_integer_example():
    assert permanent_naive([[1, 2], [3, 4]]) == 10


def test_naive_identity():
    assert permanent_naive(np.eye(3)) == 1


def test_ryser_matches_naive_small_cases():
    assert permanent_ryser([[1, 2], [3, 4]]) == 10
    assert permanent_ryser(np.ones((3, 3))) == 6


def test_ryser_balanced_coupler_suppression():
    assert abs(permanent_ryser(BALANCED)) < 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_ryser_equals_naive_random(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = permanent_naive(m)
        got = permanent_ryser(m)
        assert abs(got - expected) <= 1e-9 * (1 + abs(expected))


@pytest.mark.parametrize("lo_bits, block", [(0, 1), (1, 3), (2, 4), (3, 64)])
def test_glynn_blocks_match_naive(monkeypatch, lo_bits, block):
    # small tables send n <= 9 through many blocks, a last block cut short
    # (block 3) and one block wider than all 2^hi high sign vectors (block 64)
    monkeypatch.setattr(permanent_module, "LO_BITS", lo_bits)
    monkeypatch.setattr(permanent_module, "BLOCK", block)
    rng = np.random.default_rng(lo_bits + 10 * block)
    for n in range(1, 10):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = permanent_naive(m)
        assert abs(permanent_ryser(m) - expected) <= 1e-12 * abs(expected)
        assert permanent_ryser(np.ones((n, n))) == complex(math.factorial(n))


@pytest.mark.parametrize("n", range(1, permanent_module.LO_BITS + 2))
def test_small_n_walks_no_block(monkeypatch, n):
    # every free sign fits the low table; a walk with BLOCK = 0 would raise
    u = random_unitary(n, 60 + n)
    expected = permanent_naive(u) if n <= permanent_module.NAIVE_LIMIT else permanent_ryser(u)
    monkeypatch.setattr(permanent_module, "BLOCK", 0)
    got = permanent_ryser(u)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_phased_permuted_permanent_n20():
    # the identity the benchmark checks: Per(D1 P A Q D2) = Per(A) prod(D1) prod(D2)
    rng = np.random.default_rng(20)
    a = random_unitary(20, 2020)
    rows, cols = rng.permutation(20), rng.permutation(20)
    d1, d2 = (np.exp(2j * np.pi * rng.random(20)) for _ in range(2))
    b = d1[:, None] * a[np.ix_(rows, cols)] * d2[None, :]
    expected = permanent_ryser(a) * np.prod(d1) * np.prod(d2)
    assert abs(permanent_ryser(b) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n", [4, 8, 12, 13, 14, 16])
def test_ryser_relative_error_against_oracle(n):
    # the bound stated in the permanent_ryser docstring, with headroom
    u = random_unitary(n, 900 + n)
    expected = integer_ryser_permanent(u)
    assert abs(permanent_ryser(u) - expected) <= 1e-11 * abs(expected)


def test_integer_ryser_oracle_matches_naive():
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = permanent_naive(m)
        assert abs(integer_ryser_permanent(m) - expected) <= 1e-12 * abs(expected)


def test_row_multilinearity():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = 0.7 - 1.3j
    scaled = m.copy()
    scaled[2] *= c
    for permanent in (permanent_naive, permanent_ryser):
        assert np.isclose(permanent(scaled), c * permanent(m), rtol=1e-12)


def test_row_column_permutation_invariance():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rows = rng.permutation(5)
    cols = rng.permutation(5)
    for permanent in (permanent_naive, permanent_ryser):
        base = permanent(m)
        assert np.isclose(permanent(m[rows]), base, rtol=1e-12)
        assert np.isclose(permanent(m[:, cols]), base, rtol=1e-12)


@pytest.mark.parametrize("n", range(1, 8))
def test_unitary_permanent_bounded(n):
    for seed in range(5):
        u = random_unitary(n, 100 * n + seed)
        assert abs(permanent_ryser(u)) <= 1 + 1e-9


def test_ryser_bit_identical_repeat():
    # n = 20 walks 32 blocks of high sign vectors
    for n in (9, 20):
        u = random_unitary(n, 77)
        first = permanent_ryser(u)
        for _ in range(3):
            assert permanent_ryser(u) == first


def test_all_ones_factorials_exact():
    for n in range(1, 10):
        assert permanent_ryser(np.ones((n, n))) == complex(math.factorial(n))
        assert permanent_naive(np.ones((n, n))) == complex(math.factorial(n))


def test_single_entry():
    z = 0.3 - 0.9j
    assert permanent_naive([[z]]) == z
    assert permanent_ryser([[z]]) == z


def test_empty_matrix_permanent_is_one():
    assert permanent_naive(np.zeros((0, 0))) == 1
    assert permanent_ryser(np.zeros((0, 0))) == 1


def test_size_limits():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(10))
    with pytest.raises(SizeLimitError):
        permanent_ryser(np.eye(31))


# the true permanent 1e400 overflows: Glynn's sum gives inf - inf = nan, the naive sum inf
@pytest.mark.parametrize("kernel", [permanent_naive, permanent_ryser])
def test_overflowing_permanent_raises(kernel):
    with pytest.raises(ValueError, match="the permanent overflows float64"):
        kernel([[1e200, 0], [0, 1e200]])


def test_input_validation():
    with pytest.raises(ValueError):
        permanent_naive(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent_ryser(np.ones((2, 3)))
    bad = np.ones((2, 2), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        permanent_ryser(bad)
