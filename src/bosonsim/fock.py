"""Fock-basis bookkeeping and the permanent-to-probability pipeline.

Occupation vectors are plain tuples of nonnegative ints, one entry per
mode.  The canonical basis order is lexicographically decreasing, so
(n, 0, ..., 0) comes first; every distribution in this module lists its
outcomes in that order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneratePostselectionError, SizeLimitError
from .permanent import RYSER_LIMIT, permanent_ryser
from .unitary import UNITARY_TOL, _integer, _seeded_rng, as_square_matrix, is_unitary

BASIS_GUARD = 10_000_000
COLLISION_FREE_FLOOR = 1e-12

# factorials up to the permanent kernel's size cap
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


def enumerate_basis(m: int, n: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n photons in m modes, lexicographically decreasing.

    The first state is (n, 0, ..., 0), the last (0, ..., 0, n), and the
    count is C(m+n-1, n).  Raises CapacityError beyond the 1e7 guard.
    """
    m, n = _integer(m, "mode count", 1), _integer(n, "photon number")
    size = basis_size(m, n)
    if size > BASIS_GUARD:
        raise CapacityError(f"basis of {size} states exceeds the {BASIS_GUARD} guard")
    # Photon-mode multisets in lexicographic order are the occupations in decreasing order.
    states = []
    for modes in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for k in modes:
            occ[k] += 1
        states.append(tuple(occ))
    return states


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
    """Ascending photon modes np.repeat(arange(m), occ), one row per state of a stack."""
    occ = np.asarray(occ, dtype=np.intp)
    modes = np.broadcast_to(np.arange(occ.shape[-1]), occ.shape)
    return np.repeat(modes, occ.ravel()).reshape(*occ.shape[:-1], -1)


def build_submatrix(U, input_state, output_state) -> np.ndarray:
    """The n x n matrix whose permanent gives the I -> O amplitude.

    Columns of U are repeated by the input occupations (copies adjacent,
    ascending mode index), then rows of that by the output occupations.
    With single occupancies this is the plain row/column submatrix.
    """
    u, inp, out = _transition(U, input_state, output_state)
    return u[np.ix_(_photon_modes(out), _photon_modes(inp))]


def _probabilities(u, inp, outs) -> np.ndarray:
    """P(inp -> out) per out in outs, from U's columns gathered once by the input photon modes."""
    occ = np.array(outs, dtype=np.intp)
    cols = u[:, _photon_modes(inp)]
    # One call of the public permanent_ryser per state, not a private stacked
    # kernel: the benchmark tracer wraps it to count and time the permanent
    # layer, and reads n from each call's matrix.
    per2 = [abs(permanent_ryser(cols[rows])) ** 2 for rows in _photon_modes(occ)]
    return np.array(per2) / (_FACTORIAL[list(inp)].prod() * _FACTORIAL[occ].prod(axis=1))


def transition_probability(U, input_state, output_state) -> float:
    """P(I -> O) = |Per(U_IO)|^2 / (prod_k i_k! * prod_k j_k!)."""
    u, inp, out = _transition(U, input_state, output_state)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    return _probabilities(u, inp, [out])[0]


@dataclass(frozen=True)
class OutputDistribution:
    """Exact output distribution over the canonical basis order.

    ``normalization`` is 1.0 for a full distribution; for a postselected
    one it records the probability mass kept before renormalization.
    """

    input_state: tuple[int, ...]
    states: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    normalization: float

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)

    def outcomes(self) -> list[tuple[tuple[int, ...], float]]:
        """(state, probability) pairs in canonical basis order."""
        return list(zip(self.states, self.probabilities.tolist()))

    def probability_of(self, state) -> float:
        target = as_occupation(state)
        for s, p in zip(self.states, self.probabilities):
            if s == target:
                return float(p)
        raise KeyError(f"state {target} not in distribution")


def full_distribution(U, input_state) -> OutputDistribution:
    """Probabilities of every n-photon output state for the given input."""
    u = as_square_matrix(U)
    inp = _occupation_for(u, input_state)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    n = sum(inp)
    basis = enumerate_basis(len(inp), n)
    probs = _probabilities(u, inp, basis)
    # To first order |sum - 1| <= n * UNITARY_TOL for any matrix is_unitary accepts.
    total = float(probs.sum())
    if abs(total - 1.0) > 2 * n * UNITARY_TOL:
        raise ValueError(
            f"output probabilities sum to {total}; the matrix is not unitary "
            "enough to produce a normalized distribution"
        )
    return OutputDistribution(inp, tuple(basis), probs, 1.0)


def collision_free_distribution(U, input_state) -> OutputDistribution:
    """Distribution restricted to outputs with at most one photon per mode.

    Probabilities are the full-distribution values divided by the kept
    mass, which is recorded in ``normalization``.  Raises
    DegeneratePostselectionError when that mass is numerically zero.
    """
    full = full_distribution(U, input_state)
    keep = [i for i, s in enumerate(full.states) if max(s) <= 1]
    mass = float(full.probabilities[keep].sum()) if keep else 0.0
    if mass < COLLISION_FREE_FLOOR:
        raise DegeneratePostselectionError(
            f"collision-free mass {mass:.3e} is below {COLLISION_FREE_FLOOR}"
        )
    states = tuple(full.states[i] for i in keep)
    probs = full.probabilities[keep] / mass
    return OutputDistribution(full.input_state, states, probs, mass)


def sample(U, input_state, count: int, seed: int, collision_free: bool = False) -> list[tuple[int, ...]]:
    """``count`` i.i.d. output states drawn by inverse CDF over the exact distribution."""
    count = _integer(count, "count", 1)
    rng = _seeded_rng(seed)
    builder = collision_free_distribution if collision_free else full_distribution
    dist = builder(U, input_state)
    cdf = np.cumsum(dist.probabilities)
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    return [dist.states[i] for i in idx]
