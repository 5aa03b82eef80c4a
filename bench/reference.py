"""Independent reference mathematics for the benchmark.

Nothing here imports ``bosonsim``: inputs are generated and outputs are
checked with separate code, so a defect in the package cannot also hide
in its own check, and two commits see identical input bytes.

- permanents by Glynn's formula, Per(A) = 2^(1-n) sum_d (prod_k d_k)
  prod_j sum_i d_i A[i, j] over sign vectors d with d_1 = +1, evaluated
  by direct sums rather than a Gray-code walk (no accumulated drift)
- Fock-basis output distributions from batched Glynn permanents
- partial-distinguishability coincidence rates as the vectorised
  (n!)^2 permutation-pair sum
- the canonical 5-mode coupler/phase network and its Poisson-noisy
  single- and two-photon dataset
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Canonical 5-mode topology: a phase on the upper arm before each coupler,
# couplers on (1,2),(3,4),(2,3),(4,5) twice over, output phases on modes 1-3.
CANONICAL_MODES = 5
COUPLER_UPPER_MODES = (1, 3, 2, 4, 1, 3, 2, 4)
OUTPUT_PHASE_MODES = (1, 2, 3)
ETA_COUNT = len(COUPLER_UPPER_MODES)
PHI_COUNT = ETA_COUNT + len(OUTPUT_PHASE_MODES)

# Glynn sums: sign bits tabulated once per matrix, high-bit rows per chunk,
# and matrices per batch of a stack.
GLYNN_LO_BITS = 10
GLYNN_HI_CHUNK = 16
GLYNN_STACK_CHUNK = 4096

# Photons: transform-limited Gaussian pulses behind a 3 nm filter at 789 nm.
CENTER_NM = 789.0
FWHM_NM = 3.0


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-random m x m unitary: Ginibre matrix, QR, R-diagonal phases into Q."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_phases(rng: np.random.Generator, m: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, m))


# ----------------------------------------------------------------------
# permanents
# ----------------------------------------------------------------------

def _sign_vectors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^k vectors in {+1, -1}^k and the product of each vector's entries."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    d = 1.0 - 2.0 * bits
    return d, d.prod(axis=1) if k else np.ones(1)


def _row_products(rows: np.ndarray) -> np.ndarray:
    # Product over the last axis; ndarray.prod on complex data is several
    # times slower than multiplying the columns in place.
    prods = rows[..., 0].copy()
    for j in range(1, rows.shape[-1]):
        prods *= rows[..., j]
    return prods


def glynn_permanent(a) -> complex:
    """Permanent of one square matrix by Glynn's formula, O(2^n * n) memory-chunked.

    Row 0 carries d = +1; rows 1..L are the low sign bits, whose row-sum
    contributions are tabulated once, and the remaining rows are looped
    over in chunks.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    lo = min(GLYNN_LO_BITS, n - 1)
    d_lo, s_lo = _sign_vectors(lo)
    base = a[0][None, :] + d_lo @ a[1:lo + 1]  # (2^lo, n)
    d_hi, s_hi = _sign_vectors(n - 1 - lo)
    hi_sums = d_hi @ a[lo + 1:]  # (2^hi, n)
    total = 0.0 + 0.0j
    for start in range(0, len(hi_sums), GLYNN_HI_CHUNK):
        stop = start + GLYNN_HI_CHUNK
        rows = base[None, :, :] + hi_sums[start:stop, None, :]
        prods = _row_products(rows)  # (chunk, 2^lo)
        total += s_hi[start:stop] @ (prods @ s_lo)
    return complex(total / (1 << (n - 1)))


def glynn_permanents(stack) -> np.ndarray:
    """Permanents of a stack (N, n, n) of small matrices, batched over N."""
    stack = np.asarray(stack, dtype=np.complex128)
    n = stack.shape[1]
    d, s = _sign_vectors(n - 1)
    d = np.concatenate([np.ones((len(d), 1)), d], axis=1)  # (2^(n-1), n)
    out = np.empty(len(stack), dtype=np.complex128)
    for start in range(0, len(stack), GLYNN_STACK_CHUNK):
        stop = start + GLYNN_STACK_CHUNK
        rows = np.matmul(d, stack[start:stop])  # (chunk, 2^(n-1), n)
        out[start:stop] = _row_products(rows) @ s
    return out / (1 << (n - 1))


# ----------------------------------------------------------------------
# Fock distributions
# ----------------------------------------------------------------------

def fock_basis(m: int, n: int) -> np.ndarray:
    """Occupation vectors (C(m+n-1, n), m) of n photons in m modes, lexicographically decreasing."""
    states = []
    for combo in itertools.combinations_with_replacement(range(m), n):
        occ = [0] * m
        for mode in combo:
            occ[mode] += 1
        states.append(occ)
    states.sort(reverse=True)
    return np.array(states, dtype=np.int64)


def basis_tables(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per output state: its row indices (each mode repeated by its occupation) and prod_k out_k!."""
    rows = np.array([np.repeat(np.arange(states.shape[1]), occ) for occ in states])
    norm = np.array([math.prod(math.factorial(int(k)) for k in occ) for occ in states])
    return rows, norm


def output_distribution(u, input_modes, tables) -> np.ndarray:
    """P(out) = |Per(U[rows(out), input_modes])|^2 / prod_k out_k! for single-occupancy input.

    ``input_modes`` are 0-based; ``tables`` comes from ``basis_tables``.
    """
    rows, norm = tables
    cols = np.asarray(input_modes)
    subs = np.asarray(u, dtype=np.complex128)[rows[:, :, None], cols[None, None, :]]
    return np.abs(glynn_permanents(subs)) ** 2 / norm


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


# ----------------------------------------------------------------------
# partial-distinguishability rates
# ----------------------------------------------------------------------

def transform_limited_sigma_fs() -> float:
    """RMS width (fs) of a transform-limited Gaussian behind the Gaussian spectral filter."""
    c_nm_per_fs = 299.792458
    dnu = c_nm_per_fs * FWHM_NM / CENTER_NM**2
    return (2.0 * math.log(2.0) / math.pi) / dnu / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def gaussian_overlap(delays, sigma: float) -> np.ndarray:
    tau = np.asarray(delays, dtype=float)
    return np.exp(-((tau[:, None] - tau[None, :]) ** 2) / (4.0 * sigma**2))


def coincidence_rates(a, overlaps) -> tuple[np.ndarray, np.ndarray]:
    """Rates sum_{s,r} prod_k S[s_k, r_k] a[k, s_k] conj(a[k, r_k]) for each overlap S.

    Returns the rates and, per rate, the sum of the term magnitudes, which
    scales the rounding error any evaluation order can make.
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    k = np.arange(n)
    amp = a[k[None, :], perms]  # (n!, n): a[k, s_k]
    pair_amp = (amp[:, None, :] * amp[None, :, :].conj())  # (n!, n!, n)
    rates = []
    scales = []
    for s in overlaps:
        terms = _row_products(np.asarray(s)[perms[:, None, :], perms[None, :, :]] * pair_amp)
        rates.append(terms.sum().real)
        scales.append(np.abs(terms).sum())
    return np.array(rates), np.array(scales)


# ----------------------------------------------------------------------
# canonical network and its measurement dataset
# ----------------------------------------------------------------------

def canonical_unitary(etas, phis) -> np.ndarray:
    """Unitary of the canonical 5-mode network, later elements applied after earlier ones."""
    u = np.eye(CANONICAL_MODES, dtype=np.complex128)
    for k, mode in enumerate(COUPLER_UPPER_MODES):
        i = mode - 1
        u[i] *= np.exp(1j * phis[k])
        t, r = math.sqrt(1.0 - etas[k]), math.sqrt(etas[k])
        u[[i, i + 1]] = np.array([[t, 1j * r], [1j * r, t]]) @ u[[i, i + 1]]
    for j, mode in enumerate(OUTPUT_PHASE_MODES):
        u[mode - 1] *= np.exp(1j * phis[ETA_COUNT + j])
    return u


def two_photon_rates(u, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Quantum and classical coincidence rates for ((in1, in2), (out1, out2)) pairs, 1-based."""
    p = np.array([[a, b, c, d] for (a, b), (c, d) in pairs]) - 1
    direct = u[p[:, 2], p[:, 0]] * u[p[:, 3], p[:, 1]]
    crossed = u[p[:, 2], p[:, 1]] * u[p[:, 3], p[:, 0]]
    return np.abs(direct + crossed) ** 2, np.abs(direct) ** 2 + np.abs(crossed) ** 2


def strongest_pairs(u, count: int) -> list:
    """The ``count`` pair settings with the largest classical rate (best signal to noise)."""
    modes = range(1, CANONICAL_MODES + 1)
    pairs = [(i, o) for i in itertools.combinations(modes, 2) for o in itertools.combinations(modes, 2)]
    _, classical = two_photon_rates(u, pairs)
    order = sorted(range(len(pairs)), key=lambda j: (-classical[j], pairs[j]))
    return [pairs[j] for j in order[:count]]


def noisy_dataset(rng: np.random.Generator, u, counts: int, pair_count: int):
    """Poisson-noisy singles (P[out, in], sigma) and visibility records (in, out, V, sigma)."""
    singles = np.abs(u) ** 2
    n = rng.poisson(counts * singles)
    totals = n.sum(axis=0)
    est = n / totals
    sig = np.sqrt(np.maximum(n, 1)) / totals
    pairs = strongest_pairs(u, pair_count)
    quantum, classical = two_photon_rates(u, pairs)
    records = []
    for pair, q, c in zip(pairs, quantum, classical):
        n_d = int(rng.poisson(counts * c))
        n_q = int(rng.poisson(counts * q))
        value = min(max((n_d - n_q) / n_d, -1.0), 1.0)
        q_eff = max(n_q, 1)
        records.append((pair, value, math.sqrt(q_eff / n_d**2 + q_eff**2 / n_d**3)))
    return est, sig, records


def collision_free_distribution(u, input_modes) -> np.ndarray:
    """Collision-free output distribution for one photon in each of ``input_modes`` (0-based).

    Outputs are the sorted mode subsets in ``itertools.combinations`` order.
    """
    outs = list(itertools.combinations(range(u.shape[0]), len(input_modes)))
    subs = np.array([u[np.ix_(o, input_modes)] for o in outs])
    p = np.abs(glynn_permanents(subs)) ** 2
    return p / p.sum()
