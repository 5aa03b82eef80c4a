"""Shared input checks, unitarity checking and seeded Haar-random unitaries.

``_integer`` is the one integer check: every count, size, mode index and
seed the library takes goes through it.
"""

from __future__ import annotations

import numpy as np

UNITARY_TOL = 1e-8


def _is_integer(x) -> bool:
    """True for ints, numpy ints and integral floats; False for 1.9, inf, nan and strings."""
    return isinstance(x, (int, np.integer)) or (
        isinstance(x, (float, np.floating)) and float(x).is_integer())


def _integer(x, field: str, low: int = 0) -> int:
    """x as an int, after checking it is an integer (see _is_integer) of at least low (0 or 1)."""
    if not (_is_integer(x) and x >= low):
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{field} must be a {kind} integer, got {x!r}")
    return int(x)


def _seeded_rng(seed) -> np.random.Generator:
    """numpy's default generator for a seed, which must be a nonnegative integer."""
    return np.random.default_rng(_integer(seed, "seed"))


def as_square_matrix(matrix) -> np.ndarray:
    """The matrix as complex128, after checking it is 2-D, square and finite."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def is_unitary(matrix, tol: float) -> bool:
    """True iff the max-norm of M^dagger M - I is at most tol."""
    m = as_square_matrix(matrix)
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(m.shape[0]))) <= tol)


def random_unitary(m: int, seed: int) -> np.ndarray:
    """Haar-distributed m x m unitary, reproducible from the seed.

    Draws a complex Ginibre matrix, QR-factorizes it, and absorbs the
    phases of the R diagonal into Q, which makes the distribution
    right-invariant (plain QR alone is not Haar).
    """
    m = _integer(m, "mode count", 1)
    rng = _seeded_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
