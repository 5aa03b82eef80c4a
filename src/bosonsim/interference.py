"""Partial-distinguishability interference: overlaps, rates, dips, visibilities.

Photons are modeled as Gaussian wavepackets with a common temporal width
sigma; photon j arriving with delay tau_j overlaps photon k as

    S[j, k] = exp(-(tau_j - tau_k)^2 / (4 sigma^2)),

an all-ones matrix for perfectly overlapped photons and the identity in
the fully distinguishable limit.  Coincidence rates interpolate between
the quantum (permanent) and classical rates accordingly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, UndefinedVisibilityError
from .permanent import permanent_ryser
from .unitary import UNITARY_TOL, _is_integer, as_square_matrix, is_unitary

RATE_PHOTON_LIMIT = 7
OVERLAP_TOL = 1e-8
CLASSICAL_RATE_FLOOR = 1e-12

# Default wavepacket width: transform-limited Gaussian after a 3 nm FWHM
# spectral filter centered at 789 nm, expressed in femtoseconds.
SPEED_OF_LIGHT_NM_PER_FS = 299.792458
CENTER_WAVELENGTH_NM = 789.0
FILTER_FWHM_NM = 3.0

Pair = tuple[int, int]
PairSpec = tuple[Pair, Pair]


def transform_limited_sigma_fs(
    center_nm: float = CENTER_WAVELENGTH_NM, fwhm_nm: float = FILTER_FWHM_NM
) -> float:
    """RMS temporal width (fs) of a transform-limited Gaussian wavepacket."""
    dnu_fwhm = SPEED_OF_LIGHT_NM_PER_FS * fwhm_nm / center_nm**2
    dt_fwhm = (2.0 * math.log(2.0) / math.pi) / dnu_fwhm
    return dt_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))


DEFAULT_SIGMA_FS = transform_limited_sigma_fs()


@dataclass(frozen=True)
class DelayConfig:
    """Arrival delays (one per photon) and the common wavepacket width."""

    delays: tuple[float, ...]
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "delays", tuple(float(d) for d in self.delays))
        if not self.delays:
            raise ValueError("need at least one delay")
        if not all(math.isfinite(d) for d in self.delays):
            raise ValueError("delays must be finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a positive real, got {self.sigma}")


def overlap_from_delays(config: DelayConfig) -> np.ndarray:
    """Gram matrix S[j,k] = exp(-(tau_j - tau_k)^2 / (4 sigma^2))."""
    tau = np.asarray(config.delays, dtype=float)
    gaps = np.subtract.outer(tau, tau)
    return np.exp(-(gaps**2) / (4.0 * config.sigma**2)).astype(np.complex128)


def _check_overlap(overlap, n: int) -> np.ndarray:
    s = np.asarray(overlap, dtype=np.complex128)
    if s.shape != (n, n):
        raise ValueError(f"overlap matrix must be {n} x {n}, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("overlap entries must be finite")
    if np.max(np.abs(s - s.conj().T)) > OVERLAP_TOL:
        raise ValueError("overlap matrix must be Hermitian")
    if np.max(np.abs(np.diagonal(s) - 1.0)) > OVERLAP_TOL:
        raise ValueError("overlap matrix must have a unit diagonal")
    if np.max(np.abs(s)) > 1.0 + OVERLAP_TOL:
        raise ValueError("overlap magnitudes cannot exceed 1")
    if np.linalg.eigvalsh(s).min() < -OVERLAP_TOL:
        raise ValueError("overlap matrix must be positive semidefinite")
    return s


def _mode_tuple(modes, m: int, label: str) -> tuple[int, ...]:
    given = tuple(modes)
    if not all(_is_integer(x) for x in given):
        raise ValueError(f"{label} modes must be integers, got {given}")
    out = tuple(int(x) for x in given)
    if len(out) == 0:
        raise ValueError(f"need at least one {label} mode")
    if len(set(out)) != len(out):
        raise ValueError(f"{label} modes must be distinct, got {out}")
    for mode in out:
        if not 1 <= mode <= m:
            raise ValueError(f"{label} mode {mode} outside 1..{m}")
    return out


@functools.lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _unitary_matrix(U) -> np.ndarray:
    """U as a complex square matrix, after checking it is unitary within UNITARY_TOL."""
    u = as_square_matrix(U)
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    return u


def _rate_setup(U, in_modes, out_modes) -> tuple[int, np.ndarray]:
    # Checks U and the modes; returns n and Per(M_tau) for each tau in _permutations(n).
    u = _unitary_matrix(U)
    ins = _mode_tuple(in_modes, u.shape[0], "input")
    outs = _mode_tuple(out_modes, u.shape[0], "output")
    if len(ins) != len(outs):
        raise ValueError("input and output mode counts must match")
    n = len(ins)
    if n > RATE_PHOTON_LIMIT:
        raise SizeLimitError(
            f"coincidence_rate is capped at {RATE_PHOTON_LIMIT} photons, got {n}"
        )
    a = u[np.ix_([o - 1 for o in outs], [i - 1 for i in ins])]
    return n, np.array([permanent_ryser(a * a[:, tau].conj()) for tau in _permutations(n)])


def _rate(n: int, permanents: np.ndarray, overlap) -> float:
    s = _check_overlap(overlap, n)
    weights = s[np.arange(n), _permutations(n)].prod(axis=1)
    total = complex(weights @ permanents)
    if abs(total.imag) > 1e-10:
        raise ValueError(f"rate has imaginary residue {total.imag!r}")
    if total.real < -1e-10:
        raise ValueError(f"rate is negative beyond tolerance: {total.real!r}")
    return max(float(total.real), 0.0)


def coincidence_rate(U, in_modes, out_modes, overlap) -> float:
    """n-fold coincidence rate for partially distinguishable photons.

    One photon enters each of ``in_modes`` and one is detected in each
    of ``out_modes`` (both 1-based, collision-free).  With A[k, l] the
    amplitude from in_modes[l] to out_modes[k] and S the photon overlap
    Gram matrix, the rate is the sum over permutation pairs (sigma, rho)
    of prod_k S[sigma(k), rho(k)] * A[k, sigma(k)] * conj(A[k, rho(k)]).
    Writing rho = tau o sigma turns it into n! permanents,

        rate = sum over tau of (prod_j S[j, tau(j)]) * Per(M_tau),
        M_tau[k, l] = A[k, l] * conj(A[k, tau(l)])

    (Tichy, PRA 91, 022316 (2015); Shchesnovich, PRA 91, 013844 (2015)),
    which costs n! * 2^(n-1) * n operations; n is capped at 7.  The
    permanents do not depend on S, so ``hom_scan`` computes them once
    per scan.  All-ones S reproduces |Per(A)|^2; identity S gives the
    permanent of the elementwise |A|^2 matrix (the classical rate).
    """
    return _rate(*_rate_setup(U, in_modes, out_modes), overlap)


def hom_scan(U, in_modes, out_modes, scan_delays) -> list[tuple[DelayConfig, float]]:
    """Coincidence rate at each delay configuration, in grid order."""
    n, permanents = _rate_setup(U, in_modes, out_modes)
    return [(cfg, _rate(n, permanents, overlap_from_delays(cfg))) for cfg in scan_delays]


def _pair_spec(spec, m: int) -> PairSpec:
    """An (input pair, output pair) spec as int tuples, each two distinct modes in 1..m."""
    in_pair, out_pair = spec
    checked = (_mode_tuple(in_pair, m, "input"), _mode_tuple(out_pair, m, "output"))
    if len(checked[0]) != 2 or len(checked[1]) != 2:
        raise ValueError(f"a visibility pair needs two input and two output modes, got {checked}")
    return checked


def _pair_products(a, b, idx):
    """Direct a[o1, i1] b[o2, i2] and crossed a[o1, i2] b[o2, i1] per indexed pair.

    With a = b = U these are the two-photon amplitudes; a and b may carry
    a leading stack axis.
    """
    i1, i2, o1, o2 = idx
    return a[..., o1, i1] * b[..., o2, i2], a[..., o1, i2] * b[..., o2, i1]


def _rates(direct, crossed):
    """Quantum |D + X|^2 and classical |D|^2 + |X|^2 rates of direct and crossed amplitudes."""
    return np.abs(direct + crossed) ** 2, np.abs(direct) ** 2 + np.abs(crossed) ** 2


def _two_photon_rates(u, idx):
    """Quantum (indistinguishable) and classical two-photon rates per indexed pair."""
    return _rates(*_pair_products(u, u, idx))


def _vis_from_rates(quantum, classical) -> np.ndarray:
    """V = (C - Q) / C per pair clipped to [-1, 1]; NaN where C is at most CLASSICAL_RATE_FLOOR."""
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(classical > CLASSICAL_RATE_FLOOR, (classical - quantum) / classical, np.nan)
        return np.clip(vis, -1.0, 1.0)


def visibility(U, in_pair, out_pair) -> float:
    """Two-photon dip visibility V = (P_D - P_Q) / P_D, in closed form.

    P_Q = |D + X|^2 is the coincidence rate for perfectly overlapped
    photons and P_D = |D|^2 + |X|^2 the fully distinguishable (classical)
    rate, with D and X the direct and crossed two-photon amplitudes.
    Raises UndefinedVisibilityError when the classical rate vanishes.
    """
    u = _unitary_matrix(U)
    in_pair, out_pair = _pair_spec((in_pair, out_pair), u.shape[0])
    value = _vis_from_rates(*_two_photon_rates(u, np.subtract((*in_pair, *out_pair), 1)))
    if np.isnan(value):
        raise UndefinedVisibilityError(f"classical rate vanishes for {in_pair} -> {out_pair}")
    return float(value)
