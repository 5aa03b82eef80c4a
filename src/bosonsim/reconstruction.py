"""Recovering the 19 network parameters from measured observables.

The measurement model is the one used to characterize integrated
interferometers in situ: 25 single-photon transmission probabilities
P[j, k] = |U[j, k]|^2 plus a set of two-photon dip visibilities.  A
multi-start least-squares fit recovers coupler reflectivities and phase
shifts of the canonical topology; a Poissonian simulator produces noisy
datasets for round-trip testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .circuit import TWO_PI, compile_circuit, default_topology, wrap_phases
from .errors import NonConvergenceError, UndefinedVisibilityError
from .interference import CLASSICAL_RATE_FLOOR
from .unitary import as_square_matrix

MODES = 5
ETA_COUNT = 8
PHI_COUNT = 11
UNDEFINED_PENALTY = 1e6
DEFAULT_PAIR_COUNT = 40
# Classical rates are compared at this many decimals when ranking pairs, so
# rates that differ only by rounding noise tie and break lexicographically.
PAIR_RANK_DECIMALS = 12

Pair = tuple[int, int]
PairSpec = tuple[Pair, Pair]


@dataclass(frozen=True)
class CircuitParameters:
    """Eight coupler reflectivities and eleven phase shifts."""

    etas: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        if len(self.etas) != ETA_COUNT:
            raise ValueError(f"expected {ETA_COUNT} reflectivities, got {len(self.etas)}")
        if len(self.phis) != PHI_COUNT:
            raise ValueError(f"expected {PHI_COUNT} phases, got {len(self.phis)}")
        if not all(0.0 <= e <= 1.0 for e in self.etas):
            raise ValueError("reflectivities must lie in [0, 1]")
        if not all(0.0 <= p < TWO_PI for p in self.phis):
            raise ValueError("phases must lie in [0, 2*pi)")


@dataclass(frozen=True)
class VisibilityRecord:
    """One measured (or predicted) visibility for an input/output mode pair."""

    in_pair: Pair
    out_pair: Pair
    value: float
    sigma: float


@dataclass(frozen=True)
class MeasurementDataset:
    """Singles matrix P[out, in] with uncertainties, plus visibility records."""

    singles: np.ndarray
    singles_sigma: np.ndarray
    visibilities: tuple[VisibilityRecord, ...]

    def __post_init__(self):
        singles = np.array(self.singles, dtype=float)
        sigma = np.array(self.singles_sigma, dtype=float)
        if singles.shape != (MODES, MODES) or sigma.shape != (MODES, MODES):
            raise ValueError(f"singles blocks must be {MODES} x {MODES}")
        records = tuple(self.visibilities)
        for name, values in (
            ("singles", singles),
            ("singles_sigma", sigma),
            ("visibilities", [(r.value, r.sigma) for r in records]),
        ):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} values must be finite")
        singles.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "singles_sigma", sigma)
        object.__setattr__(self, "visibilities", records)

    def visibility_pairs(self) -> list[PairSpec]:
        return [(r.in_pair, r.out_pair) for r in self.visibilities]


@dataclass(frozen=True)
class FitConfig:
    """Multi-start settings; results are deterministic for a fixed config."""

    restarts: int = 20
    max_iterations: int = 400
    tolerance: float = 1e-12
    seed: int = 0


@dataclass(frozen=True)
class ReconstructionResult:
    params: CircuitParameters
    residual: float
    predicted: MeasurementDataset
    iterations: int
    restarts_used: int


def _pair_index_arrays(pairs: list[PairSpec]):
    i1 = np.empty(len(pairs), dtype=np.intp)
    i2 = np.empty(len(pairs), dtype=np.intp)
    o1 = np.empty(len(pairs), dtype=np.intp)
    o2 = np.empty(len(pairs), dtype=np.intp)
    for j, (in_pair, out_pair) in enumerate(pairs):
        (a, b), (c, d) = tuple(in_pair), tuple(out_pair)
        for mode in (a, b, c, d):
            if not 1 <= int(mode) <= MODES:
                raise ValueError(f"mode {mode} outside 1..{MODES}")
        if a == b or c == d:
            raise ValueError(f"pair modes must be distinct, got {in_pair} -> {out_pair}")
        i1[j], i2[j], o1[j], o2[j] = a - 1, b - 1, c - 1, d - 1
    return i1, i2, o1, o2


def _two_photon_rates(u, idx):
    """Quantum (indistinguishable) and classical two-photon rates per indexed pair."""
    i1, i2, o1, o2 = idx
    direct = u[o1, i1] * u[o2, i2]
    crossed = u[o1, i2] * u[o2, i1]
    return np.abs(direct + crossed) ** 2, np.abs(direct) ** 2 + np.abs(crossed) ** 2


def _network_unitary(etas, phis) -> np.ndarray:
    return compile_circuit(default_topology(etas, wrap_phases(phis)))


def _checked_network(U) -> np.ndarray:
    u = as_square_matrix(U)
    if u.shape != (MODES, MODES):
        raise ValueError(f"expected a {MODES} x {MODES} matrix, got shape {u.shape}")
    return u


def _predicted_rates(etas, phis, idx):
    """Singles matrix plus quantum/classical two-photon rates per pair."""
    u = _network_unitary(etas, phis)
    return np.abs(u) ** 2, *_two_photon_rates(u, idx)


def _vis_from_rates(quantum, classical) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            classical > CLASSICAL_RATE_FLOOR, (classical - quantum) / classical, np.nan
        )


def predict_observables(params: CircuitParameters, visibility_pairs) -> MeasurementDataset:
    """Noiseless observables of the compiled network; uncertainties are 0.

    Raises UndefinedVisibilityError if any requested pair has a vanishing
    classical rate.
    """
    pairs = [((int(a), int(b)), (int(c), int(d))) for (a, b), (c, d) in visibility_pairs]
    idx = _pair_index_arrays(pairs)
    singles, quantum, classical = _predicted_rates(params.etas, params.phis, idx)
    vis = _vis_from_rates(quantum, classical)
    records = []
    for value, (in_pair, out_pair) in zip(vis, pairs):
        if not np.isfinite(value):
            raise UndefinedVisibilityError(
                f"classical rate vanishes for {in_pair} -> {out_pair}"
            )
        records.append(VisibilityRecord(in_pair, out_pair, float(value), 0.0))
    return MeasurementDataset(singles, np.zeros((MODES, MODES)), tuple(records))


def _residuals(x, data: MeasurementDataset, idx):
    singles, quantum, classical = _predicted_rates(x[:ETA_COUNT], x[ETA_COUNT:], idx)
    s_weight = np.where(data.singles_sigma > 0, data.singles_sigma, 1.0)
    parts = [((singles - data.singles) / s_weight).ravel()]
    if data.visibilities:
        vis = _vis_from_rates(quantum, classical)
        measured = np.array([r.value for r in data.visibilities])
        v_weight = np.array([r.sigma if r.sigma > 0 else 1.0 for r in data.visibilities])
        with np.errstate(invalid="ignore"):
            resid = np.where(
                np.isfinite(vis),
                (vis - measured) / v_weight,
                np.sqrt(UNDEFINED_PENALTY),
            )
        parts.append(resid)
    return np.concatenate(parts)


def objective(params: CircuitParameters, data: MeasurementDataset) -> float:
    """Sum of squared uncertainty-weighted residuals over all observables.

    Observables with zero stated uncertainty get unit weight; a pair whose
    predicted visibility is undefined contributes a fixed 1e6 penalty.
    """
    idx = _pair_index_arrays(data.visibility_pairs())
    r = _residuals(np.array([*params.etas, *params.phis]), data, idx)
    return float(r @ r)


def fit(data: MeasurementDataset, config: FitConfig = FitConfig()) -> ReconstructionResult:
    """Multi-start bounded least squares over the 19 network parameters.

    Starting points come from the seeded generator; restarts run
    sequentially and the lowest final objective wins, ties broken by the
    earliest restart.  Restarting stops early once the objective falls to
    ``config.tolerance``.  Reflectivities are bounded to [0, 1]; phases
    are fitted unbounded and wrapped into [0, 2*pi) at the end so the
    branch cut cannot inflate residuals.
    """
    if config.restarts < 1:
        raise ValueError("need at least one restart")
    pairs = data.visibility_pairs()
    idx = _pair_index_arrays(pairs)
    rng = np.random.default_rng(config.seed)
    lower = np.array([0.0] * ETA_COUNT + [-np.inf] * PHI_COUNT)
    upper = np.array([1.0] * ETA_COUNT + [np.inf] * PHI_COUNT)
    best_cost = np.inf
    best_x = None
    best_nfev = 0
    used = 0
    for _ in range(config.restarts):
        used += 1
        x0 = np.concatenate(
            [rng.uniform(0.05, 0.95, ETA_COUNT), rng.uniform(0.0, TWO_PI, PHI_COUNT)]
        )
        result = least_squares(
            _residuals,
            x0,
            args=(data, idx),
            bounds=(lower, upper),
            method="trf",
            xtol=config.tolerance,
            ftol=config.tolerance,
            gtol=config.tolerance,
            max_nfev=config.max_iterations,
        )
        cost = float(result.fun @ result.fun)
        if cost < best_cost:
            best_cost = cost
            best_x = result.x
            best_nfev = int(result.nfev)
        if best_cost <= config.tolerance:
            break
    if best_x is None or best_cost >= UNDEFINED_PENALTY:
        raise NonConvergenceError(
            f"best objective {best_cost:.6g} never fell below the penalty floor"
        )
    params = CircuitParameters(
        tuple(np.clip(best_x[:ETA_COUNT], 0.0, 1.0)),
        tuple(wrap_phases(best_x[ETA_COUNT:])),
    )
    predicted = predict_observables(params, pairs)
    return ReconstructionResult(
        params=params,
        residual=objective(params, data),
        predicted=predicted,
        iterations=best_nfev,
        restarts_used=used,
    )


def default_visibility_pairs(U, count: int = DEFAULT_PAIR_COUNT) -> list[PairSpec]:
    """The ``count`` (input, output) pair combinations with the largest classical rate.

    Strong classical rates give the best signal-to-noise for visibility
    measurements.  Rates are ranked at PAIR_RANK_DECIMALS decimals, and ties
    break on the lexicographically smallest pair.
    """
    u = _checked_network(U)
    pairs = list(itertools.product(itertools.combinations(range(1, MODES + 1), 2), repeat=2))
    if not 0 <= count <= len(pairs):
        raise ValueError(f"visibility pair count must lie in 0..{len(pairs)}, got {count}")
    _, classical = _two_photon_rates(u, _pair_index_arrays(pairs))
    order = np.argsort(-np.round(classical, PAIR_RANK_DECIMALS), kind="stable")
    return [pairs[j] for j in order[:count]]


def simulate_dataset_from_unitary(
    U, counts_per_setting: int, seed: int, visibility_pairs=None
) -> MeasurementDataset:
    """Poisson-noisy dataset for an arbitrary 5-mode unitary.

    Per input setting, Poisson counts with mean counts_per_setting * p
    are drawn for the five outputs and converted to probability estimates
    with uncertainty sqrt(count)/total (a one-count floor keeps sigmas
    positive).  Each visibility is re-derived from Poisson draws of its
    quantum and classical rates, with the uncertainty propagated from
    both counts, and clipped to [-1, 1].
    """
    if counts_per_setting < 1:
        raise ValueError("counts_per_setting must be a positive integer")
    u = _checked_network(U)
    if visibility_pairs is None:
        visibility_pairs = default_visibility_pairs(u)
    pairs = [((int(a), int(b)), (int(c), int(d))) for (a, b), (c, d) in visibility_pairs]
    singles = np.abs(u) ** 2
    quantum, classical = _two_photon_rates(u, _pair_index_arrays(pairs))

    rng = np.random.default_rng(seed)
    counts = rng.poisson(counts_per_setting * singles)
    est = np.empty((MODES, MODES))
    sig = np.empty((MODES, MODES))
    for k in range(MODES):
        total = counts[:, k].sum()
        if total == 0:
            est[:, k] = 1.0 / MODES
            sig[:, k] = 1.0
        else:
            est[:, k] = counts[:, k] / total
            sig[:, k] = np.sqrt(np.maximum(counts[:, k], 1)) / total
    records = []
    for j, (in_pair, out_pair) in enumerate(pairs):
        n_d = int(rng.poisson(counts_per_setting * classical[j]))
        n_q = int(rng.poisson(counts_per_setting * quantum[j]))
        if n_d == 0:
            value, sigma = 0.0, 1.0
        else:
            value = float(np.clip((n_d - n_q) / n_d, -1.0, 1.0))
            q_eff = max(n_q, 1)
            sigma = float(np.sqrt(q_eff / n_d**2 + q_eff**2 / n_d**3))
        records.append(VisibilityRecord(in_pair, out_pair, value, sigma))
    return MeasurementDataset(est, sig, tuple(records))


def simulate_dataset(
    params: CircuitParameters, counts_per_setting: int, seed: int, visibility_pairs=None
) -> MeasurementDataset:
    """Poisson-noisy dataset for the compiled canonical network."""
    return simulate_dataset_from_unitary(
        _network_unitary(params.etas, params.phis), counts_per_setting, seed, visibility_pairs
    )
