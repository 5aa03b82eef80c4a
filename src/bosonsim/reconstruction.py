"""Recovering the 19 network parameters from measured observables.

The measurement model is the one used to characterize integrated
interferometers in situ: 25 single-photon transmission probabilities
P[j, k] = |U[j, k]|^2 plus a set of two-photon dip visibilities.  A
multi-start least-squares fit recovers coupler reflectivities and phase
shifts of the canonical topology; a Poissonian simulator produces noisy
datasets for round-trip testing.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .circuit import (
    DEFAULT_MODES,
    ETA_COUNT,
    PHI_COUNT,
    TWO_PI,
    OpticalCircuit,
    _unitary_jacobian,
    _vector_unitary,
    compile_circuit,
    default_topology,
    wrap_phases,
)
from .errors import NonConvergenceError, UndefinedVisibilityError
from .interference import CLASSICAL_RATE_FLOOR, _mode_tuple
from .unitary import _integer, _is_integer, _seeded_rng, as_square_matrix

UNDEFINED_PENALTY = 1e6
DEFAULT_PAIR_COUNT = 40
# Classical rates are compared at this many decimals when ranking pairs, so
# rates that differ only by rounding noise tie and break lexicographically.
PAIR_RANK_DECIMALS = 12
# Smallest accepted fit tolerance: least_squares ignores tolerances below it.
MIN_TOLERANCE = float(np.finfo(float).eps)

logger = logging.getLogger("bosonsim")

Pair = tuple[int, int]
PairSpec = tuple[Pair, Pair]


@dataclass(frozen=True)
class CircuitParameters:
    """Eight coupler reflectivities and eleven phase shifts.

    ``circuit`` is the canonical network they parameterize; building it
    checks the counts and ranges.
    """

    etas: tuple[float, ...]
    phis: tuple[float, ...]
    circuit: OpticalCircuit = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        object.__setattr__(self, "circuit", default_topology(self.etas, self.phis))


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
        if singles.shape != (DEFAULT_MODES, DEFAULT_MODES) or sigma.shape != singles.shape:
            raise ValueError(f"singles blocks must be {DEFAULT_MODES} x {DEFAULT_MODES}")
        records = tuple(self.visibilities)
        for name, values, low in (
            ("singles", singles, 0.0),
            ("singles_sigma", sigma, 0.0),
            ("visibilities", [r.value for r in records], -np.inf),
            ("visibilities sigma", [r.sigma for r in records], 0.0),
        ):
            if not np.all(np.isfinite(values) & np.greater_equal(values, low)):
                bound = "finite" if low < 0 else "finite and nonnegative"
                raise ValueError(f"{name} values must be {bound}")
        singles.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "singles_sigma", sigma)
        object.__setattr__(self, "visibilities", records)

    def visibility_pairs(self) -> list[PairSpec]:
        return [(r.in_pair, r.out_pair) for r in self.visibilities]

    @functools.cached_property
    def _fit_targets(self):
        """Read-only measured values and weights (sigma, or 1 where it is 0) for the fit."""
        measured = np.concatenate([self.singles.ravel(), [r.value for r in self.visibilities]])
        sigma = np.concatenate([self.singles_sigma.ravel(), [r.sigma for r in self.visibilities]])
        weight = np.where(sigma > 0, sigma, 1.0)
        measured.flags.writeable = weight.flags.writeable = False
        return measured, weight


@dataclass(frozen=True)
class FitConfig:
    """Multi-start settings; results are deterministic for a fixed config."""

    restarts: int = 20
    max_iterations: int = 400
    tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        for field in ("restarts", "max_iterations"):
            object.__setattr__(self, field, _integer(getattr(self, field), field, 1))
        if not (math.isfinite(self.tolerance) and self.tolerance > MIN_TOLERANCE):
            raise ValueError(
                f"tolerance must be finite and above machine epsilon ({MIN_TOLERANCE:.3g}), "
                f"got {self.tolerance}"
            )
        _seeded_rng(self.seed)  # rejects a seed that is not a nonnegative integer


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of a fit ended.

    ``cost`` is the sum of squared weighted residuals at its end point;
    ``status`` is the ``least_squares`` termination status.
    """

    start: int
    cost: float
    nfev: int
    njev: int
    status: int


@dataclass(frozen=True)
class ReconstructionResult:
    """Best fit over the restarts; ``restarts`` is not written to result files."""

    params: CircuitParameters
    residual: float
    predicted: MeasurementDataset
    iterations: int
    restarts_used: int
    restarts: tuple[RestartRecord, ...] = ()


def _pair_spec(spec) -> PairSpec:
    """An (input pair, output pair) spec as int tuples, each two distinct modes in 1..5."""
    in_pair, out_pair = spec
    checked = (_mode_tuple(in_pair, DEFAULT_MODES, "input"),
               _mode_tuple(out_pair, DEFAULT_MODES, "output"))
    if len(checked[0]) != 2 or len(checked[1]) != 2:
        raise ValueError(f"a visibility pair needs two input and two output modes, got {checked}")
    return checked


def _pair_index_arrays(pairs: list[PairSpec]):
    """0-based index arrays i1, i2, o1, o2 of the checked pairs."""
    specs = [_pair_spec(p) for p in pairs]
    idx = np.array([[*i, *o] for i, o in specs], dtype=np.intp).reshape(-1, 4) - 1
    return tuple(np.ascontiguousarray(idx.T))


def _pair_products(a, b, idx):
    """Direct a[o1, i1] b[o2, i2] and crossed a[o1, i2] b[o2, i1] per indexed pair.

    With a = b = U these are the two-photon amplitudes; a and b may carry
    a leading stack axis.
    """
    i1, i2, o1, o2 = idx
    return a[..., o1, i1] * b[..., o2, i2], a[..., o1, i2] * b[..., o2, i1]


def _two_photon_rates(u, idx):
    """Quantum (indistinguishable) and classical two-photon rates per indexed pair."""
    return _rates(*_pair_products(u, u, idx))


def _rates(direct, crossed):
    """Quantum |D + X|^2 and classical |D|^2 + |X|^2 rates of direct and crossed amplitudes."""
    return np.abs(direct + crossed) ** 2, np.abs(direct) ** 2 + np.abs(crossed) ** 2


def _checked_network(U) -> np.ndarray:
    u = as_square_matrix(U)
    if u.shape != (DEFAULT_MODES, DEFAULT_MODES):
        raise ValueError(
            f"expected a {DEFAULT_MODES} x {DEFAULT_MODES} matrix, got shape {u.shape}"
        )
    return u


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
    pairs = [_pair_spec(p) for p in visibility_pairs]
    u = compile_circuit(params.circuit)
    vis = _vis_from_rates(*_two_photon_rates(u, _pair_index_arrays(pairs)))
    records = []
    for value, (in_pair, out_pair) in zip(vis, pairs):
        if not np.isfinite(value):
            raise UndefinedVisibilityError(
                f"classical rate vanishes for {in_pair} -> {out_pair}"
            )
        records.append(VisibilityRecord(in_pair, out_pair, float(value), 0.0))
    return MeasurementDataset(np.abs(u) ** 2, np.zeros(u.shape), tuple(records))


def _residuals(x, data: MeasurementDataset, idx):
    """Weighted residuals of the singles, then of the visibilities of the pairs idx."""
    u = _vector_unitary(x)
    measured, weight = data._fit_targets
    vis = _vis_from_rates(*_two_photon_rates(u, idx))
    resid = (np.concatenate([(np.abs(u) ** 2).ravel(), vis]) - measured) / weight
    resid[u.size :][~np.isfinite(vis)] = np.sqrt(UNDEFINED_PENALTY)
    return resid


def _jacobian(x, data: MeasurementDataset, idx):
    """Exact d(_residuals)/dx, one row per residual.

    Singles: d|U|^2 = 2 Re(conj(U) dU).  Visibilities V = (C - Q)/C, from
    the classical rate C = |D|^2 + |X|^2 and the quantum rate
    Q = |D + X|^2 of the direct and crossed amplitudes D and X:
    dV = (Q dC - C dQ) / C^2.  Rows of penalized (undefined) pairs are 0.
    """
    u, du = _unitary_jacobian(x)
    _, weight = data._fit_targets
    direct, crossed = _pair_products(u, u, idx)
    d_direct, d_crossed = map(np.add, _pair_products(du, u, idx), _pair_products(u, du, idx))
    quantum, classical = _rates(direct, crossed)
    d_quantum = 2.0 * (np.conj(direct + crossed) * (d_direct + d_crossed)).real
    d_classical = 2.0 * (np.conj(direct) * d_direct + np.conj(crossed) * d_crossed).real
    with np.errstate(invalid="ignore", divide="ignore"):
        d_vis = np.where(
            classical > CLASSICAL_RATE_FLOOR,
            (quantum * d_classical - classical * d_quantum) / classical**2,
            0.0,
        )
    d_singles = 2.0 * (u.conj() * du).real.reshape(len(du), -1)
    return (np.concatenate([d_singles, d_vis], axis=1) / weight).T


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

    Each residual evaluation compiles the network straight from the
    parameter vector by in-place row updates.  The Jacobian is exact, not
    finite differences: dU/dx_k comes from the products of the steps
    before and after parameter k's element, and the observables follow
    by the chain rule.  The "trf" method keeps reflectivities strictly
    inside (0, 1), where the coupler derivatives are finite.  One DEBUG
    line per restart goes to the "bosonsim" logger.
    """
    pairs = data.visibility_pairs()
    idx = _pair_index_arrays(pairs)
    rng = _seeded_rng(config.seed)
    lower = np.array([0.0] * ETA_COUNT + [-np.inf] * PHI_COUNT)
    upper = np.array([1.0] * ETA_COUNT + [np.inf] * PHI_COUNT)
    runs: list[tuple[RestartRecord, np.ndarray]] = []
    for start in range(config.restarts):
        x0 = np.concatenate(
            [rng.uniform(0.05, 0.95, ETA_COUNT), rng.uniform(0.0, TWO_PI, PHI_COUNT)]
        )
        result = least_squares(
            _residuals,
            x0,
            jac=_jacobian,
            args=(data, idx),
            bounds=(lower, upper),
            method="trf",
            xtol=config.tolerance,
            ftol=config.tolerance,
            gtol=config.tolerance,
            max_nfev=config.max_iterations,
        )
        record = RestartRecord(start, float(result.fun @ result.fun), int(result.nfev),
                               int(result.njev), int(result.status))
        runs.append((record, result.x))
        logger.debug(
            "fit restart %d: cost %.6g, nfev %d, njev %d, status %d",
            record.start, record.cost, record.nfev, record.njev, record.status,
        )
        if record.cost <= config.tolerance:
            break
    best, best_x = min(runs, key=lambda run: run[0].cost)
    if best.cost >= UNDEFINED_PENALTY:
        raise NonConvergenceError(
            f"best objective {best.cost:.6g} never fell below the penalty floor"
        )
    params = CircuitParameters(
        tuple(np.clip(best_x[:ETA_COUNT], 0.0, 1.0)),
        tuple(wrap_phases(best_x[ETA_COUNT:])),
    )
    return ReconstructionResult(
        params=params,
        residual=objective(params, data),
        predicted=predict_observables(params, pairs),
        iterations=best.nfev,
        restarts_used=len(runs),
        restarts=tuple(record for record, _ in runs),
    )


def default_visibility_pairs(U, count: int = DEFAULT_PAIR_COUNT) -> list[PairSpec]:
    """The ``count`` (input, output) pair combinations with the largest classical rate.

    Strong classical rates give the best signal-to-noise for visibility
    measurements.  Rates are ranked at PAIR_RANK_DECIMALS decimals, and ties
    break on the lexicographically smallest pair.
    """
    u = _checked_network(U)
    modes = range(1, DEFAULT_MODES + 1)
    pairs = list(itertools.product(itertools.combinations(modes, 2), repeat=2))
    if not (_is_integer(count) and 0 <= count <= len(pairs)):
        raise ValueError(f"visibility pair count must lie in 0..{len(pairs)}, got {count!r}")
    _, classical = _two_photon_rates(u, _pair_index_arrays(pairs))
    order = np.argsort(-np.round(classical, PAIR_RANK_DECIMALS), kind="stable")
    return [pairs[j] for j in order[:int(count)]]


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
    counts_per_setting = _integer(counts_per_setting, "counts_per_setting", 1)
    u = _checked_network(U)
    if visibility_pairs is None:
        visibility_pairs = default_visibility_pairs(u)
    pairs = [_pair_spec(p) for p in visibility_pairs]
    quantum, classical = _two_photon_rates(u, _pair_index_arrays(pairs))

    rng = _seeded_rng(seed)
    counts = rng.poisson(counts_per_setting * np.abs(u) ** 2)
    total = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(total > 0, counts / total, 1.0 / DEFAULT_MODES)
        sig = np.where(total > 0, np.sqrt(np.maximum(counts, 1)) / total, 1.0)
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
        compile_circuit(params.circuit), counts_per_setting, seed, visibility_pairs
    )
