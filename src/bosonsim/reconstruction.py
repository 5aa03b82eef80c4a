"""Recovering the 19 network parameters from measured observables.

The measurement model is the one used to characterize integrated
interferometers in situ: 25 single-photon transmission probabilities
P[j, k] = |U[j, k]|^2 plus a set of two-photon dip visibilities.  A
multi-start least-squares fit recovers coupler reflectivities and phase
shifts of the canonical topology; a Poissonian simulator produces noisy
datasets for round-trip testing.
"""

from __future__ import annotations

import enum
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import (
    DEFAULT_MODES,
    ETA_COUNT,
    PHI_COUNT,
    TWO_PI,
    OpticalCircuit,
    _parameter_vector,
    _unitary_jacobian,
    _vector_unitary,
    compile_circuit,
    default_topology,
    wrap_phases,
)
from .errors import NonConvergenceError, UndefinedVisibilityError
from .interference import (CLASSICAL_RATE_FLOOR, Pair, PairSpec, _pair_products, _pair_spec,
                           _rates, _two_photon_rates, _unitary_matrix, _vis_from_rates)
from .unitary import _integer, _is_integer, _seeded_rng

UNDEFINED_PENALTY = 1e6
DEFAULT_PAIR_COUNT = 40
# Classical rates are compared at this many decimals when ranking pairs, so
# rates that differ only by rounding noise tie and break lexicographically.
PAIR_RANK_DECIMALS = 12
# Smallest accepted fit tolerance: a relative change of the cost or of the
# parameters below machine epsilon cannot be resolved.
MIN_TOLERANCE = float(np.finfo(float).eps)
# Levenberg-Marquardt damping: its start, its floor, and the value past
# which no step can lower the cost any more.  Each parameter is damped by
# the running maximum of its squared Jacobian column, floored at SCALE_FLOOR
# times the largest.  Both floors keep the damped system solvable: the
# Jacobian has rank 12 of 19, as five phases change no observable and two
# more phase combinations are degenerate.
INITIAL_DAMPING = 1e-3
MIN_DAMPING = 1e-12
MAX_DAMPING = 1e16
SCALE_FLOOR = 1e-8

logger = logging.getLogger("bosonsim")


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
    """One visibility of an input/output mode pair; it checks the pair, V in [-1, 1] and sigma."""

    in_pair: Pair
    out_pair: Pair
    value: float
    sigma: float

    def __post_init__(self):
        in_pair, out_pair = _pair_spec((self.in_pair, self.out_pair), DEFAULT_MODES)
        object.__setattr__(self, "in_pair", in_pair)
        object.__setattr__(self, "out_pair", out_pair)
        if not -1.0 <= self.value <= 1.0:
            raise ValueError(f"visibility {self.value} outside [-1, 1]")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("visibilities sigma values must be finite and nonnegative")


@dataclass(frozen=True)
class MeasurementDataset:
    """Singles matrix P[out, in] with uncertainties, plus visibility records (checked by each)."""

    singles: np.ndarray
    singles_sigma: np.ndarray
    visibilities: tuple[VisibilityRecord, ...]

    def __post_init__(self):
        singles = np.array(self.singles, dtype=float)
        sigma = np.array(self.singles_sigma, dtype=float)
        if singles.shape != (DEFAULT_MODES, DEFAULT_MODES) or sigma.shape != singles.shape:
            raise ValueError(f"singles blocks must be {DEFAULT_MODES} x {DEFAULT_MODES}")
        for name, values in (("singles", singles), ("singles_sigma", sigma)):
            if not np.all(np.isfinite(values) & (values >= 0)):
                raise ValueError(f"{name} values must be finite and nonnegative")
        singles.flags.writeable = False
        sigma.flags.writeable = False
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "singles_sigma", sigma)
        object.__setattr__(self, "visibilities", tuple(self.visibilities))

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
        for field, low in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, field, _integer(getattr(self, field), field, low))
        if not (math.isfinite(self.tolerance) and self.tolerance > MIN_TOLERANCE):
            raise ValueError(
                f"tolerance must be finite and above machine epsilon ({MIN_TOLERANCE:.3g}), "
                f"got {self.tolerance}"
            )


class Stop(enum.IntEnum):
    """Why one restart of ``least_squares`` ended, with tolerance ``tol``."""

    BUDGET = 0  # max_iterations residual evaluations were spent
    GRADIENT = 1  # each gradient entry is at most tol * |residuals| * sqrt(its damping)
    COST = 2  # an accepted step lowered the cost by at most tol * cost
    STEP = 3  # an accepted step p had |p| <= tol * (tol + |x|)
    NO_STEP = 4  # the damping passed MAX_DAMPING with no step that lowers the cost


class LeastSquaresResult(NamedTuple):
    """End point x, its residuals, evaluation counts and the ``Stop`` code."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    njev: int
    status: Stop


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of a fit ended.

    ``cost`` is the sum of squared weighted residuals at its end point;
    ``status`` is the ``Stop`` code of ``least_squares``.
    """

    start: int
    cost: float
    nfev: int
    njev: int
    status: Stop


@dataclass(frozen=True)
class ReconstructionResult:
    """Best fit over the restarts; ``restarts`` is not written to result files."""

    params: CircuitParameters
    residual: float
    predicted: MeasurementDataset
    iterations: int
    restarts_used: int
    restarts: tuple[RestartRecord, ...] = ()


def _pair_index_arrays(pairs: list[PairSpec]):
    """0-based index arrays i1, i2, o1, o2 of the checked pairs."""
    specs = [_pair_spec(p, DEFAULT_MODES) for p in pairs]
    idx = np.array([[*i, *o] for i, o in specs], dtype=np.intp).reshape(-1, 4) - 1
    return tuple(np.ascontiguousarray(idx.T))


def _checked_network(U) -> np.ndarray:
    u = _unitary_matrix(U)
    if u.shape == (DEFAULT_MODES, DEFAULT_MODES):
        return u
    raise ValueError(f"expected a {DEFAULT_MODES} x {DEFAULT_MODES} matrix, got shape {u.shape}")


def predict_observables(params: CircuitParameters, visibility_pairs) -> MeasurementDataset:
    """Noiseless observables of the compiled network; uncertainties are 0.

    Raises UndefinedVisibilityError if any requested pair has a vanishing
    classical rate.
    """
    pairs = list(visibility_pairs)
    u = compile_circuit(params.circuit)
    vis = _vis_from_rates(*_two_photon_rates(u, _pair_index_arrays(pairs)))
    records = []
    for value, (in_pair, out_pair) in zip(vis, pairs):
        if np.isnan(value):
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


def _fold(thetas) -> np.ndarray:
    """Angles with the same sin(theta)^2, reduced into [0, pi/2]."""
    return np.abs(thetas - math.pi * np.round(thetas / math.pi))


def least_squares(x, data: MeasurementDataset, idx, config: FitConfig) -> LeastSquaresResult:
    """Levenberg-Marquardt minimization of |_residuals(x)|^2 from x = thetas + phis.

    Each iteration solves (J^T J + lam D) p = -J^T f for the step p, where
    D is Marquardt's diagonal scaling kept as a running maximum (Moré), and
    takes it if it lowers the cost: lam then shrinks by Nielsen's rule, and
    otherwise grows by a factor that doubles on each rejection.  Trial
    points fold every theta into [0, pi/2], which covers each eta = sin^2
    exactly once, so no bound is needed.  At most ``config.max_iterations``
    residual evaluations are spent; ``Stop`` lists the ways it ends.
    """
    tol = config.tolerance
    x = np.array(x, dtype=float)
    f = _residuals(x, data, idx)
    cost, nfev, njev = float(f @ f), 1, 0
    scale = np.zeros(len(x))
    lam, grow = INITIAL_DAMPING, 2.0
    while True:
        jac = _jacobian(x, data, idx)
        njev += 1
        hess, grad = jac.T @ jac, jac.T @ f
        scale = np.maximum(scale, hess.diagonal())
        damping = np.maximum(scale, SCALE_FLOOR * scale.max())
        if np.all(np.abs(grad) <= tol * np.sqrt(cost * damping)):
            return LeastSquaresResult(x, f, nfev, njev, Stop.GRADIENT)
        while True:
            if nfev >= config.max_iterations:
                return LeastSquaresResult(x, f, nfev, njev, Stop.BUDGET)
            step = np.linalg.solve(hess + np.diag(lam * damping), -grad)
            trial = x + step
            trial[:ETA_COUNT] = _fold(trial[:ETA_COUNT])
            f_trial = _residuals(trial, data, idx)
            nfev += 1
            cost_trial = float(f_trial @ f_trial)
            # actual over predicted reduction; the linear model predicts p^T (lam D p - J^T f)
            gain = (cost - cost_trial) / (step @ (lam * damping * step - grad))
            if gain > 0.0:
                break
            lam, grow = lam * grow, 2.0 * grow
            if lam > MAX_DAMPING:
                return LeastSquaresResult(x, f, nfev, njev, Stop.NO_STEP)
        if cost - cost_trial <= tol * cost:
            return LeastSquaresResult(trial, f_trial, nfev, njev, Stop.COST)
        if np.linalg.norm(step) <= tol * (tol + np.linalg.norm(trial)):
            return LeastSquaresResult(trial, f_trial, nfev, njev, Stop.STEP)
        x, f, cost = trial, f_trial, cost_trial
        lam, grow = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), MIN_DAMPING), 2.0


def objective(params: CircuitParameters, data: MeasurementDataset) -> float:
    """Sum of squared uncertainty-weighted residuals over all observables.

    Observables with zero stated uncertainty get unit weight; a pair whose
    predicted visibility is undefined contributes a fixed 1e6 penalty.
    """
    idx = _pair_index_arrays(data.visibility_pairs())
    r = _residuals(_parameter_vector(params.etas, params.phis), data, idx)
    return float(r @ r)


def fit(data: MeasurementDataset, config: FitConfig = FitConfig()) -> ReconstructionResult:
    """Multi-start Levenberg-Marquardt least squares over the 19 network parameters.

    Starting points come from the seeded generator; restarts run
    sequentially and the lowest final objective wins, ties broken by the
    earliest restart.  Restarting stops early once the objective falls to
    ``config.tolerance``.  Each coupler is fitted by its angle theta, with
    eta = sin(theta)^2, so every reflectivity stays in [0, 1] without a
    bound; a start eta maps to theta = arcsin(sqrt(eta)).  Phases are
    fitted unbounded and wrapped into [0, 2*pi) at the end so the branch
    cut cannot inflate residuals.

    Each residual evaluation compiles the network straight from the
    parameter vector by in-place row updates.  The Jacobian is exact, not
    finite differences: dU/dx_k comes from the products of the steps
    before and after parameter k's element, and the observables follow
    by the chain rule.  The coupler derivative in theta is finite for
    every eta in [0, 1].  One DEBUG line per restart goes to the
    "bosonsim" logger.
    """
    pairs = data.visibility_pairs()
    idx = _pair_index_arrays(pairs)
    rng = _seeded_rng(config.seed)
    runs: list[tuple[RestartRecord, np.ndarray]] = []
    for start in range(config.restarts):
        x0 = _parameter_vector(
            rng.uniform(0.05, 0.95, ETA_COUNT), rng.uniform(0.0, TWO_PI, PHI_COUNT)
        )
        result = least_squares(x0, data, idx, config)
        record = RestartRecord(start, float(result.fun @ result.fun), result.nfev,
                               result.njev, result.status)
        runs.append((record, result.x))
        logger.debug(
            "fit restart %d: cost %.6g, nfev %d, njev %d, status %d (%s)",
            record.start, record.cost, record.nfev, record.njev, record.status,
            record.status.name,
        )
        if record.cost <= config.tolerance:
            break
    best, best_x = min(runs, key=lambda run: run[0].cost)
    if best.cost >= UNDEFINED_PENALTY:
        raise NonConvergenceError(
            f"best objective {best.cost:.6g} never fell below the penalty floor"
        )
    params = CircuitParameters(
        tuple(np.sin(best_x[:ETA_COUNT]) ** 2),
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
    both counts; no classical count gives 0 +- 1.
    """
    counts_per_setting = _integer(counts_per_setting, "counts_per_setting", 1)
    u = _checked_network(U)
    if visibility_pairs is None:
        visibility_pairs = default_visibility_pairs(u)
    pairs = list(visibility_pairs)
    quantum, classical = _two_photon_rates(u, _pair_index_arrays(pairs))

    rng = _seeded_rng(seed)
    counts = rng.poisson(counts_per_setting * np.abs(u) ** 2)
    total = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(total > 0, counts / total, 1.0 / DEFAULT_MODES)
        sig = np.where(total > 0, np.sqrt(np.maximum(counts, 1)) / total, 1.0)
    # pair by pair, the classical count n_d, then the quantum count n_q
    n_d, n_q = rng.poisson(counts_per_setting * np.stack([classical, quantum], axis=1)).T
    values = np.nan_to_num(_vis_from_rates(n_q, n_d))
    records = []
    # sigma in exact integer arithmetic: n_d**3 overflows int64 at 1e8 counts
    for (in_pair, out_pair), value, d, q in zip(pairs, values, n_d.tolist(), n_q.tolist()):
        q = max(q, 1)
        sigma = math.sqrt(q / d**2 + q**2 / d**3) if d else 1.0
        records.append(VisibilityRecord(in_pair, out_pair, float(value), sigma))
    return MeasurementDataset(est, sig, tuple(records))


def simulate_dataset(
    params: CircuitParameters, counts_per_setting: int, seed: int, visibility_pairs=None
) -> MeasurementDataset:
    """Poisson-noisy dataset for the compiled canonical network."""
    return simulate_dataset_from_unitary(
        compile_circuit(params.circuit), counts_per_setting, seed, visibility_pairs
    )
