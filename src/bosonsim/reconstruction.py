"""Recovering the canonical network from measured observables.

The measurement model is the one used to characterize integrated
interferometers in situ: 25 single-photon transmission probabilities
P[j, k] = |U[j, k]|^2 plus a set of two-photon dip visibilities.  A
multi-start least-squares fit recovers the 12 parameters of the canonical
topology that these determine (see ``fit``); a Poissonian simulator
produces noisy datasets for round-trip testing.
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
    FIT_PHASES,
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
# Levenberg-Marquardt damping: its start, and the value past which no step
# can lower the cost any more.
INITIAL_DAMPING = 1e-3
MAX_DAMPING = 1e16
# ``fit`` advances at most this many restarts together, so its memory does
# not grow with the restart count.
RESTART_STACK = 20
# Largest simulated count per setting: numpy's Poisson draw rejects means above about 9.2e18.
COUNTS_LIMIT = 10**18

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
    """Why one restart ended, with tolerance ``tol``, alone or as a row of ``fit``'s stack."""

    BUDGET = 0  # max_iterations residual evaluations were spent
    GRADIENT = 1  # each gradient entry is at most tol * |residuals| * sqrt(its damping)
    COST = 2  # an accepted step lowered the cost by at most tol * cost
    STEP = 3  # an accepted step p had |p| <= tol * (tol + |x|)
    NO_STEP = 4  # the damping passed MAX_DAMPING with no step that lowers the cost


class LeastSquaresResult(NamedTuple):
    """End point x, its residuals, evaluation counts and the ``Stop`` code.

    The stacked solver ``_lm_stack`` returns each field with a leading axis over its rows.
    """

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    njev: int
    status: Stop


@dataclass(frozen=True)
class RestartRecord:
    """How one restart of a fit ended.

    ``cost`` is the sum of squared weighted residuals at its end point;
    ``status`` is the ``Stop`` code of the restart's own LM run.
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


# The 100 (input pair, output pair) candidates that ranking scores, checked once.
_MODE_PAIRS = tuple(itertools.combinations(range(1, DEFAULT_MODES + 1), 2))
_CANDIDATE_PAIRS = tuple(itertools.product(_MODE_PAIRS, repeat=2))
_CANDIDATE_INDEX = _pair_index_arrays(_CANDIDATE_PAIRS)


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


def _observable_residuals(u, data: MeasurementDataset, idx):
    """Weighted residuals of the singles of u, then of the visibilities of the pairs idx.

    u may carry leading stack axes, giving one row of residuals per matrix.
    """
    measured, weight = data._fit_targets
    vis = _vis_from_rates(*_two_photon_rates(u, idx))
    singles = (np.abs(u) ** 2).reshape(*u.shape[:-2], -1)
    resid = (np.concatenate([singles, vis], axis=-1) - measured) / weight
    resid[..., singles.shape[-1] :][~np.isfinite(vis)] = np.sqrt(UNDEFINED_PENALTY)
    return resid


def _residuals(x, data: MeasurementDataset, idx):
    """``_observable_residuals`` of the network at fit vector x, or at each row of a stack x."""
    return _observable_residuals(_vector_unitary(x), data, idx)


def _jacobian(x, data: MeasurementDataset, idx):
    """Exact d(_residuals)/dx, one row per residual; a stack x gives a stack of them.

    Singles: d|U|^2 = 2 Re(conj(U) dU).  Visibilities V = (C - Q)/C, from
    the classical rate C = |D|^2 + |X|^2 and the quantum rate
    Q = |D + X|^2 of the direct and crossed amplitudes D and X:
    dV = (Q dC - C dQ) / C^2.  Rows of penalized (undefined) pairs are 0.
    """
    u, du = _unitary_jacobian(x)
    u = u[..., None, :, :]  # broadcast against the parameter axis of du
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
    d_singles = 2.0 * (u.conj() * du).real.reshape(*du.shape[:-2], -1)
    return np.swapaxes(np.concatenate([d_singles, d_vis], axis=-1) / weight, -1, -2)


def _fold(thetas) -> np.ndarray:
    """Angles with the same sin(theta)^2, reduced into [0, pi/2]."""
    return np.abs(thetas - math.pi * np.round(thetas / math.pi))


def _row_dot(a, b):
    """a @ b for each pair of matching rows of a and b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _lm_stack(x, data: MeasurementDataset, idx, config: FitConfig) -> LeastSquaresResult:
    """Levenberg-Marquardt from each row of the start stack x, all rows advanced together.

    Each row keeps its own damping lam, growth factor, Moré scaling D,
    counts and ``Stop`` code, and takes the steps ``least_squares``
    describes.  A round computes Jacobians only for the rows whose last
    trial was accepted, solves every running row's damped system in one
    batched call and evaluates every trial in one ``_residuals`` call;
    rows that have ended drop out.  Rows share no arithmetic, so each row
    ends exactly as it would alone.

    The stack stops once its first row, in order, whose cost reaches
    ``config.tolerance`` and every row before it have ended, or once all
    rows have.  The result's fields carry a leading axis over the rows up
    to that one (all of them if none reaches ``tolerance``).
    """
    tol = config.tolerance
    x = np.array(x, dtype=float)
    f = _residuals(x, data, idx)
    cost = _row_dot(f, f)
    nfev, njev = np.ones(len(x), dtype=int), np.zeros(len(x), dtype=int)
    status = np.full(len(x), -1)
    fresh = np.ones(len(x), dtype=bool)  # the last trial was accepted: x has no Jacobian yet
    lam, grow = np.full(len(x), INITIAL_DAMPING), np.full(len(x), 2.0)
    damping, grad = np.zeros_like(x), np.zeros_like(x)
    hess = np.zeros(x.shape + x.shape[-1:])
    eye = np.eye(x.shape[-1])
    while True:
        run = np.flatnonzero(status < 0)
        reached = np.flatnonzero(cost[:run[0] if len(run) else len(x)] <= tol)
        if len(reached) or not len(run):
            used = reached[0] + 1 if len(reached) else len(x)
            return LeastSquaresResult(x[:used], f[:used], nfev[:used], njev[:used],
                                      status[:used])
        new = run[fresh[run]]
        if len(new):
            jac = _jacobian(x[new], data, idx)
            njev[new] += 1
            jac_t = np.swapaxes(jac, 1, 2)
            hess[new] = jac_t @ jac
            grad[new] = (jac_t @ f[new, :, None])[..., 0]
            damping[new] = np.maximum(damping[new], hess[new].diagonal(axis1=1, axis2=2))
            flat = np.all(np.abs(grad[new]) <= tol * np.sqrt(cost[new, None] * damping[new]),
                          axis=1)
            status[new[flat]] = Stop.GRADIENT
        run = run[status[run] < 0]
        spent = nfev[run] >= config.max_iterations
        status[run[spent]] = Stop.BUDGET
        run = run[~spent]
        if not len(run):
            continue
        lam_d = lam[run, None] * damping[run]
        step = np.linalg.solve(hess[run] + eye * lam_d[:, None, :], -grad[run, :, None])[..., 0]
        trial = x[run] + step
        trial[:, :ETA_COUNT] = _fold(trial[:, :ETA_COUNT])
        f_trial = _residuals(trial, data, idx)
        nfev[run] += 1
        cost_trial = _row_dot(f_trial, f_trial)
        # actual over predicted reduction; the linear model predicts p^T (lam D p - J^T f)
        gain = (cost[run] - cost_trial) / _row_dot(step, lam_d * step - grad[run])
        accepted = gain > 0.0
        fresh[run] = accepted
        back = run[~accepted]
        lam[back], grow[back] = lam[back] * grow[back], 2.0 * grow[back]
        status[back[lam[back] > MAX_DAMPING]] = Stop.NO_STEP
        ahead, step, trial = run[accepted], step[accepted], trial[accepted]
        lowered = cost[ahead] - cost_trial[accepted]
        short = np.sqrt(_row_dot(step, step)) <= tol * (tol + np.sqrt(_row_dot(trial, trial)))
        status[ahead] = np.where(lowered <= tol * cost[ahead], Stop.COST,
                                 np.where(short, Stop.STEP, -1))
        x[ahead], f[ahead], cost[ahead] = trial, f_trial[accepted], cost_trial[accepted]
        # Nielsen's rule, in Python floats: numpy's vector power can round a cube
        # differently from its scalar one, which would tie a row to its place in the stack
        lam[ahead] *= [max(1.0 / 3.0, 1.0 - (2.0 * g - 1.0) ** 3) for g in gain[accepted].tolist()]
        grow[ahead] = 2.0


def least_squares(x, data: MeasurementDataset, idx, config: FitConfig) -> LeastSquaresResult:
    """Levenberg-Marquardt minimization of |_residuals(x)|^2 from fit vector x.

    Each iteration solves (J^T J + lam D) p = -J^T f for the step p, where
    D is the running maximum (Moré) of each squared Jacobian column, and
    takes it if it lowers the cost: lam then shrinks by Nielsen's rule, and
    otherwise grows by a factor that doubles on each rejection.  The damped
    system is positive definite as long as the first Jacobian has no zero
    column: ``fit``'s starts, with eta in [0.05, 0.95], have none.  Trial
    points fold every theta into [0, pi/2], which covers each eta = sin^2
    exactly once, so no bound is needed.  At most ``config.max_iterations``
    residual evaluations are spent; ``Stop`` lists the ways it ends.  This
    is the stack of one of the solver that ``fit`` runs on all its starts.
    """
    end = _lm_stack(np.asarray(x, dtype=float)[None], data, idx, config)
    return LeastSquaresResult(end.x[0], end.fun[0], int(end.nfev[0]), int(end.njev[0]),
                              Stop(end.status[0]))


def objective(params: CircuitParameters, data: MeasurementDataset) -> float:
    """Sum of squared uncertainty-weighted residuals over all observables.

    Observables with zero stated uncertainty get unit weight; a pair whose
    predicted visibility is undefined contributes a fixed 1e6 penalty;
    ``params.circuit`` is compiled with all 19 parameters.
    """
    idx = _pair_index_arrays(data.visibility_pairs())
    r = _observable_residuals(compile_circuit(params.circuit), data, idx)
    return float(r @ r)


def fit(data: MeasurementDataset, config: FitConfig = FitConfig()) -> ReconstructionResult:
    """Multi-start Levenberg-Marquardt least squares over the 12 identifiable parameters.

    The observables are unchanged by U -> D1 U D2, D1 and D2 diagonal phase
    matrices, so the fit vector is the 8 coupler angles and phi5-phi8
    (``circuit.FIT_PHASES`` says why), the result's other phases are 0, and
    its U is one representative of D1 U D2.  Each start draws 8 etas and 11
    phases from the seeded generator, in restart order, and keeps phi5-phi8.
    The starts run as the rows of one Levenberg-Marquardt stack, at most
    RESTART_STACK at a time (``_lm_stack``), and each restart ends bit for bit
    as ``least_squares`` from its start would.  Records are kept in restart
    order and end at the first restart whose cost falls to
    ``config.tolerance``: its stack stops once it and every earlier restart
    have ended, and no later stack starts, so a noiseless fit may spend work
    on later rows of that stack that it then drops.  The lowest final cost
    wins, ties broken by the earliest restart.
    Each coupler is fitted by its angle theta, with eta = sin(theta)^2, so
    every reflectivity stays in [0, 1] without a bound; a start eta maps to
    theta = arcsin(sqrt(eta)).  Phases are fitted unbounded and wrapped
    into [0, 2*pi) at the end so the branch cut cannot inflate residuals.

    Each residual evaluation compiles the network straight from the
    parameter vector by in-place row updates.  The Jacobian is exact, not
    finite differences: dU/dx_k comes from the products of the steps
    before and after parameter k's element, and the observables follow
    by the chain rule.  The coupler derivative in theta is finite for
    every eta in [0, 1].  One DEBUG line per recorded restart goes to the
    "bosonsim" logger.
    """
    pairs = data.visibility_pairs()
    idx = _pair_index_arrays(pairs)
    rng = _seeded_rng(config.seed)
    runs: list[tuple[RestartRecord, np.ndarray]] = []
    for first in range(0, config.restarts, RESTART_STACK):
        starts = np.array([
            _parameter_vector(rng.uniform(0.05, 0.95, ETA_COUNT),
                              rng.uniform(0.0, TWO_PI, PHI_COUNT))
            for _ in range(min(RESTART_STACK, config.restarts - first))
        ])
        end = _lm_stack(starts, data, idx, config)
        for row, (x, fun, nfev, njev, status) in enumerate(zip(*end)):
            record = RestartRecord(first + row, float(fun @ fun), int(nfev), int(njev),
                                   Stop(status))
            runs.append((record, x))
            logger.debug(
                "fit restart %d: cost %.6g, nfev %d, njev %d, status %d (%s)",
                record.start, record.cost, record.nfev, record.njev, record.status,
                record.status.name,
            )
        if runs[-1][0].cost <= config.tolerance:  # the stack was cut there
            break
    best, best_x = min(runs, key=lambda run: run[0].cost)
    if best.cost >= UNDEFINED_PENALTY:
        raise NonConvergenceError(
            f"best objective {best.cost:.6g} never fell below the penalty floor"
        )
    phis = np.zeros(PHI_COUNT)
    phis[FIT_PHASES] = wrap_phases(best_x[ETA_COUNT:])
    params = CircuitParameters(tuple(np.sin(best_x[:ETA_COUNT]) ** 2), tuple(phis))
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
    u, pairs = _checked_network(U), _CANDIDATE_PAIRS
    if not (_is_integer(count) and 0 <= count <= len(pairs)):
        raise ValueError(f"visibility pair count must lie in 0..{len(pairs)}, got {count!r}")
    _, classical = _two_photon_rates(u, _CANDIDATE_INDEX)
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
    if counts_per_setting > COUNTS_LIMIT:
        raise ValueError(f"counts_per_setting must be at most {COUNTS_LIMIT}")
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
