"""Parameterized coupler/phase networks compiled to unitaries.

Mode indices are 1-based everywhere in this package, matching the way
chip modes are labeled.  A directional coupler on modes (i, i+1) with
power reflectivity eta applies the block

    [[T, iR], [iR, T]],   T = sqrt(1 - eta),  R = sqrt(eta),

and a phase shifter multiplies mode i by exp(i*phi).  The fit writes the
same block as T = cos(theta), R = sin(theta), so eta = sin(theta)^2; its
theta-derivative is the block at (T, R) = (-sin(theta), cos(theta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .unitary import _integer, _seeded_rng

TWO_PI = 2.0 * math.pi

# Canonical 5-mode layout: couplers on (1,2),(3,4),(2,3),(4,5) twice over,
# each preceded by a phase on its upper arm, plus output phases on modes 1-3.
DEFAULT_MODES = 5
COUPLER_UPPER_MODES = (1, 3, 2, 4, 1, 3, 2, 4)
OUTPUT_PHASE_MODES = (1, 2, 3)
ETA_COUNT = len(COUPLER_UPPER_MODES)
PHI_COUNT = ETA_COUNT + len(OUTPUT_PHASE_MODES)
RANDOM_ETA_RANGE = (0.2, 0.8)
# An m x m complex128 unitary takes 16 m^2 bytes, 64 MiB at this many modes;
# OpticalCircuit refuses more before compile_circuit allocates any m x m array.
MODE_LIMIT = 2048

# The canonical network as its 19 steps in input-to-output order, each a
# (0-based row, index into the parameter vector etas + phis, is-coupler)
# triple: the phase on the upper arm before each coupler, the coupler,
# then the output phases.
DEFAULT_STEPS = tuple(
    step
    for k, mode in enumerate(COUPLER_UPPER_MODES)
    for step in ((mode - 1, ETA_COUNT + k, False), (mode - 1, k, True))
) + tuple(
    (mode - 1, ETA_COUNT + len(COUPLER_UPPER_MODES) + j, False)
    for j, mode in enumerate(OUTPUT_PHASE_MODES)
)

# The phases the fit keeps: phi5-phi8, 0-based indices into phis.  Singles
# |U|^2 and visibilities do not change under U -> D1 U D2 with D1, D2 diagonal
# phase matrices (Laing & O'Brien, arXiv:1208.2868), so 7 of the 19 parameters
# are invisible.  phi1 and phi2 are input phases and phi9-phi11 output phases.
# A common phase on both arms of a coupler passes through it unchanged: on
# the outputs of the first (1,2) coupler it shifts phi3 and phi5 together,
# and moved through the first (3,4) and (2,3) couplers and the second (1,2)
# one it shifts phi4, phi6 and phi7 together.  Fixing phi3 = phi4 = 0 breaks
# both, and the Jacobian of the 8 thetas plus phi5-phi8 has full rank 12.
FIT_PHASES = range(4, 8)
# DEFAULT_STEPS with only those phases, each step indexing the fit vector
# thetas + phis[FIT_PHASES]; the dropped phase steps are identities at 0.
FIT_STEPS = tuple(
    (row, k if coupler else ETA_COUNT + FIT_PHASES.index(k - ETA_COUNT), coupler)
    for row, k, coupler in DEFAULT_STEPS
    if coupler or k - ETA_COUNT in FIT_PHASES
)


def wrap_phases(phis) -> np.ndarray:
    """Angles reduced into [0, 2*pi)."""
    w = np.mod(np.asarray(phis, dtype=float), TWO_PI)
    w[w >= TWO_PI] = 0.0
    return w


@dataclass(frozen=True)
class Coupler:
    """Directional coupler on adjacent modes (mode, mode+1), 1-based."""

    mode: int
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "mode", _integer(self.mode, "coupler mode", 1))
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"reflectivity must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class PhaseShifter:
    """Phase shifter exp(i*phi) on a single mode, 1-based."""

    mode: int
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "mode", _integer(self.mode, "phase mode", 1))
        if not (0.0 <= self.phi < TWO_PI):
            raise ValueError(f"phase must lie in [0, 2*pi), got {self.phi}")


CircuitElement = Coupler | PhaseShifter


@dataclass(frozen=True)
class OpticalCircuit:
    """Ordered element list (input-to-output order) over mode_count modes."""

    mode_count: int
    elements: tuple[CircuitElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "mode_count", _integer(self.mode_count, "mode count", 1))
        object.__setattr__(self, "elements", tuple(self.elements))
        m = self.mode_count
        if m > MODE_LIMIT:
            raise SizeLimitError(f"mode count is capped at {MODE_LIMIT}, got {m}")
        for e in self.elements:
            if isinstance(e, Coupler):
                if e.mode > m - 1:
                    raise ValueError(f"coupler on modes ({e.mode}, {e.mode + 1}) "
                                     f"does not fit in {m} modes")
            elif isinstance(e, PhaseShifter):
                if e.mode > m:
                    raise ValueError(f"phase on mode {e.mode} does not fit in {m} modes")
            else:
                raise ValueError(f"unknown circuit element {e!r}")

    def couplers(self) -> list[Coupler]:
        return [e for e in self.elements if isinstance(e, Coupler)]

    def phases(self) -> list[PhaseShifter]:
        return [e for e in self.elements if isinstance(e, PhaseShifter)]


def _couple(u: np.ndarray, i: int, t, r) -> None:
    """Rows i, i+1 of u (0-based, over its last two axes) <- B @ those rows, in place.

    B is the coupler block [[t, i*r], [i*r, t]].  With t = cos(theta) and
    r = sin(theta) its theta-derivative [[-r, i*t], [i*t, -r]] is the same
    block at (t, r) = (-sin(theta), cos(theta)), so one update applies both.
    t and r broadcast against the rows, so each matrix of a stack u can have
    its own block.  B is symmetric, so on u.T this right-multiplies u by it.
    """
    rows = u[..., i : i + 2, :]
    rows[...] = t * rows + 1j * r * rows[..., ::-1, :]


def element_unitary(element: CircuitElement, m: int) -> np.ndarray:
    """m x m unitary of a single coupler or phase shifter."""
    return compile_circuit(OpticalCircuit(m, (element,)))


def compile_circuit(circuit: OpticalCircuit) -> np.ndarray:
    """Product of element unitaries, later elements applied after earlier ones.

    Each element updates the running unitary in place: a coupler mixes its
    two rows, a phase shifter scales its row, so no m x m product is formed.
    """
    u = np.eye(circuit.mode_count, dtype=np.complex128)
    for e in circuit.elements:
        if isinstance(e, Coupler):
            _couple(u, e.mode - 1, math.sqrt(1.0 - e.eta), math.sqrt(e.eta))
        else:
            u[e.mode - 1] *= complex(math.cos(e.phi), math.sin(e.phi))
    return u


def default_topology(etas, phis) -> OpticalCircuit:
    """The canonical 5-mode network: 8 couplers and 11 phase shifters.

    etas[k] is the reflectivity of the k-th coupler in column order
    (1,2),(3,4),(2,3),(4,5),(1,2),(3,4),(2,3),(4,5); phis[k] for k < 8
    sits on the upper arm just before that coupler, and phis[8:] are
    output phases on modes 1, 2, 3.
    """
    etas = [float(e) for e in etas]
    phis = [float(p) for p in phis]
    for name, values, count in (("reflectivities", etas, ETA_COUNT), ("phases", phis, PHI_COUNT)):
        if len(values) != count:
            raise ValueError(f"expected {count} {name}, got {len(values)}")
    values = etas + phis
    return OpticalCircuit(DEFAULT_MODES, tuple(
        Coupler(row + 1, values[k]) if coupler else PhaseShifter(row + 1, values[k])
        for row, k, coupler in DEFAULT_STEPS
    ))


def random_circuit(seed: int) -> OpticalCircuit:
    """Default topology with eta ~ U[0.2, 0.8] and phi ~ U[0, 2*pi), seeded."""
    rng = _seeded_rng(seed)
    etas = rng.uniform(*RANDOM_ETA_RANGE, size=ETA_COUNT)
    phis = rng.uniform(0.0, TWO_PI, size=PHI_COUNT)
    return default_topology(etas, wrap_phases(phis))


def _parameter_vector(etas, phis) -> np.ndarray:
    """The fit vector thetas + phis[FIT_PHASES], theta = arcsin(sqrt(eta)), of 8 etas, 11 phis."""
    return np.concatenate([np.arcsin(np.sqrt(np.asarray(etas, dtype=float))),
                           np.asarray(phis, dtype=float)[FIT_PHASES]])


def _step_factors(x) -> list:
    """(cos, sin, exp(i*)) of each fit vector entry, shaped (..., 1, 1) to scale rows."""
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)[..., None, None]
    cos, sin = np.cos(x), np.sin(x)
    phase = np.empty(x.shape, dtype=np.complex128)
    phase.real, phase.imag = cos, sin
    return list(zip(cos, sin, phase))


def _vector_step(u: np.ndarray, row: int, coupler: bool, factors) -> None:
    """One step of the vector compiler: a coupler at theta, or a phase, of ``_step_factors``."""
    cos, sin, phase = factors
    if coupler:
        _couple(u, row, cos, sin)
    else:
        u[..., row : row + 1, :] *= phase


def _identity_stack(lead: tuple) -> np.ndarray:
    return np.broadcast_to(np.eye(DEFAULT_MODES, dtype=np.complex128),
                           (*lead, DEFAULT_MODES, DEFAULT_MODES)).copy()


def _vector_unitary(x) -> np.ndarray:
    """The canonical network's unitary at fit vector x = thetas + phis[FIT_PHASES].

    Walks FIT_STEPS, so the other phases are 0, with the elements' row
    updates and builds no circuit objects; no angle needs wrapping.  x may
    carry leading stack axes, x[..., k], giving one unitary per vector,
    shape (..., 5, 5); each matrix of the stack gets the same row updates,
    in the same order, as a lone vector would.
    """
    factors = _step_factors(x)
    u = _identity_stack(np.shape(x)[:-1])
    for row, k, coupler in FIT_STEPS:
        _vector_step(u, row, coupler, factors[k])
    return u


def _unitary_jacobian(x):
    """U at fit vector x and the stack dU/dx_k over its 12 entries, shape (..., 12, 5, 5).

    x may carry leading stack axes, as in ``_vector_unitary``, and U then
    has shape (..., 5, 5).  For step s with element G_s, dU = S_s (dG_s) P_s,
    where P_s is the product of the steps before it and S_s of those after
    it.  A phase gives the outer product i S_s[:, row] (G_s P_s)[row, :]; a
    coupler gives S_s[:, rows] dB P_s[rows, :], with dB the block at
    (t, r) = (-sin, cos) of theta, finite for every theta.  S_s is kept
    transposed, so the symmetric row updates extend it by one step each.
    """
    factors = _step_factors(x)
    lead = np.shape(x)[:-1]
    prefixes = [_identity_stack(lead)]
    for row, k, coupler in FIT_STEPS:
        prefixes.append(prefixes[-1].copy())
        _vector_step(prefixes[-1], row, coupler, factors[k])
    du = np.empty((*lead, len(FIT_STEPS), DEFAULT_MODES, DEFAULT_MODES), dtype=np.complex128)
    suffix_t = _identity_stack(lead)
    for s, (row, k, coupler) in reversed(list(enumerate(FIT_STEPS))):
        if coupler:
            cos, sin, _ = factors[k]
            rows = prefixes[s][..., row : row + 2, :].copy()
            _couple(rows, 0, -sin, cos)
            du[..., k, :, :] = np.swapaxes(suffix_t[..., row : row + 2, :], -1, -2) @ rows
        else:
            du[..., k, :, :] = 1j * (suffix_t[..., row, :, None]
                                     * prefixes[s + 1][..., None, row, :])
        _vector_step(suffix_t, row, coupler, factors[k])
    return prefixes[-1], du
