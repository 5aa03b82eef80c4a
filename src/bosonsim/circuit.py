"""Parameterized coupler/phase networks compiled to unitaries.

Mode indices are 1-based everywhere in this package, matching the way
chip modes are labeled.  A directional coupler on modes (i, i+1) with
power reflectivity eta applies the block

    [[T, iR], [iR, T]],   T = sqrt(1 - eta),  R = sqrt(eta),

and a phase shifter multiplies mode i by exp(i*phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _couple(u: np.ndarray, i: int, eta, derivative: bool = False) -> None:
    """Rows i, i+1 of u (0-based) <- B @ those rows, in place.

    B is the coupler block [[t, i*r], [i*r, t]] with t = sqrt(1 - eta) and
    r = sqrt(eta), or with ``derivative`` its eta-derivative dB/deta, which
    needs 0 < eta < 1.  B is symmetric, so on u.T this right-multiplies u by it.
    """
    t, r = math.sqrt(1.0 - eta), math.sqrt(eta)
    if derivative:
        t, r = -0.5 / t, 0.5 / r
    rows = u[i : i + 2]
    rows[:] = t * rows + 1j * r * rows[::-1]


def _shift_row(u: np.ndarray, i: int, phi) -> None:
    """Row i of u (0-based) <- exp(i*phi) * row i, in place."""
    u[i] *= complex(math.cos(phi), math.sin(phi))


def _apply_element(u: np.ndarray, element: CircuitElement) -> None:
    """u <- (unitary of element) @ u, in place."""
    if isinstance(element, Coupler):
        _couple(u, element.mode - 1, element.eta)
    else:
        _shift_row(u, element.mode - 1, element.phi)


def element_unitary(element: CircuitElement, m: int) -> np.ndarray:
    """m x m unitary of a single coupler or phase shifter."""
    return compile_circuit(OpticalCircuit(m, (element,)))


def compile_circuit(circuit: OpticalCircuit) -> np.ndarray:
    """Product of element unitaries, later elements applied after earlier ones.

    Each element updates the running unitary in place: a coupler mixes its
    two rows, a phase shifter scales its row, so no m x m product is formed.
    """
    u = np.eye(circuit.mode_count, dtype=np.complex128)
    for element in circuit.elements:
        _apply_element(u, element)
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


def _vector_unitary(x, prefixes=None) -> np.ndarray:
    """The canonical network's unitary at parameter vector x = etas + phis.

    Walks DEFAULT_STEPS with the elements' row updates and builds no circuit
    objects; phases need no wrapping.  If ``prefixes`` is a list, the
    product of the steps before each step is appended to it.
    """
    values = np.asarray(x, dtype=float).tolist()
    u = np.eye(DEFAULT_MODES, dtype=np.complex128)
    for row, k, coupler in DEFAULT_STEPS:
        if prefixes is not None:
            prefixes.append(u.copy())
        (_couple if coupler else _shift_row)(u, row, values[k])
    return u


def _unitary_jacobian(x):
    """U at x and the stack dU/dx_k over the parameters, shape (19, 5, 5).

    For step s with element G_s, dU = S_s (dG_s) P_s, where P_s is the
    product of the steps before it and S_s of those after it.  A phase
    gives the outer product i S_s[:, row] (G_s P_s)[row, :]; a coupler
    gives S_s[:, rows] dB P_s[rows, :] with dB its 2 x 2 block
    differentiated in eta.  S_s is kept transposed, so the symmetric row
    updates extend it by one step each.  Needs 0 < eta < 1.
    """
    values = np.asarray(x, dtype=float).tolist()
    prefixes: list[np.ndarray] = []
    u = _vector_unitary(values, prefixes)
    prefixes.append(u)
    du = np.empty((len(values), DEFAULT_MODES, DEFAULT_MODES), dtype=np.complex128)
    suffix_t = np.eye(DEFAULT_MODES, dtype=np.complex128)
    for s, (row, k, coupler) in reversed(list(enumerate(DEFAULT_STEPS))):
        if coupler:
            rows = prefixes[s][row : row + 2].copy()
            _couple(rows, 0, values[k], derivative=True)
            du[k] = suffix_t[row : row + 2].T @ rows
        else:
            du[k] = 1j * np.outer(suffix_t[row], prefixes[s + 1][row])
        (_couple if coupler else _shift_row)(suffix_t, row, values[k])
    return u, du
