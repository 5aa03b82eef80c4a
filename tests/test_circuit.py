import numpy as np
import pytest

from bosonsim import (
    Coupler,
    OpticalCircuit,
    PhaseShifter,
    compile_circuit,
    default_topology,
    element_unitary,
    is_unitary,
    random_circuit,
    visibility,
)
from bosonsim.circuit import COUPLER_UPPER_MODES, _couple, _vector_step, wrap_phases


def dense_element(element, m):
    """The element's m x m matrix, written out entry by entry."""
    g = np.eye(m, dtype=complex)
    i = element.mode - 1
    if isinstance(element, Coupler):
        t, r = np.sqrt(1.0 - element.eta), np.sqrt(element.eta)
        g[i : i + 2, i : i + 2] = [[t, 1j * r], [1j * r, t]]
    else:
        g[i, i] = np.exp(1j * element.phi)
    return g


def test_balanced_coupler_unitary():
    u = element_unitary(Coupler(1, 0.5), 2)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(u, np.array([[s, 1j * s], [1j * s, s]]), atol=1e-15)


def test_transparent_elements_are_identity():
    assert np.array_equal(element_unitary(Coupler(2, 0.0), 4), np.eye(4))
    assert np.array_equal(element_unitary(PhaseShifter(3, 0.0), 4), np.eye(4))


def test_coupler_power_balance():
    for eta in (0.0, 0.13, 0.5, 0.99, 1.0):
        u = element_unitary(Coupler(1, eta), 2)
        t, r = u[0, 0].real, u[0, 1].imag
        assert abs(t * t + r * r - 1.0) < 1e-15


def test_element_validation():
    with pytest.raises(ValueError):
        element_unitary(Coupler(2, 0.5), 2)  # needs modes (2, 3)
    with pytest.raises(ValueError):
        element_unitary(PhaseShifter(3, 0.1), 2)
    with pytest.raises(ValueError):
        Coupler(1, 1.5)
    with pytest.raises(ValueError):
        PhaseShifter(1, -0.1)
    with pytest.raises(ValueError):
        PhaseShifter(1, 2 * np.pi)


def test_compile_empty_circuit():
    assert np.array_equal(compile_circuit(OpticalCircuit(5, ())), np.eye(5))


def test_compile_single_element():
    c = OpticalCircuit(3, (Coupler(2, 0.3),))
    assert np.array_equal(compile_circuit(c), element_unitary(Coupler(2, 0.3), 3))


def test_compile_applies_later_elements_after_earlier():
    first = PhaseShifter(1, 1.0)
    second = Coupler(1, 0.5)
    c = OpticalCircuit(2, (first, second))
    expected = element_unitary(second, 2) @ element_unitary(first, 2)
    assert np.array_equal(compile_circuit(c), expected)


def test_compile_matches_dense_product():
    for seed in range(100):
        c = random_circuit(seed)
        dense = np.eye(5, dtype=complex)
        for element in c.elements:
            dense = dense_element(element, 5) @ dense
        assert np.max(np.abs(compile_circuit(c) - dense)) < 1e-14


def test_row_updates_on_transpose_multiply_from_the_right():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    for element in (Coupler(2, 0.3), Coupler(4, 0.9), PhaseShifter(3, 1.2)):
        b = a.copy()
        if isinstance(element, Coupler):
            _couple(b.T, element.mode - 1, np.sqrt(1.0 - element.eta), np.sqrt(element.eta))
        else:
            _vector_step(b.T, element.mode - 1, False, (None, None, np.exp(1j * element.phi)))
        assert np.max(np.abs(b - a @ dense_element(element, 5))) < 1e-14


def coupler_block(theta):
    """The 2 x 2 coupler block at eta = sin(theta)^2, written out from eta."""
    return dense_element(Coupler(1, np.sin(theta) ** 2), 2)


def test_row_update_applies_coupler_derivative():
    # with (t, r) = (-sin, cos) of theta the update applies dG/dtheta
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    theta, h = np.arcsin(np.sqrt(0.37)), 1e-6
    d_block = (coupler_block(theta + h) - coupler_block(theta - h)) / (2 * h)
    got = rows.copy()
    _couple(got, 0, -np.sin(theta), np.cos(theta))
    assert np.max(np.abs(got - d_block @ rows)) < 1e-8


@pytest.mark.parametrize("eta, side", [(0.0, 1.0), (1.0, -1.0)])
def test_row_update_coupler_derivative_at_eta_ends(eta, side):
    # at eta = 0 and 1 the theta-derivative is finite and matches the
    # second-order one-sided difference that keeps theta in [0, pi/2]
    def block(theta):  # from theta itself: 1 - eta loses its digits near eta = 1
        t, r = np.cos(theta), np.sin(theta)
        return np.array([[t, 1j * r], [1j * r, t]])

    rng = np.random.default_rng(6)
    rows = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    theta, h = np.arcsin(np.sqrt(eta)), side * 1e-6
    assert np.max(np.abs(block(theta) - dense_element(Coupler(1, eta), 2))) < 1e-15
    d_block = (-3 * block(theta) + 4 * block(theta + h) - block(theta + 2 * h)) / (2 * h)
    got = rows.copy()
    _couple(got, 0, -np.sin(theta), np.cos(theta))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - d_block @ rows)) < 1e-8


def test_compiled_circuits_are_unitary():
    for seed in range(100):
        assert is_unitary(compile_circuit(random_circuit(seed)), 1e-10)


def test_elementwise_inverse_recovers_identity():
    c = random_circuit(17)
    u = compile_circuit(c)
    inverse = np.eye(5, dtype=complex)
    for element in c.elements:
        # coupler inverse keeps eta with a conjugated block; phase inverse negates phi
        inverse = inverse @ element_unitary(element, 5).conj().T
    assert np.max(np.abs(inverse @ u - np.eye(5))) < 1e-10


def test_disjoint_elements_commute():
    a = Coupler(1, 0.4)
    b = Coupler(3, 0.7)
    u_ab = compile_circuit(OpticalCircuit(5, (a, b)))
    u_ba = compile_circuit(OpticalCircuit(5, (b, a)))
    assert np.max(np.abs(u_ab - u_ba)) < 1e-12


def test_default_topology_shape():
    c = default_topology([0.5] * 8, [0.1] * 11)
    assert c.mode_count == 5
    assert len(c.elements) == 19
    assert len(c.couplers()) == 8
    assert len(c.phases()) == 11
    # parameter order follows the documented column order
    assert tuple(e.mode for e in c.couplers()) == COUPLER_UPPER_MODES


def test_default_topology_identity():
    u = compile_circuit(default_topology([0.0] * 8, [0.0] * 11))
    assert np.array_equal(u, np.eye(5))


def test_default_topology_zero_phases_real_or_imaginary():
    etas = np.linspace(0.2, 0.9, 8)
    u = compile_circuit(default_topology(etas, [0.0] * 11))
    smaller = np.minimum(np.abs(u.real), np.abs(u.imag))
    assert np.max(smaller) < 1e-12


def test_default_topology_arity():
    with pytest.raises(ValueError):
        default_topology([0.5] * 7, [0.0] * 11)
    with pytest.raises(ValueError):
        default_topology([0.5] * 8, [0.0] * 10)


def test_random_circuit_deterministic():
    assert random_circuit(9) == random_circuit(9)


def test_random_circuit_parameter_ranges():
    for seed in range(20):
        c = random_circuit(seed)
        assert all(0.2 <= e.eta <= 0.8 for e in c.couplers())
        assert all(0.0 <= p.phi < 2 * np.pi for p in c.phases())


def test_random_circuits_show_two_photon_interference():
    # every drawn network has at least one visibly interfering pair
    import itertools

    pair_list = list(itertools.combinations(range(1, 6), 2))
    for seed in range(100):
        u = compile_circuit(random_circuit(seed))
        found = False
        for in_pair in pair_list:
            for out_pair in pair_list:
                try:
                    if abs(visibility(u, in_pair, out_pair)) > 0.05:
                        found = True
                        break
                except ValueError:
                    continue
            if found:
                break
        assert found, f"seed {seed} produced no interfering pair"


def test_wrap_phases():
    w = wrap_phases([-0.5, 0.0, 2 * np.pi, 7.0, -1e-18])
    assert np.all((0.0 <= w) & (w < 2 * np.pi))
    assert np.isclose(w[0], 2 * np.pi - 0.5)
    assert w[1] == 0.0
    assert w[2] == 0.0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Coupler(0, 0.5), "coupler mode must be a positive integer, got 0"),
        (lambda: PhaseShifter(0, 0.5), "phase mode must be a positive integer, got 0"),
        (lambda: OpticalCircuit(0, ()), "mode count must be a positive integer"),
        (lambda: OpticalCircuit(2, ("mirror",)), "unknown circuit element 'mirror'"),
        (lambda: compile_circuit(OpticalCircuit(3, (Coupler(1.5, 0.3),))),
         "coupler mode must be a positive integer, got 1.5"),
        (lambda: compile_circuit(OpticalCircuit(2.5, ())),
         "mode count must be a positive integer, got 2.5"),
        (lambda: compile_circuit(OpticalCircuit(3, (PhaseShifter(2.5, 0.3),))),
         "phase mode must be a positive integer, got 2.5"),
        (lambda: Coupler(np.nan, 0.3), "coupler mode must be a positive integer, got nan"),
    ],
)
def test_circuit_rejects_bad_modes_and_elements(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_integral_float_modes_are_stored_as_ints():
    c = OpticalCircuit(3.0, (Coupler(2.0, 0.3), PhaseShifter(np.int64(1), 0.2)))
    assert (c.mode_count, c.elements[0].mode, c.elements[1].mode) == (3, 2, 1)
    assert all(type(x) is int for x in (c.mode_count, c.elements[0].mode, c.elements[1].mode))
    same = OpticalCircuit(3, (Coupler(2, 0.3), PhaseShifter(1, 0.2)))
    assert np.array_equal(compile_circuit(c), compile_circuit(same))
