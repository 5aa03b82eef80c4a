"""Property tests of the chip compiler and of the network file round trips.

Circuits have 1-6 modes and 0-12 elements in any order; reflectivities
include exactly 0 and 1, and phases lie in [0, 2*pi).  Examples are drawn
deterministically (``derandomize=True``), so every run checks the same
cases.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_circuit import dense_element

from bosonsim import Coupler, OpticalCircuit, PhaseShifter, compile_circuit, io
from bosonsim.circuit import TWO_PI

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)
EDGE_CIRCUIT = OpticalCircuit(3, (Coupler(1, 0.0), PhaseShifter(3, 0.0), Coupler(2, 1.0),
                                  PhaseShifter(1, np.nextafter(TWO_PI, 0.0)), Coupler(1, 1.0)))


@st.composite
def circuits(draw):
    m = draw(st.integers(1, 6))
    etas = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    phases = st.builds(PhaseShifter, st.integers(1, m), st.floats(0.0, TWO_PI, exclude_max=True))
    couplers = st.builds(Coupler, st.integers(1, m - 1), etas) if m > 1 else st.nothing()
    return OpticalCircuit(m, tuple(draw(st.lists(couplers | phases, max_size=12))))


def _round_trip(write, read, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.txt"
        write(path, value)
        return read(path)


@PROPERTY_SETTINGS
@given(circuits())
@example(EDGE_CIRCUIT)
def test_compile_matches_the_ordered_dense_product(circuit):
    dense = np.eye(circuit.mode_count, dtype=complex)
    for element in circuit.elements:
        dense = dense_element(element, circuit.mode_count) @ dense
    assert np.max(np.abs(compile_circuit(circuit) - dense), initial=0.0) <= 1e-14


@PROPERTY_SETTINGS
@given(circuits())
@example(EDGE_CIRCUIT)
def test_circuit_file_round_trip_compiles_bit_for_bit(circuit):
    back = _round_trip(io.write_circuit, io.read_circuit, circuit)
    assert back == circuit
    assert compile_circuit(back).tobytes() == compile_circuit(circuit).tobytes()


@PROPERTY_SETTINGS
@given(st.integers(1, 6).flatmap(lambda columns: st.lists(
    st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
             min_size=columns, max_size=columns),
    min_size=1, max_size=6)))
def test_matrix_file_round_trip_is_bit_for_bit(rows):
    matrix = np.array(rows, dtype=np.complex128)
    back = _round_trip(io.write_matrix, io.read_matrix, matrix)
    assert back.shape == matrix.shape
    assert back.tobytes() == matrix.tobytes()
