"""Property tests of the file round trips of predicted and simulated observables.

Examples are drawn deterministically (``derandomize=True``), so every run
checks the same cases.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim import (
    CircuitParameters,
    ReconstructionResult,
    compile_circuit,
    io,
    predict_observables,
    random_circuit,
    simulate_dataset,
)
from bosonsim.interference import CLASSICAL_RATE_FLOOR, _two_photon_rates
from bosonsim.reconstruction import _pair_index_arrays

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
ALL_PAIRS = list(itertools.product(itertools.combinations(range(1, 6), 2), repeat=2))


def _params_of(circuit) -> CircuitParameters:
    return CircuitParameters(
        tuple(e.eta for e in circuit.couplers()), tuple(p.phi for p in circuit.phases())
    )


def _defined_pairs(params) -> list:
    """The pairs of ALL_PAIRS whose classical rate is above the floor, so V is defined."""
    _, classical = _two_photon_rates(compile_circuit(params.circuit), _pair_index_arrays(ALL_PAIRS))
    return [pair for pair, rate in zip(ALL_PAIRS, classical) if rate > CLASSICAL_RATE_FLOOR]


@st.composite
def circuit_cases(draw):
    """Parameters of a random canonical circuit and a subset of its defined pairs."""
    params = _params_of(random_circuit(draw(st.integers(0, 999))))
    defined = _defined_pairs(params)
    keep = draw(st.lists(st.booleans(), min_size=len(defined), max_size=len(defined)))
    return params, [pair for pair, kept in zip(defined, keep) if kept]


def _result_round_trip(result: ReconstructionResult) -> ReconstructionResult:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.txt"
        io.write_result(path, result)
        return io.read_result(path)


def _assert_result_round_trips(params, pairs):
    predicted = predict_observables(params, pairs)
    result = ReconstructionResult(params, 0.0, predicted, iterations=1, restarts_used=1)
    back = _result_round_trip(result)
    assert back.params == params
    assert np.array_equal(back.predicted.singles, predicted.singles)
    assert back.predicted.visibilities == predicted.visibilities


@PROPERTY_SETTINGS
@given(circuit_cases())
def test_predicted_observables_survive_a_result_file(case):
    _assert_result_round_trips(*case)


@PROPERTY_SETTINGS
@given(circuit_cases(), st.sampled_from([1, 3, 20_000, 10**8]), st.integers(0, 2**16))
def test_simulated_dataset_survives_a_dataset_file(case, counts, seed):
    params, pairs = case
    data = simulate_dataset(params, counts, seed, pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.txt"
        io.write_dataset(path, data)
        back = io.read_dataset(path)
    # read renormalizes columns; simulated columns already sum to one
    assert np.allclose(back.singles, data.singles, rtol=0, atol=1e-15)
    assert np.allclose(back.singles_sigma, data.singles_sigma, rtol=0, atol=1e-15)
    assert back.visibilities == data.visibilities


def test_visibility_of_minus_one_survives_a_result_file():
    # V = -1 exactly for this pair on the canonical chip; unclipped, the closed
    # form gives -1.0000000000000002 here, which read_result rejects
    params = _params_of(random_circuit(5))
    assert predict_observables(params, [((1, 2), (4, 5))]).visibilities[0].value == -1.0
    _assert_result_round_trips(params, [((1, 2), (4, 5))])


def test_every_defined_pair_survives_a_result_file():
    for seed in range(200):
        params = _params_of(random_circuit(seed))
        _assert_result_round_trips(params, _defined_pairs(params))
