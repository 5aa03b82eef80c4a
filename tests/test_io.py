import io as textio

import numpy as np
import pytest

from bosonsim import (
    FitConfig,
    fit,
    predict_observables,
    random_circuit,
    random_unitary,
    simulate_dataset,
)
from bosonsim import io
from bosonsim.reconstruction import CircuitParameters


def test_complex_format_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** float(
            rng.integers(-8, 8)
        )
        assert io.parse_complex(io.format_complex(z)) == z


def test_parse_complex_accepts_bare_reals():
    assert io.parse_complex("2") == 2 + 0j
    assert io.parse_complex("-3.5e-2") == -0.035 + 0j
    assert io.parse_complex("1+2i") == 1 + 2j
    assert io.parse_complex("1-2i") == 1 - 2j


def test_parse_complex_rejects_junk():
    for bad in ("", "nan", "inf", "1+2x", "abc"):
        with pytest.raises(ValueError):
            io.parse_complex(bad)


def test_matrix_round_trip_exact(tmp_path):
    u = random_unitary(5, 3)
    path = tmp_path / "u.matrix"
    io.write_matrix(path, u)
    assert np.array_equal(io.read_matrix(path), u)


def test_matrix_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.matrix"
    path.write_text("1+0i 2+0i\n3+0i oops\n")
    with pytest.raises(ValueError, match=r":2:"):
        io.read_matrix(path)
    ragged = tmp_path / "ragged.matrix"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(ValueError, match=r":2:"):
        io.read_matrix(ragged)


def test_matrix_written_to_a_stream_matches_the_file(tmp_path):
    u = random_unitary(3, 4)
    path = tmp_path / "u.matrix"
    io.write_matrix(path, u)
    stream = textio.StringIO()
    io.write_matrix(stream, u)
    assert stream.getvalue() == path.read_text()


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (io.read_matrix, "# only a comment\n", r"f\.txt: no matrix rows found"),
        (io.read_circuit, "\n# only a comment\n", r"f\.txt: empty circuit file"),
        (io.read_circuit, "modes 2.5\n",
         r"f\.txt:1: mode count must be a positive integer, got 2\.5"),
        (io.read_circuit, "modes inf\n",
         r"f\.txt:1: mode count must be a positive integer, got inf"),
        (io.read_circuit, "modes 5\ncoupler 1.5 0.5\n",
         r"f\.txt:2: coupler mode must be a positive integer, got 1\.5"),
        (io.read_circuit, "modes 5\nphase 2.5 0.5\n",
         r"f\.txt:2: phase mode must be a positive integer, got 2\.5"),
        (io.read_result, "[parameters]\neta 1 0.5\n",
         r"f\.txt: missing \[parameters\] or \[fit\]"),
        (io.read_circuit, "modes abc\n", r"f\.txt:1: mode count must be a number, got 'abc'"),
        (io.read_circuit, "modes 5\ncoupler one 0.5\n",
         r"f\.txt:2: coupler mode must be a number, got 'one'"),
        (io.read_circuit, "modes 5\ncoupler 1 half\n",
         r"f\.txt:2: reflectivity must be a number, got 'half'"),
        (io.read_circuit, "modes 5\nphase 1 pi\n", r"f\.txt:2: phase must be a number, got 'pi'"),
    ],
)
def test_readers_reject_files_without_their_content(tmp_path, reader, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        reader(path)


def test_matrix_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "c.matrix"
    path.write_text("# a comment\n\n1 0\n0 1\n")
    assert np.array_equal(io.read_matrix(path), np.eye(2))


def test_circuit_round_trip(tmp_path):
    circuit = random_circuit(4)
    path = tmp_path / "net.circuit"
    io.write_circuit(path, circuit)
    assert io.read_circuit(path) == circuit


def test_circuit_parse_errors(tmp_path):
    path = tmp_path / "bad.circuit"
    path.write_text("modes 5\ncoupler 1\n")
    with pytest.raises(ValueError, match=r":2:"):
        io.read_circuit(path)
    path.write_text("coupler 1 0.5\n")
    with pytest.raises(ValueError, match="modes"):
        io.read_circuit(path)
    path.write_text("modes 5\ncoupler 5 0.5\n")
    with pytest.raises(ValueError):
        io.read_circuit(path)


def test_circuit_integers_accept_integral_floats(tmp_path):
    path = tmp_path / "net.circuit"
    path.write_text("modes 5.0\ncoupler 1.0 0.5\nphase 5.0 0.25\n")
    circuit = io.read_circuit(path)
    assert circuit.mode_count == 5
    assert [e.mode for e in circuit.elements] == [1, 5]
    assert all(type(x) is int for x in (circuit.mode_count, *(e.mode for e in circuit.elements)))


def test_detect_network_kind(tmp_path):
    c = tmp_path / "a.circuit"
    c.write_text("modes 2\ncoupler 1 0.5\n")
    m = tmp_path / "a.matrix"
    m.write_text("1 0\n0 1\n")
    assert io.detect_network_kind(c) == "circuit"
    assert io.detect_network_kind(m) == "matrix"


def test_dataset_round_trip(tmp_path):
    p = CircuitParameters(
        tuple(np.linspace(0.2, 0.8, 8)), tuple(np.linspace(0.0, 6.0, 11))
    )
    data = simulate_dataset(p, 5000, seed=9)
    path = tmp_path / "data.txt"
    io.write_dataset(path, data)
    back = io.read_dataset(path)
    # read renormalizes columns; simulated columns already sum to one
    assert np.allclose(back.singles, data.singles, atol=1e-15)
    assert np.allclose(back.singles_sigma, data.singles_sigma, atol=1e-15)
    assert back.visibilities == data.visibilities


def test_dataset_column_renormalization(tmp_path):
    path = tmp_path / "lossy.txt"
    lines = ["[singles]"]
    for j in range(1, 6):
        for k in range(1, 6):
            p = 0.16 if j == k else 0.16  # columns sum to 0.8: lossy measurement
            lines.append(f"{j} {k} {p} 0.01")
    lines.append("[visibilities]")
    path.write_text("\n".join(lines) + "\n")
    data = io.read_dataset(path)
    assert np.allclose(data.singles.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(data.singles, 0.2, atol=1e-12)


def test_dataset_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[singles]\n1 1 0.5 0\n")
    with pytest.raises(ValueError, match=r":2:.*positive"):
        io.read_dataset(path)
    path.write_text("[singles]\n1 1 0.5 0.01\n")
    with pytest.raises(ValueError, match="missing"):
        io.read_dataset(path)
    path.write_text("1 1 0.5 0.01\n")
    with pytest.raises(ValueError, match="section"):
        io.read_dataset(path)
    lines = ["[singles]"] + [
        f"{j} {k} 0.2 0.01" for j in range(1, 6) for k in range(1, 6)
    ]
    path.write_text("\n".join(lines) + "\n[visibilities]\n1 2 1 2 1.5 0.1\n")
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        io.read_dataset(path)
    path.write_text("\n".join(lines) + "\n[singles]\n" + lines[1] + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        io.read_dataset(path)


def _dataset_lines(first_single: str, visibility: str) -> list[str]:
    lines = ["[singles]", first_single]
    lines += [f"{j} {k} 0.2 0.01" for j in range(1, 6) for k in range(1, 6) if (j, k) != (1, 1)]
    return lines + ["[visibilities]", visibility]


@pytest.mark.parametrize(
    "first_single, visibility, bad_line",
    [
        ("1 1 0.2 nan", "1 2 1 2 0.5 0.01", 2),
        ("1 1 inf 0.01", "1 2 1 2 0.5 0.01", 2),
        ("1 1 0.2 inf", "1 2 1 2 0.5 0.01", 2),
        ("1 1 0.2 0.01", "1 2 1 2 0.5 nan", 28),
        ("1 1 0.2 0.01", "1 2 1 2 0.5 inf", 28),
    ],
)
def test_dataset_rejects_non_finite_values(tmp_path, first_single, visibility, bad_line):
    path = tmp_path / "nonfinite.txt"
    path.write_text("\n".join(_dataset_lines(first_single, visibility)) + "\n")
    with pytest.raises(ValueError, match=f":{bad_line}: non-finite"):
        io.read_dataset(path)


def test_result_round_trip(tmp_path):
    p = CircuitParameters(
        tuple(np.linspace(0.3, 0.7, 8)), tuple(np.linspace(0.1, 5.9, 11))
    )
    data = predict_observables(
        p, [((1, 2), (1, 2)), ((3, 4), (2, 5))]
    )
    result = fit(data, FitConfig(restarts=4, seed=3))
    path = tmp_path / "result.txt"
    io.write_result(path, result)
    back = io.read_result(path)
    assert back.params == result.params
    assert back.residual == result.residual
    assert back.iterations == result.iterations
    assert back.restarts_used == result.restarts_used
    assert np.array_equal(back.predicted.singles, result.predicted.singles)
    assert back.predicted.visibilities == result.predicted.visibilities


def test_float_serialization_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** float(rng.integers(-12, 12)))
        assert float(io.format_float(x)) == x


def _full_singles(first_single: str = "1 1 0.2 0.01") -> list[str]:
    return ["[singles]", first_single] + [
        f"{j} {k} 0.2 0.01" for j in range(1, 6) for k in range(1, 6) if (j, k) != (1, 1)
    ]


@pytest.mark.parametrize(
    "lines, message",
    [
        (_full_singles("1 1 0.2"), r":2: expected 'out in p sigma'"),
        (_full_singles("1 6 0.2 0.01"), r":2: .*outside 1\.\.5"),
        (_full_singles("0 1 0.2 0.01"), r":2: .*outside 1\.\.5"),
        (_full_singles("1 1 -0.2 0.01"), r":2: negative probability"),
        (_full_singles("1.5 1 0.2 0.01"), r":2: output modes must be integers, got \(1\.5,\)"),
        (_full_singles() + ["[visibilities]", "1 2.5 4 5 0.5 0.01"],
         r":28: input modes must be integers, got \(1\.0, 2\.5\)"),
        (_full_singles() + ["[visibilities]", "1 2 1 2 0.5"],
         r":28: expected 'in1 in2 out1 out2 V sigma'"),
        (_full_singles() + ["[visibilities]", "1 2 x 2 0.5 0.01"],
         r":28: invalid visibility entry"),
        (_full_singles() + ["[visibilities]", "1 2 1 6 0.5 0.01"], r":28: .*outside 1\.\.5"),
        (_full_singles() + ["[visibilities]", "0 2 1 2 0.5 0.01"], r":28: .*outside 1\.\.5"),
        (_full_singles() + ["[visibilities]", "2 2 1 2 0.5 0.01"], r":28: .*distinct"),
        (_full_singles() + ["[visibilities]", "1 2 4 4 0.5 0.01"], r":28: .*distinct"),
    ],
)
def test_dataset_line_errors_carry_line_numbers(tmp_path, lines, message):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        io.read_dataset(path)


def test_dataset_modes_accept_integral_floats(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("\n".join(_full_singles("1.0 1 0.2 0.01") + [
        "[visibilities]", "1 2.0 4.0 5 -0.5 0.01"]) + "\n")
    data = io.read_dataset(path)
    assert np.allclose(data.singles, 0.2, atol=1e-12)
    assert data.visibility_pairs() == [((1, 2), (4, 5))]


def test_dataset_missing_singles_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[visibilities]\n1 2 1 2 0.5 0.01\n")
    with pytest.raises(ValueError, match=r"bad\.txt: missing \[singles\]"):
        io.read_dataset(path)


def test_dataset_column_without_mass(tmp_path):
    lines = ["[singles]"] + [
        f"{j} {k} {0.0 if k == 3 else 0.2} 0.01" for j in range(1, 6) for k in range(1, 6)
    ]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"bad\.txt: a singles column has no probability mass"):
        io.read_dataset(path)


def _result_lines(tmp_path) -> list[str]:
    from bosonsim import ReconstructionResult

    params = CircuitParameters(tuple(np.linspace(0.3, 0.7, 8)), tuple(np.linspace(0.1, 5.9, 11)))
    result = ReconstructionResult(
        params=params,
        residual=0.25,
        predicted=predict_observables(params, [((1, 2), (1, 2))]),
        iterations=7,
        restarts_used=2,
    )
    path = tmp_path / "result.txt"
    io.write_result(path, result)
    return path.read_text().splitlines()


def _replace_line(lines, prefix, new):
    (index,) = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    return lines[:index] + new + lines[index + 1:], index + 1


# (line to replace, its replacement, index of the bad line in it or None, message)
@pytest.mark.parametrize(
    "prefix, new, bad, message",
    [
        ("eta 3 ", ["eta 2 0.5"], 0, "duplicate eta 2"),
        ("eta 3 ", ["eta 9 0.5"], 0, r"eta index 9 outside 1\.\.8"),
        ("phi 11 ", ["phi 0 0.5"], 0, r"phi index 0 outside 1\.\.11"),
        ("eta 3 ", ["eta three 0.5"], 0, "eta index must be a number, got 'three'"),
        ("eta 3 ", ["eta 3 1.5"], None, r"reflectivity must lie in \[0, 1\]"),
        ("residual ", ["residual nan"], 0, "residual must be finite and nonnegative, got nan"),
        ("residual ", ["residual 0.1", "residual 0.2"], 1, r"duplicate \[fit\] entry 'residual'"),
        ("iterations ", ["iterations 7", "nfev 7"], 1, r"unknown \[fit\] entry 'nfev'"),
        ("iterations ", ["iterations seven"], 0, "iterations must be a number, got 'seven'"),
        ("iterations ", ["iterations -5"], 0, "iterations must be a positive integer, got -5"),
        ("restarts_used ", ["restarts_used 0"], 0,
         "restarts_used must be a positive integer, got 0"),
        ("residual ", ["residual -0.5"], 0,
         r"residual must be finite and nonnegative, got -0\.5"),
        ("eta 3 ", ["eta 1"], 0, "expected 'eta k v' or 'phi k v'"),
        ("eta 3 ", ["eta 2.5 0.5"], 0, r"eta index must be a nonnegative integer, got 2\.5"),
        ("iterations ", ["iterations 7.5"], 0, r"iterations must be a positive integer, got 7\.5"),
        ("restarts_used ", ["restarts_used inf"], 0,
         "restarts_used must be a positive integer, got inf"),
        ("eta 3 ", ["eta 3 half"], 0, "eta 3 must be a number, got 'half'"),
        ("residual ", ["residual small"], 0, "residual must be a number, got 'small'"),
    ],
)
def test_read_result_rejects_bad_lines(tmp_path, prefix, new, bad, message):
    lines, lineno = _replace_line(_result_lines(tmp_path), prefix, new)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    where = r"bad\.txt: " if bad is None else rf"bad\.txt:{lineno + bad}: "
    with pytest.raises(ValueError, match=where + message):
        io.read_result(path)


def test_read_result_integers_accept_integral_floats(tmp_path):
    lines, _ = _replace_line(_result_lines(tmp_path), "eta 3 ", ["eta 3.0 0.5"])
    lines, _ = _replace_line(lines, "iterations ", ["iterations 7.0"])
    path = tmp_path / "float.txt"
    path.write_text("\n".join(lines) + "\n")
    result = io.read_result(path)
    assert result.params.etas[2] == 0.5
    assert result.iterations == 7 and type(result.iterations) is int


def test_read_result_duplicate_and_extra_eta(tmp_path):
    # eta 2 twice plus an eta 9 keeps eight etas: the old reader dropped eta 3
    lines, lineno = _replace_line(_result_lines(tmp_path), "eta 3 ", ["eta 2 0.5"])
    lines, _ = _replace_line(lines, "eta 8 ", ["eta 8 0.5", "eta 9 0.5"])
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.txt:{lineno}: duplicate eta 2"):
        io.read_result(path)


@pytest.mark.parametrize("key", ["residual", "iterations", "restarts_used"])
def test_read_result_missing_fit_entry(tmp_path, key):
    lines = [line for line in _result_lines(tmp_path) if not line.startswith(key + " ")]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.txt: \[fit\] is missing {key}"):
        io.read_result(path)


def test_parse_complex_rejects_overflow():
    for bad in ("1e400", "-1e400", "1+1e400i"):
        with pytest.raises(ValueError, match="invalid complex entry"):
            io.parse_complex(bad)


def test_matrix_overflow_carries_line_number(tmp_path):
    path = tmp_path / "big.matrix"
    path.write_text("1 0\n0 1e400\n")
    with pytest.raises(ValueError, match=r"big\.matrix:2: invalid complex entry '1e400'"):
        io.read_matrix(path)


def test_dataset_rejects_misspelled_section(tmp_path):
    path = tmp_path / "typo.txt"
    path.write_text("\n".join(_full_singles() + ["[visibility]", "1 2 1 2 0.5 0.01"]) + "\n")
    with pytest.raises(ValueError, match=r"typo\.txt:27: unknown section \[visibility\]"):
        io.read_dataset(path)


def test_result_rejects_unknown_section(tmp_path):
    lines, lineno = _replace_line(_result_lines(tmp_path), "[fit]", ["[fitting]"])
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.txt:{lineno}: unknown section \[fitting\]"):
        io.read_result(path)
