"""Plain-text file formats shared by the CLI.

All formats are line oriented; blank lines and lines starting with '#'
are ignored on input.  Numbers are serialized with 17 significant digits
so a parse -> serialize round trip reproduces the exact float64 values.

matrix    one row per line, complex entries "re+imi" separated by spaces
circuit   "modes m" then one element per line: "coupler i eta" | "phase i phi"
dataset   "[singles]" block of "out in p sigma" lines, then
          "[visibilities]" block of "in1 in2 out1 out2 V sigma" lines
result    "[parameters]" and "[fit]" blocks followed by the predicted
          observables in dataset form
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from .circuit import DEFAULT_MODES, ETA_COUNT, PHI_COUNT, Coupler, OpticalCircuit, PhaseShifter
from .fock import OutputDistribution
from .interference import _mode_tuple
from .reconstruction import (
    CircuitParameters,
    MeasurementDataset,
    ReconstructionResult,
    VisibilityRecord,
)
from .unitary import _integer


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    try:
        z = complex(token.strip().lower().replace("i", "j"))
        if np.isfinite(z):
            return z
    except ValueError:
        pass
    raise ValueError(f"invalid complex entry {token!r}")


def _number(token: str, field: str) -> float:
    """float(token), or a ValueError that names the field."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{field} must be a number, got {token!r}") from None


@contextlib.contextmanager
def _as_output(dest):
    """Yield a text stream for a path, an open stream, or None (stdout)."""
    if dest is None:
        yield sys.stdout
    elif hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _significant_lines(path) -> list[tuple[int, str]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


def _located(path, lineno, exc: ValueError) -> ValueError:
    """exc with its file, and its line when known, in front of the message."""
    where = path if lineno is None else f"{path}:{lineno}"
    return ValueError(f"{where}: {exc}")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def read_matrix(path) -> np.ndarray:
    lines = _significant_lines(path)
    rows = []
    lineno = None
    try:
        for lineno, line in lines:
            rows.append([parse_complex(tok) for tok in line.split()])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"expected {len(rows[0])} entries per row")
        if not rows:
            raise ValueError("no matrix rows found")
    except ValueError as exc:
        raise _located(path, lineno, exc) from None
    return np.array(rows, dtype=np.complex128)


def write_matrix(dest, matrix) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    with _as_output(dest) as fh:
        for row in m:
            fh.write(" ".join(format_complex(z) for z in row) + "\n")


# ----------------------------------------------------------------------
# circuits
# ----------------------------------------------------------------------

def read_circuit(path) -> OpticalCircuit:
    lines = _significant_lines(path)
    lineno = None
    try:
        if not lines:
            raise ValueError("empty circuit file")
        lineno, header = lines[0]
        fields = header.split()
        if len(fields) != 2 or fields[0] != "modes":
            raise ValueError(f"expected 'modes m', got {header!r}")
        mode_count = _integer(_number(fields[1], "mode count"), "mode count", 1)
        elements = []
        for lineno, line in lines[1:]:
            fields = line.split()
            if len(fields) == 3 and fields[0] == "coupler":
                elements.append(Coupler(_number(fields[1], "coupler mode"),
                                        _number(fields[2], "reflectivity")))
            elif len(fields) == 3 and fields[0] == "phase":
                elements.append(PhaseShifter(_number(fields[1], "phase mode"),
                                             _number(fields[2], "phase")))
            else:
                raise ValueError(f"expected 'coupler i eta' or 'phase i phi', got {line!r}")
        lineno = None
        return OpticalCircuit(mode_count, tuple(elements))
    except ValueError as exc:
        raise _located(path, lineno, exc) from None


def write_circuit(dest, circuit: OpticalCircuit) -> None:
    with _as_output(dest) as fh:
        fh.write(f"modes {circuit.mode_count}\n")
        for element in circuit.elements:
            if isinstance(element, Coupler):
                fh.write(f"coupler {element.mode} {format_float(element.eta)}\n")
            else:
                fh.write(f"phase {element.mode} {format_float(element.phi)}\n")


def detect_network_kind(path) -> str:
    """'circuit' if the first significant line is a modes header, else 'matrix'."""
    lines = _significant_lines(path)
    if lines and lines[0][1].split()[:1] == ["modes"]:
        return "circuit"
    return "matrix"


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

def _split_sections(path, names) -> dict[str, list[tuple[int, str]]]:
    """Lines of each [section] of the file; a header not in ``names`` is an error."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, line in _significant_lines(path):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current not in names:
                expected = " or ".join(f"[{name}]" for name in names)
                raise ValueError(f"{path}:{lineno}: unknown section {line}, expected {expected}")
            sections.setdefault(current, [])
        elif current is None:
            raise ValueError(f"{path}:{lineno}: data before any [section] header")
        else:
            sections[current].append((lineno, line))
    return sections


def _observable_line(line: str, entry: str, form: str, require_positive_sigma: bool):
    """(modes, value, sigma) of one line of ``form``, e.g. 'out in p sigma'."""
    fields = line.split()
    if len(fields) != len(form.split()):
        raise ValueError(f"expected '{form}', got {line!r}")
    try:
        modes = [float(x) for x in fields[:-2]]
        value, sigma = float(fields[-2]), float(fields[-1])
    except ValueError:
        raise ValueError(f"invalid {entry} entry {line!r}") from None
    if not (math.isfinite(value) and math.isfinite(sigma)):
        raise ValueError(f"non-finite {entry} entry {line!r}")
    if sigma < 0 or (require_positive_sigma and sigma == 0):
        raise ValueError("uncertainty must be positive")
    return modes, value, sigma


def _parse_observable_sections(path, sections, require_positive_sigma: bool):
    singles = np.full((DEFAULT_MODES, DEFAULT_MODES), np.nan)
    sigma = np.full((DEFAULT_MODES, DEFAULT_MODES), np.nan)
    records = []
    lineno = None
    try:
        if "singles" not in sections:
            raise ValueError("missing [singles] section")
        for lineno, line in sections["singles"]:
            modes, p, s = _observable_line(
                line, "singles", "out in p sigma", require_positive_sigma
            )
            j, k = (_mode_tuple(modes[:1], DEFAULT_MODES, "output")
                    + _mode_tuple(modes[1:], DEFAULT_MODES, "input"))
            if not np.isnan(singles[j - 1, k - 1]):
                raise ValueError(f"duplicate singles entry ({j}, {k})")
            if p < 0:
                raise ValueError(f"negative probability {p}")
            singles[j - 1, k - 1] = p
            sigma[j - 1, k - 1] = s
        for lineno, line in sections.get("visibilities", []):
            modes, value, s = _observable_line(
                line, "visibility", "in1 in2 out1 out2 V sigma", require_positive_sigma
            )
            records.append(VisibilityRecord(modes[:2], modes[2:], value, s))
        lineno = None
        if np.isnan(singles).any():
            missing = int(np.isnan(singles).sum())
            raise ValueError(f"[singles] is missing {missing} of {singles.size} entries")
    except ValueError as exc:
        raise _located(path, lineno, exc) from None
    return singles, sigma, tuple(records)


def read_dataset(path) -> MeasurementDataset:
    """Parse a measurement dataset, renormalizing each singles column to sum to 1."""
    sections = _split_sections(path, ("singles", "visibilities"))
    singles, sigma, records = _parse_observable_sections(
        path, sections, require_positive_sigma=True
    )
    column_sums = singles.sum(axis=0)
    if np.any(column_sums <= 0):
        raise ValueError(f"{path}: a singles column has no probability mass")
    singles = singles / column_sums
    sigma = sigma / column_sums
    return MeasurementDataset(singles, sigma, records)


def _write_observables(fh, dataset: MeasurementDataset) -> None:
    fh.write("[singles]\n")
    for (j, k), p in np.ndenumerate(dataset.singles):
        fh.write(f"{j + 1} {k + 1} {format_float(p)} {format_float(dataset.singles_sigma[j, k])}\n")
    fh.write("[visibilities]\n")
    for r in dataset.visibilities:
        fh.write(
            f"{r.in_pair[0]} {r.in_pair[1]} {r.out_pair[0]} {r.out_pair[1]} "
            f"{format_float(r.value)} {format_float(r.sigma)}\n"
        )


def write_dataset(dest, dataset: MeasurementDataset) -> None:
    with _as_output(dest) as fh:
        _write_observables(fh, dataset)


# ----------------------------------------------------------------------
# reconstruction results
# ----------------------------------------------------------------------

def write_result(dest, result: ReconstructionResult) -> None:
    with _as_output(dest) as fh:
        fh.write("[parameters]\n")
        for k, eta in enumerate(result.params.etas, start=1):
            fh.write(f"eta {k} {format_float(eta)}\n")
        for k, phi in enumerate(result.params.phis, start=1):
            fh.write(f"phi {k} {format_float(phi)}\n")
        fh.write("[fit]\n")
        fh.write(f"residual {format_float(result.residual)}\n")
        fh.write(f"iterations {result.iterations}\n")
        fh.write(f"restarts_used {result.restarts_used}\n")
        _write_observables(fh, result.predicted)


# [fit] entries: a finite nonnegative residual, then two positive integer counts.
_FIT_FIELDS = ("residual", "iterations", "restarts_used")


def read_result(path) -> ReconstructionResult:
    sections = _split_sections(path, ("parameters", "fit", "singles", "visibilities"))
    if "parameters" not in sections or "fit" not in sections:
        raise ValueError(f"{path}: missing [parameters] or [fit] section")
    params = {"eta": {}, "phi": {}}
    counts = {"eta": ETA_COUNT, "phi": PHI_COUNT}
    fit_fields = {}
    lineno = None
    try:
        for lineno, line in sections["parameters"]:
            fields = line.split()
            if len(fields) != 3 or fields[0] not in params:
                raise ValueError("expected 'eta k v' or 'phi k v'")
            kind = fields[0]
            k = _integer(_number(fields[1], f"{kind} index"), f"{kind} index")
            if not 1 <= k <= counts[kind]:
                raise ValueError(f"{kind} index {k} outside 1..{counts[kind]}")
            if k in params[kind]:
                raise ValueError(f"duplicate {kind} {k}")
            params[kind][k] = _number(fields[2], f"{kind} {k}")
        for lineno, line in sections["fit"]:
            key, _, value = line.partition(" ")
            if key not in _FIT_FIELDS:
                raise ValueError(f"unknown [fit] entry {key!r}")
            if key in fit_fields:
                raise ValueError(f"duplicate [fit] entry {key!r}")
            number = _number(value, key)
            if key != "residual":
                fit_fields[key] = _integer(number, key, 1)
            elif math.isfinite(number) and number >= 0:
                fit_fields[key] = number
            else:
                raise ValueError(f"residual must be finite and nonnegative, got {value}")
        lineno = None
        missing = [key for key in _FIT_FIELDS if key not in fit_fields]
        if missing:
            raise ValueError(f"[fit] is missing {', '.join(missing)}")
        result_params = CircuitParameters(
            tuple(v for _, v in sorted(params["eta"].items())),
            tuple(v for _, v in sorted(params["phi"].items())),
        )
    except ValueError as exc:
        raise _located(path, lineno, exc) from None
    singles, sigma, records = _parse_observable_sections(
        path, sections, require_positive_sigma=False
    )
    return ReconstructionResult(
        params=result_params,
        residual=fit_fields["residual"],
        predicted=MeasurementDataset(singles, sigma, records),
        iterations=fit_fields["iterations"],
        restarts_used=fit_fields["restarts_used"],
    )


# ----------------------------------------------------------------------
# distribution tables, sample lists, scan curves
# ----------------------------------------------------------------------

def write_distribution(dest, dist: OutputDistribution, source_hash: str) -> None:
    """CSV of (occupation, probability); outcomes with exactly zero weight are omitted."""
    with _as_output(dest) as fh:
        fh.write(f"# input: {' '.join(str(x) for x in dist.input_state)}\n")
        fh.write(f"# normalization: {format_float(dist.normalization)}\n")
        fh.write(f"# source-sha256: {source_hash}\n")
        fh.write("occupation,probability\n")
        for state, p in zip(dist.states, dist.probabilities):
            if p == 0.0:
                continue
            fh.write(f"{' '.join(str(x) for x in state)},{format_float(p)}\n")


def write_samples(dest, states) -> None:
    """One comma-separated line per state; states are occupation tuples, as ``sample`` returns."""
    with _as_output(dest) as fh:
        for state in states:
            fh.write(",".join(str(x) for x in state) + "\n")


def write_hom_scan(dest, delays, rates, meta: dict) -> None:
    with _as_output(dest) as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write("delay,rate\n")
        for delay, rate in zip(delays, rates):
            fh.write(f"{format_float(delay)},{format_float(rate)}\n")
