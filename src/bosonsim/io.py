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

from .circuit import Coupler, OpticalCircuit, PhaseShifter
from .fock import OutputDistribution, as_occupation
from .reconstruction import (
    MODES,
    CircuitParameters,
    MeasurementDataset,
    ReconstructionResult,
    VisibilityRecord,
)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    t = token.strip().lower()
    if not t or "nan" in t or "inf" in t:
        raise ValueError(f"invalid complex entry {token!r}")
    try:
        return complex(t.replace("i", "j"))
    except ValueError:
        raise ValueError(f"invalid complex entry {token!r}") from None


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


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def read_matrix(path) -> np.ndarray:
    rows = []
    linenos = []
    for lineno, line in _significant_lines(path):
        try:
            rows.append([parse_complex(tok) for tok in line.split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = len(rows[0])
    for lineno, row in zip(linenos, rows):
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} entries per row")
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
    if not lines:
        raise ValueError(f"{path}: empty circuit file")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "modes":
        raise ValueError(f"{path}:{lineno}: expected 'modes m', got {header!r}")
    try:
        mode_count = int(fields[1])
    except ValueError:
        raise ValueError(f"{path}:{lineno}: invalid mode count {fields[1]!r}") from None
    elements = []
    for lineno, line in lines[1:]:
        fields = line.split()
        try:
            if len(fields) == 3 and fields[0] == "coupler":
                elements.append(Coupler(int(fields[1]), float(fields[2])))
            elif len(fields) == 3 and fields[0] == "phase":
                elements.append(PhaseShifter(int(fields[1]), float(fields[2])))
            else:
                raise ValueError(f"expected 'coupler i eta' or 'phase i phi', got {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return OpticalCircuit(mode_count, tuple(elements))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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

def _split_sections(path) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, line in _significant_lines(path):
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections.setdefault(current, [])
        elif current is None:
            raise ValueError(f"{path}:{lineno}: data before any [section] header")
        else:
            sections[current].append((lineno, line))
    return sections


def _parse_observable_sections(path, sections, require_positive_sigma: bool):
    if "singles" not in sections:
        raise ValueError(f"{path}: missing [singles] section")
    singles = np.full((MODES, MODES), np.nan)
    sigma = np.full((MODES, MODES), np.nan)
    for lineno, line in sections["singles"]:
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'out in p sigma', got {line!r}")
        try:
            j, k = int(fields[0]), int(fields[1])
            p, s = float(fields[2]), float(fields[3])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: invalid singles entry {line!r}") from None
        if not (math.isfinite(p) and math.isfinite(s)):
            raise ValueError(f"{path}:{lineno}: non-finite singles entry {line!r}")
        if not (1 <= j <= MODES and 1 <= k <= MODES):
            raise ValueError(f"{path}:{lineno}: modes outside 1..{MODES}")
        if not np.isnan(singles[j - 1, k - 1]):
            raise ValueError(f"{path}:{lineno}: duplicate singles entry ({j}, {k})")
        if p < 0:
            raise ValueError(f"{path}:{lineno}: negative probability {p}")
        if s < 0 or (require_positive_sigma and s == 0):
            raise ValueError(f"{path}:{lineno}: uncertainty must be positive")
        singles[j - 1, k - 1] = p
        sigma[j - 1, k - 1] = s
    if np.isnan(singles).any():
        missing = int(np.isnan(singles).sum())
        raise ValueError(f"{path}: [singles] is missing {missing} of {MODES * MODES} entries")
    records = []
    for lineno, line in sections.get("visibilities", []):
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(
                f"{path}:{lineno}: expected 'in1 in2 out1 out2 V sigma', got {line!r}"
            )
        try:
            a, b, c, d = (int(x) for x in fields[:4])
            value, s = float(fields[4]), float(fields[5])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: invalid visibility entry {line!r}") from None
        if not (math.isfinite(value) and math.isfinite(s)):
            raise ValueError(f"{path}:{lineno}: non-finite visibility entry {line!r}")
        if not all(1 <= x <= MODES for x in (a, b, c, d)):
            raise ValueError(f"{path}:{lineno}: modes outside 1..{MODES}")
        if a == b or c == d:
            raise ValueError(f"{path}:{lineno}: pair modes must be distinct")
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{path}:{lineno}: visibility {value} outside [-1, 1]")
        if s < 0 or (require_positive_sigma and s == 0):
            raise ValueError(f"{path}:{lineno}: uncertainty must be positive")
        records.append(VisibilityRecord((a, b), (c, d), value, s))
    return singles, sigma, tuple(records)


def read_dataset(path) -> MeasurementDataset:
    """Parse a measurement dataset, renormalizing each singles column to sum to 1."""
    sections = _split_sections(path)
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
    for j in range(MODES):
        for k in range(MODES):
            fh.write(
                f"{j + 1} {k + 1} {format_float(dataset.singles[j, k])} "
                f"{format_float(dataset.singles_sigma[j, k])}\n"
            )
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


def read_result(path) -> ReconstructionResult:
    sections = _split_sections(path)
    if "parameters" not in sections or "fit" not in sections:
        raise ValueError(f"{path}: missing [parameters] or [fit] section")
    etas: dict[int, float] = {}
    phis: dict[int, float] = {}
    for lineno, line in sections["parameters"]:
        fields = line.split()
        if len(fields) != 3 or fields[0] not in ("eta", "phi"):
            raise ValueError(f"{path}:{lineno}: expected 'eta k v' or 'phi k v'")
        target = etas if fields[0] == "eta" else phis
        target[int(fields[1])] = float(fields[2])
    params = CircuitParameters(
        tuple(etas[k] for k in sorted(etas)), tuple(phis[k] for k in sorted(phis))
    )
    fit_fields = {}
    for lineno, line in sections["fit"]:
        key, _, value = line.partition(" ")
        fit_fields[key] = value.strip()
    singles, sigma, records = _parse_observable_sections(
        path, sections, require_positive_sigma=False
    )
    return ReconstructionResult(
        params=params,
        residual=float(fit_fields["residual"]),
        predicted=MeasurementDataset(singles, sigma, records),
        iterations=int(fit_fields["iterations"]),
        restarts_used=int(fit_fields["restarts_used"]),
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
    with _as_output(dest) as fh:
        for state in states:
            fh.write(",".join(str(x) for x in as_occupation(state)) + "\n")


def write_hom_scan(dest, delays, rates, meta: dict) -> None:
    with _as_output(dest) as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write("delay,rate\n")
        for delay, rate in zip(delays, rates):
            fh.write(f"{format_float(delay)},{format_float(rate)}\n")
