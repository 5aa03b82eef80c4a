"""Plain-text file formats shared by the CLI.

All formats are line oriented, and every reader walks its file through
``_Reader``: a leading UTF-8 byte-order mark is dropped, blank lines and
lines starting with '#' are ignored, and a bad input raises a ValueError
located as ``path:line: message`` (the file's physical line) or, when no
one line is at fault (a file that is not UTF-8, say), ``path: message``.
Numbers are serialized with 17 significant digits so a parse -> serialize
round trip reproduces the exact float64 values.

matrix    one row per line, complex entries "re+imi" separated by spaces
circuit   "modes m" then one element per line: "coupler i eta" | "phase i phi"
dataset   "[singles]" block of "out in p sigma" lines, then
          "[visibilities]" block of "in1 in2 out1 out2 V sigma" lines
result    "[parameters]" and "[fit]" blocks followed by the predicted
          observables in dataset form
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from pathlib import Path

import numpy as np

# The circuit, interference and fit types are imported by the functions
# that build them, so a command loads only the modules it runs.
from .errors import SizeLimitError
from .unitary import _integer

# sample lines joined into one write
SAMPLE_WRITE_CHUNK = 1 << 16


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


class InputFile:
    """One input file, read once: its path, its bytes and its significant lines.

    Every reader, ``detect_network_kind`` and ``sha256_file`` take one
    wherever they take a path, so a file that is sniffed, parsed and
    hashed is read from disk once, and the hash is of the parsed bytes.
    """

    def __init__(self, path):
        self.path = path
        self.data = Path(path).read_bytes()

    @functools.cached_property
    def lines(self) -> list[tuple[int, str]]:
        """The non-blank lines not starting with '#', stripped and numbered as in the file."""
        text = self.data.decode("utf-8-sig")
        numbered = enumerate((raw.strip() for raw in text.splitlines()), start=1)
        return [(n, line) for n, line in numbered if line and not line.startswith("#")]


def _input_file(source) -> InputFile:
    return source if isinstance(source, InputFile) else InputFile(source)


class _Reader(contextlib.AbstractContextManager):
    """The significant lines of one input file (a path or an InputFile), numbered as in the file.

    A ValueError raised inside ``with _Reader(path)`` is raised again as
    ``path:line: message`` while ``walk`` is on a line, and as
    ``path: message`` once no walk is, as is a file that is not UTF-8.
    A SizeLimitError keeps its class, so its exit code stays 3.
    """

    def __init__(self, path):
        self.file = _input_file(path)
        self.path = self.file.path
        self.lineno = None

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError):
            where = self.path if self.lineno is None else f"{self.path}:{self.lineno}"
            raise (SizeLimitError if isinstance(exc, SizeLimitError) else ValueError)(
                f"{where}: {exc}") from None

    def walk(self, lines=None):
        """Each line of ``lines`` (numbered, default the whole file); errors meanwhile name it."""
        for self.lineno, line in self.file.lines if lines is None else lines:
            yield line
        self.lineno = None

    def sections(self, names) -> dict[str, list[tuple[int, str]]]:
        """Numbered lines of each [section]; an unknown header, or data before one, is an error."""
        sections = {}
        for line in self.walk():
            if line.startswith("[") and line.endswith("]"):
                if line[1:-1] not in names:
                    expected = " or ".join(f"[{name}]" for name in names)
                    raise ValueError(f"unknown section {line}, expected {expected}")
                current = sections.setdefault(line[1:-1], [])
            elif not sections:
                raise ValueError("data before any [section] header")
            else:
                current.append((self.lineno, line))
        return sections


def sha256_file(path) -> str:
    import hashlib

    return hashlib.sha256(_input_file(path).data).hexdigest()


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def read_matrix(path) -> np.ndarray:
    rows = []
    with _Reader(path) as reader:
        for line in reader.walk():
            rows.append([parse_complex(tok) for tok in line.split()])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"expected {len(rows[0])} entries per row")
        if not rows:
            raise ValueError("no matrix rows found")
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
    from .circuit import Coupler, OpticalCircuit, PhaseShifter

    with _Reader(path) as reader:
        lines = reader.walk()
        header = next(lines, None)
        if header is None:
            raise ValueError("empty circuit file")
        fields = header.split()
        if len(fields) != 2 or fields[0] != "modes":
            raise ValueError(f"expected 'modes m', got {header!r}")
        mode_count = _integer(_number(fields[1], "mode count"), "mode count", 1)
        elements = []
        for line in lines:
            fields = line.split()
            if len(fields) == 3 and fields[0] == "coupler":
                elements.append(Coupler(_number(fields[1], "coupler mode"),
                                        _number(fields[2], "reflectivity")))
            elif len(fields) == 3 and fields[0] == "phase":
                elements.append(PhaseShifter(_number(fields[1], "phase mode"),
                                             _number(fields[2], "phase")))
            else:
                raise ValueError(f"expected 'coupler i eta' or 'phase i phi', got {line!r}")
        return OpticalCircuit(mode_count, tuple(elements))


def write_circuit(dest, circuit: OpticalCircuit) -> None:
    from .circuit import Coupler

    with _as_output(dest) as fh:
        fh.write(f"modes {circuit.mode_count}\n")
        for element in circuit.elements:
            if isinstance(element, Coupler):
                fh.write(f"coupler {element.mode} {format_float(element.eta)}\n")
            else:
                fh.write(f"phase {element.mode} {format_float(element.phi)}\n")


def detect_network_kind(path) -> str:
    """'circuit' if the first significant line is a modes header, else 'matrix'."""
    with _Reader(path) as reader:
        first = next(reader.walk(), "")
    if first.split()[:1] == ["modes"]:
        return "circuit"
    return "matrix"


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

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
        bound = "positive" if require_positive_sigma else "nonnegative"
        raise ValueError(f"uncertainty must be {bound}")
    return modes, value, sigma


def _parse_observable_sections(reader, sections, require_positive_sigma: bool):
    from .circuit import DEFAULT_MODES
    from .interference import _mode_tuple
    from .reconstruction import VisibilityRecord

    singles = np.full((DEFAULT_MODES, DEFAULT_MODES), np.nan)
    sigma = np.full((DEFAULT_MODES, DEFAULT_MODES), np.nan)
    records = []
    if "singles" not in sections:
        raise ValueError("missing [singles] section")
    for line in reader.walk(sections["singles"]):
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
    for line in reader.walk(sections.get("visibilities", [])):
        modes, value, s = _observable_line(
            line, "visibility", "in1 in2 out1 out2 V sigma", require_positive_sigma
        )
        records.append(VisibilityRecord(modes[:2], modes[2:], value, s))
    if np.isnan(singles).any():
        missing = int(np.isnan(singles).sum())
        raise ValueError(f"[singles] is missing {missing} of {singles.size} entries")
    return singles, sigma, tuple(records)


def read_dataset(path) -> MeasurementDataset:
    """Parse a measurement dataset, renormalizing each singles column to sum to 1."""
    from .reconstruction import MeasurementDataset

    with _Reader(path) as reader:
        sections = reader.sections(("singles", "visibilities"))
        singles, sigma, records = _parse_observable_sections(
            reader, sections, require_positive_sigma=True
        )
        column_sums = singles.sum(axis=0)
        if np.any(column_sums <= 0):
            raise ValueError("a singles column has no probability mass")
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
    from .circuit import ETA_COUNT, PHI_COUNT
    from .reconstruction import CircuitParameters, MeasurementDataset, ReconstructionResult

    params = {"eta": {}, "phi": {}}
    counts = {"eta": ETA_COUNT, "phi": PHI_COUNT}
    fit_fields = {}
    with _Reader(path) as reader:
        sections = reader.sections(("parameters", "fit", "singles", "visibilities"))
        if "parameters" not in sections or "fit" not in sections:
            raise ValueError("missing [parameters] or [fit] section")
        for line in reader.walk(sections["parameters"]):
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
        for line in reader.walk(sections["fit"]):
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
        missing = [key for key in _FIT_FIELDS if key not in fit_fields]
        if missing:
            raise ValueError(f"[fit] is missing {', '.join(missing)}")
        result_params = CircuitParameters(
            tuple(v for _, v in sorted(params["eta"].items())),
            tuple(v for _, v in sorted(params["phi"].items())),
        )
        singles, sigma, records = _parse_observable_sections(
            reader, sections, require_positive_sigma=False
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

def _text_rows(rows: np.ndarray, sep: str) -> str:
    """Each row of a 2-D array of nonnegative ints as one line, its entries in decimal joined by ``sep``.

    The bytes come from numpy arithmetic, not from one str per entry: every
    entry gets as many digit places as the largest entry and a trailing
    ``sep`` (a newline after a row's last entry), then the leading zeros
    are dropped, so 0 keeps its last digit.
    """
    if rows.size and rows.min() < 0:
        raise ValueError("occupations must be nonnegative")
    places = len(str(rows.max())) if rows.size else 1
    powers = (10 ** np.arange(places - 1, -1, -1)).astype(rows.dtype)
    values = rows[..., None]
    text = np.empty(rows.shape + (places + 1,), np.uint8)
    text[..., :places] = values // powers % 10 + ord("0")
    text[..., places] = ord(sep)
    text[:, -1, places] = ord("\n")
    keep = np.ones(text.shape, bool)
    keep[..., :places - 1] = values >= powers[:-1]
    return text[keep].tobytes().decode("ascii")


def write_distribution(dest, dist: OutputDistribution, source_hash: str) -> None:
    """CSV of (occupation, probability); outcomes with exactly zero weight are omitted."""
    weighted = dist.probabilities != 0.0
    states = _text_rows(dist.occupations[weighted], " ").splitlines()
    with _as_output(dest) as fh:
        fh.write(f"# input: {' '.join(str(x) for x in dist.input_state)}\n")
        fh.write(f"# normalization: {format_float(dist.normalization)}\n")
        fh.write(f"# source-sha256: {source_hash}\n")
        fh.write("occupation,probability\n")
        for state, p in zip(states, dist.probabilities[weighted].tolist()):
            fh.write(f"{state},{format_float(p)}\n")


def write_samples(dest, states) -> None:
    """One comma-separated line per state.

    ``states`` is a 2-D array with one occupation row per draw, as
    ``sample_occupations`` returns, or equal-length occupation tuples, as
    ``sample`` returns.  Lines are formatted in bulk and written
    SAMPLE_WRITE_CHUNK at a time, so no string holds them all.
    """
    rows = states if isinstance(states, np.ndarray) else np.array(list(states))
    with _as_output(dest) as fh:
        for lo in range(0, len(rows), SAMPLE_WRITE_CHUNK):
            fh.write(_text_rows(rows[lo:lo + SAMPLE_WRITE_CHUNK], ","))


def write_hom_scan(dest, delays, rates, meta: dict) -> None:
    with _as_output(dest) as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write("delay,rate\n")
        for delay, rate in zip(delays, rates):
            fh.write(f"{format_float(delay)},{format_float(rate)}\n")
