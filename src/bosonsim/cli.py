"""Command-line interface.

Subcommands: permanent, distribution, sample, hom-scan, simulate,
reconstruct.  Every command is a pure function of its input files and
flags; commands that involve randomness take an explicit seed, so
repeated runs produce byte-identical output.

Exit codes: 0 ok, 2 input error, 3 capacity or size limit,
4 degenerate postselection, 5 non-convergence.

A CLI process runs BLAS on one thread: importing this module before
numpy sets OPENBLAS_NUM_THREADS=1 unless the user has set it.

A command loads only the modules it runs: this module imports numpy,
``io`` and ``errors`` only, and each library name a command calls is
imported from its module on first use (PEP 562 ``__getattr__``, over the
package's table of public names). Options whose default the library owns
are unset in the parser, and the command then leaves them to the
library. ``entry_point`` freezes the heap once ``main`` returns, so the
interpreter's collections at exit skip it; ``main`` leaves ``gc`` alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads. The largest
# BLAS call a command makes is permanent._glynn's (n, 13) x (13, 4096)
# table product, which gains nothing from a second thread; that thread
# spins instead, in numpy's import and after each product. In 10 benchmark
# pairs per workload on 2 cores, the cap cut CPU per job by 0.12-0.24 s
# (`permanent` 0.52 -> 0.27 s) with no change in wall time or output.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import _MODULE_OF, io
from .errors import (
    DegeneratePostselectionError,
    NonConvergenceError,
    SizeLimitError,
)

# This module. Commands call library functions as its attributes, so the
# first call imports the defining module (``__getattr__`` below) and a
# wrapper set on this module, as bench/tracer.py sets, is what runs.
_cli = sys.modules[__name__]

EXIT_OK = 0
# Exit code of each error class, first match wins: the size and
# postselection errors are ValueErrors too.
EXIT_CODES = (
    (SizeLimitError, 3),
    (DegeneratePostselectionError, 4),
    (NonConvergenceError, 5),
    (ValueError, 2),
    (OSError, 2),
)

# Largest --count for sample and point count for --delay-grid, checked
# before anything is allocated.
SAMPLE_COUNT_LIMIT = 10_000_000
DELAY_GRID_LIMIT = 100_000


def __getattr__(name):
    """A public library name, imported from its module on first use and cached here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"bosonsim.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def _given(**options) -> dict:
    """The options the user set; an unset (None) one keeps the library's default."""
    return {name: value for name, value in options.items() if value is not None}


def _load_network(path, digest: bool = False):
    """Compile a circuit file or read a matrix file, from one read of its bytes.

    Returns (unitary, sha256 of those bytes), the hash None unless ``digest``.
    """
    network = io.InputFile(path)
    if io.detect_network_kind(network) == "circuit":
        u = _cli.compile_circuit(io.read_circuit(network))
    else:
        u = io.read_matrix(network)
    return u, io.sha256_file(network) if digest else None


def _parse_ints(text: str, label: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"invalid {label} list {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    fields = text.split(":")
    if len(fields) != 3:
        raise ValueError(f"delay grid must be 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
    except ValueError:
        raise ValueError(f"invalid delay grid {text!r}") from None
    if not np.isfinite(stop - start):
        raise ValueError(f"delay grid needs finite bounds a finite distance apart, got {text!r}")
    if count < 1:
        raise ValueError("delay grid needs at least one point")
    if count > DELAY_GRID_LIMIT:
        raise SizeLimitError(f"delay grid is capped at {DELAY_GRID_LIMIT} points, got {count}")
    return np.linspace(start, stop, count)


def cmd_permanent(args) -> None:
    matrix = io.read_matrix(args.matrix_file)
    kernel = _cli.permanent_naive if args.method == "naive" else _cli.permanent_ryser
    value = kernel(matrix)
    sign = "+" if value.imag >= 0 else "-"
    print(f"{value.real:.15g} {sign} {abs(value.imag):.15g}i")


def cmd_distribution(args) -> None:
    unitary, source_hash = _load_network(args.network_file, digest=True)
    input_state = _parse_ints(args.input, "occupation")
    builder = _cli.collision_free_distribution if args.collision_free else _cli.full_distribution
    dist = builder(unitary, input_state)
    io.write_distribution(args.output, dist, source_hash)


def cmd_sample(args) -> None:
    if args.count > SAMPLE_COUNT_LIMIT:
        raise SizeLimitError(f"sample count is capped at {SAMPLE_COUNT_LIMIT}, got {args.count}")
    unitary, _ = _load_network(args.network_file)
    draws = _cli.sample_occupations(
        unitary,
        _parse_ints(args.input, "occupation"),
        args.count,
        args.seed,
        collision_free=args.collision_free,
    )
    io.write_samples(args.output, draws)


def cmd_hom_scan(args) -> None:
    grid = _parse_grid(args.delay_grid)
    unitary, source_hash = _load_network(args.network_file, digest=True)
    in_modes = _parse_ints(args.in_modes, "mode")
    out_modes = _parse_ints(args.out_modes, "mode")
    scan_modes = _parse_ints(args.scan_modes, "mode") if args.scan_modes else in_modes[1:]
    unknown = set(scan_modes) - set(in_modes)
    if unknown:
        raise ValueError(f"scan modes {sorted(unknown)} are not input modes")
    if not scan_modes:
        raise ValueError("need at least one scanned mode")
    sigma = _cli.DEFAULT_SIGMA_FS if args.sigma is None else args.sigma
    configs = [
        _cli.DelayConfig(tuple(tau if mode in scan_modes else 0.0 for mode in in_modes), sigma)
        for tau in grid
    ]
    results = _cli.hom_scan(unitary, in_modes, out_modes, configs)
    meta = {
        "source-sha256": source_hash,
        "in-modes": " ".join(str(m) for m in in_modes),
        "out-modes": " ".join(str(m) for m in out_modes),
        "scan-modes": " ".join(str(m) for m in scan_modes),
        "sigma": io.format_float(sigma),
    }
    io.write_hom_scan(args.output, grid, [rate for _, rate in results], meta)


def cmd_simulate(args) -> None:
    unitary, _ = _load_network(args.network_file)
    pairs = _cli.default_visibility_pairs(unitary, **_given(count=args.pairs))
    dataset = _cli.simulate_dataset_from_unitary(unitary, args.counts, args.seed, pairs)
    io.write_dataset(args.output, dataset)


def cmd_reconstruct(args) -> None:
    config = _cli.FitConfig(**_given(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=args.seed,
    ))
    result = _cli.fit(io.read_dataset(args.dataset_file), config)
    io.write_result(args.output, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Boson-sampling simulation and network reconstruction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permanent", help="print the permanent of a matrix file")
    p.add_argument("matrix_file")
    p.add_argument(
        "--method", choices=("naive", "ryser"), default="ryser",
        help="ryser (default): permanent_ryser, Glynn's formula, O(2^(n-1) n), n <= 30; "
        "naive: the sum over all n! permutations, n <= 9",
    )
    p.set_defaults(func=cmd_permanent)

    p = sub.add_parser(
        "distribution", help="exact output distribution of a circuit or matrix"
    )
    p.add_argument("network_file", help="circuit file or matrix file (auto-detected)")
    p.add_argument("--input", required=True, help="occupations, e.g. 0,0,1,1,1")
    p.add_argument("--collision-free", action="store_true")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("sample", help="draw output states from the exact distribution")
    p.add_argument("network_file")
    p.add_argument("--input", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--collision-free", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("hom-scan", help="coincidence rate vs. delay (CSV)")
    p.add_argument("network_file")
    p.add_argument("--in-modes", required=True, help="e.g. 3,4,5")
    p.add_argument("--out-modes", required=True)
    p.add_argument("--delay-grid", required=True, help="start:stop:count, in fs")
    p.add_argument(
        "--scan-modes",
        default=None,
        help="input modes that receive the scanned delay (default: all but the first)",
    )
    p.add_argument("--sigma", type=float)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_hom_scan)

    p = sub.add_parser("simulate", help="Poisson-noisy measurement dataset")
    p.add_argument("network_file")
    p.add_argument("--counts", type=int, required=True, help="counts per setting")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, help="visibility pair count")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="fit network parameters to a dataset")
    p.add_argument("dataset_file")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def _flush_stdout() -> None:
    """Flush stdout here, where a failure maps to an exit code.

    If stdout cannot take the output, fd 1 is pointed at os.devnull before
    the error is raised again, or the interpreter's own flush at exit would
    fail once more and end the process with "Exception ignored" and 120.
    """
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        _flush_stdout()
    except tuple(error for error, _ in EXIT_CODES) as exc:
        print(f"bosonsim: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES if isinstance(exc, error))
    return EXIT_OK


def entry_point() -> None:
    code = main()
    # Nothing is left to free: files are closed, and stdout is flushed. The
    # frozen heap is skipped by the interpreter's collections at exit, about
    # 20 ms a job; atexit handlers and the final stdio flush still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
