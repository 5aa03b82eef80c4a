"""Command-line interface.

Subcommands: permanent, distribution, sample, hom-scan, simulate,
reconstruct.  Every command is a pure function of its input files and
flags; commands that involve randomness take an explicit seed, so
repeated runs produce byte-identical output.

Exit codes: 0 ok, 2 input error, 3 capacity or size limit,
4 degenerate postselection, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .circuit import compile_circuit
from .errors import (
    DegeneratePostselectionError,
    NonConvergenceError,
    SizeLimitError,
)
from .fock import collision_free_distribution, full_distribution, sample
from .interference import DEFAULT_SIGMA_FS, DelayConfig, hom_scan
from .permanent import permanent_naive, permanent_ryser
from .reconstruction import (
    DEFAULT_PAIR_COUNT,
    FitConfig,
    default_visibility_pairs,
    fit,
    simulate_dataset_from_unitary,
)

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


def _load_network(path):
    """Compile a circuit file or read a matrix file; returns (unitary, sha256)."""
    if io.detect_network_kind(path) == "circuit":
        u = compile_circuit(io.read_circuit(path))
    else:
        u = io.read_matrix(path)
    return u, io.sha256_file(path)


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
    value = permanent_naive(matrix) if args.method == "naive" else permanent_ryser(matrix)
    sign = "+" if value.imag >= 0 else "-"
    print(f"{value.real:.15g} {sign} {abs(value.imag):.15g}i")


def cmd_distribution(args) -> None:
    unitary, source_hash = _load_network(args.network_file)
    input_state = _parse_ints(args.input, "occupation")
    builder = collision_free_distribution if args.collision_free else full_distribution
    dist = builder(unitary, input_state)
    io.write_distribution(args.output, dist, source_hash)


def cmd_sample(args) -> None:
    if args.count > SAMPLE_COUNT_LIMIT:
        raise SizeLimitError(f"sample count is capped at {SAMPLE_COUNT_LIMIT}, got {args.count}")
    unitary, _ = _load_network(args.network_file)
    states = sample(
        unitary,
        _parse_ints(args.input, "occupation"),
        args.count,
        args.seed,
        collision_free=args.collision_free,
    )
    io.write_samples(args.output, states)


def cmd_hom_scan(args) -> None:
    grid = _parse_grid(args.delay_grid)
    unitary, source_hash = _load_network(args.network_file)
    in_modes = _parse_ints(args.in_modes, "mode")
    out_modes = _parse_ints(args.out_modes, "mode")
    scan_modes = _parse_ints(args.scan_modes, "mode") if args.scan_modes else in_modes[1:]
    unknown = set(scan_modes) - set(in_modes)
    if unknown:
        raise ValueError(f"scan modes {sorted(unknown)} are not input modes")
    if not scan_modes:
        raise ValueError("need at least one scanned mode")
    configs = [
        DelayConfig(
            tuple(tau if mode in scan_modes else 0.0 for mode in in_modes), args.sigma
        )
        for tau in grid
    ]
    results = hom_scan(unitary, in_modes, out_modes, configs)
    meta = {
        "source-sha256": source_hash,
        "in-modes": " ".join(str(m) for m in in_modes),
        "out-modes": " ".join(str(m) for m in out_modes),
        "scan-modes": " ".join(str(m) for m in scan_modes),
        "sigma": io.format_float(args.sigma),
    }
    io.write_hom_scan(args.output, grid, [rate for _, rate in results], meta)


def cmd_simulate(args) -> None:
    unitary, _ = _load_network(args.network_file)
    pairs = default_visibility_pairs(unitary, args.pairs)
    dataset = simulate_dataset_from_unitary(unitary, args.counts, args.seed, pairs)
    io.write_dataset(args.output, dataset)


def cmd_reconstruct(args) -> None:
    config = FitConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    result = fit(io.read_dataset(args.dataset_file), config)
    io.write_result(args.output, result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonsim",
        description="Boson-sampling simulation and network reconstruction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("permanent", help="print the permanent of a matrix file")
    p.add_argument("matrix_file")
    p.add_argument("--method", choices=("naive", "ryser"), default="ryser")
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
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA_FS)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_hom_scan)

    p = sub.add_parser("simulate", help="Poisson-noisy measurement dataset")
    p.add_argument("network_file")
    p.add_argument("--counts", type=int, required=True, help="counts per setting")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=DEFAULT_PAIR_COUNT, help="visibility pair count")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="fit network parameters to a dataset")
    p.add_argument("dataset_file")
    p.add_argument("--restarts", type=int, default=FitConfig.restarts)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--max-iterations", type=int, default=FitConfig.max_iterations)
    p.add_argument("--tolerance", type=float, default=FitConfig.tolerance)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except tuple(error for error, _ in EXIT_CODES) as exc:
        print(f"bosonsim: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES if isinstance(exc, error))
    return EXIT_OK


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
