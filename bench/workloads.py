"""The four benchmark workloads: input generation and output checks.

Each workload turns a seeded generator into jobs. A job is one CLI
invocation on a freshly generated input file, plus the reference values
its output is checked against. Inputs and references come from
``reference`` only, never from ``bosonsim``.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Job:
    """One CLI call: its arguments, its input file and a check of its stdout.

    ``check`` returns None when the output is correct, else the reason.
    """

    argv: list[str]
    input_path: Path
    check: Callable[[bytes], str | None] = field(repr=False)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_matrix(path: Path, u) -> None:
    lines = [" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in np.asarray(u)]
    path.write_text("\n".join(lines) + "\n")


def _data_lines(out: bytes) -> list[str]:
    text = out.decode("utf-8", errors="replace")
    return [line for line in text.splitlines() if line and not line.startswith("#")]


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

class Sampling:
    """``sample`` on a Haar 12x12 matrix, 6 photons in modes 1-6, 20,000 draws."""

    name = "sampling"
    layers = ("cli", "io", "fock", "permanent", "unitary")
    modes, photons, count = 12, 6, 20_000
    # A correct sampler's TV distance to the exact distribution is estimated
    # from NULL_DRAWS Poisson-multinomial resamples of the reference itself;
    # the check allows the null mean plus NULL_SIGMAS null standard deviations.
    NULL_DRAWS, NULL_SIGMAS = 32, 8.0

    @functools.cached_property
    def _basis(self):
        states = ref.fock_basis(self.modes, self.photons)
        index = {",".join(map(str, s)).encode(): i for i, s in enumerate(states)}
        return ref.basis_tables(states), index

    def make_chunk(self, rng, count: int, workdir: Path, tag: str) -> list[Job]:
        tables, index = self._basis
        occupation = ",".join(["1"] * self.photons + ["0"] * (self.modes - self.photons))
        jobs = []
        for i in range(count):
            u = ref.haar_unitary(rng, self.modes)
            path = workdir / f"{tag}-{i}.matrix"
            write_matrix(path, u)
            p = ref.output_distribution(u, range(self.photons), tables)
            null = rng.poisson(self.count * p, size=(self.NULL_DRAWS, len(p)))
            null_tv = 0.5 * np.abs(null / null.sum(axis=1, keepdims=True) - p).sum(axis=1)
            limit = float(null_tv.mean() + self.NULL_SIGMAS * null_tv.std())
            argv = ["sample", str(path), "--input", occupation,
                    "--count", str(self.count), "--seed", str(int(rng.integers(2**31)))]
            jobs.append(Job(argv, path, functools.partial(self.check, index, p, limit)))
        return jobs

    def check(self, index, p, limit, out: bytes) -> str | None:
        lines = out.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        if len(lines) != self.count:
            return f"expected {self.count} sample lines, got {len(lines)}"
        counts = np.zeros(len(p))
        for line, k in collections.Counter(lines).items():
            if line not in index:
                return f"invalid sample line {line[:60]!r}"
            counts[index[line]] = k
        tv = ref.total_variation(counts / self.count, p)
        if tv > limit:
            return f"empirical TV distance {tv:.4f} exceeds {limit:.4f}"
        return None


# ----------------------------------------------------------------------
# permanent
# ----------------------------------------------------------------------

class Permanent:
    """``permanent`` on a dense Haar 21x21 matrix.

    Each set-up chunk computes one Glynn permanent of a Haar matrix A.
    Every job gets D1 P1 A P2 D2 with fresh random permutations P and
    diagonal phase matrices D: still Haar-distributed and new bytes, with
    the exactly known permanent Per(A) * prod(D1) * prod(D2).
    """

    name = "permanent"
    layers = ("cli", "io", "permanent")
    n = 21
    REL_TOL = 1e-6

    def make_chunk(self, rng, count: int, workdir: Path, tag: str) -> list[Job]:
        base = ref.haar_unitary(rng, self.n)
        per = ref.glynn_permanent(base)
        jobs = []
        for i in range(count):
            rows, cols = rng.permutation(self.n), rng.permutation(self.n)
            d_rows, d_cols = ref.random_phases(rng, self.n), ref.random_phases(rng, self.n)
            a = d_rows[:, None] * base[np.ix_(rows, cols)] * d_cols[None, :]
            path = workdir / f"{tag}-{i}.matrix"
            write_matrix(path, a)
            expected = per * np.prod(d_rows) * np.prod(d_cols)
            jobs.append(Job(["permanent", str(path)], path, functools.partial(self.check, expected)))
        return jobs

    def check(self, expected: complex, out: bytes) -> str | None:
        fields = out.decode(errors="replace").split()
        if len(fields) != 3 or fields[1] not in "+-" or not fields[2].endswith("i"):
            return f"unparseable permanent {out[:80]!r}"
        try:
            im = float(fields[2][:-1])
            got = complex(float(fields[0]), im if fields[1] == "+" else -im)
        except ValueError:
            return f"unparseable permanent {out[:80]!r}"
        err = abs(got - expected) / abs(expected)
        if not err <= self.REL_TOL:
            return f"relative error {err:.3e} exceeds {self.REL_TOL:g}"
        return None


# ----------------------------------------------------------------------
# hom_scan
# ----------------------------------------------------------------------

class HomScan:
    """``hom-scan`` on a Haar 8x8 matrix, inputs 1-5, five random outputs, 21 delays."""

    name = "hom_scan"
    layers = ("cli", "io", "unitary", "interference")
    modes, in_modes = 8, (1, 2, 3, 4, 5)
    grid = (-400.0, 400.0, 21)
    # Allowed |rate - reference|: relative to the rate, plus a multiple of
    # the term-magnitude sum that bounds any summation order's rounding.
    REL_TOL, SCALE_TOL = 1e-9, 1e-13

    def make_chunk(self, rng, count: int, workdir: Path, tag: str) -> list[Job]:
        # The CLI's default scan delays every input photon but the first.
        n = len(self.in_modes)
        sigma = ref.transform_limited_sigma_fs()
        delays = np.linspace(*self.grid)
        overlaps = [ref.gaussian_overlap([0.0] + [t] * (n - 1), sigma) for t in delays]
        start, stop, points = self.grid
        jobs = []
        for i in range(count):
            u = ref.haar_unitary(rng, self.modes)
            outs = tuple(int(x) + 1 for x in np.sort(rng.choice(self.modes, n, replace=False)))
            path = workdir / f"{tag}-{i}.matrix"
            write_matrix(path, u)
            a = u[np.ix_([o - 1 for o in outs], [m - 1 for m in self.in_modes])]
            rates, scales = ref.coincidence_rates(a, overlaps)
            argv = ["hom-scan", str(path),
                    "--in-modes", ",".join(map(str, self.in_modes)),
                    "--out-modes", ",".join(map(str, outs)),
                    f"--delay-grid={start:g}:{stop:g}:{points}"]
            jobs.append(Job(argv, path, functools.partial(self.check, delays, rates, scales)))
        return jobs

    def check(self, delays, rates, scales, out: bytes) -> str | None:
        lines = _data_lines(out)
        if not lines or lines[0] != "delay,rate":
            return "missing 'delay,rate' header"
        rows = lines[1:]
        if len(rows) != len(delays):
            return f"expected {len(delays)} scan rows, got {len(rows)}"
        for row, delay, rate, scale in zip(rows, delays, rates, scales):
            try:
                d, r = (float(x) for x in row.split(","))
            except ValueError:
                return f"unparseable scan row {row!r}"
            if abs(d - delay) > 1e-9:
                return f"delay {d} does not match the grid value {delay}"
            if not abs(r - rate) <= self.REL_TOL * abs(rate) + self.SCALE_TOL * scale:
                return f"rate {r!r} at delay {d} differs from reference {rate!r}"
        return None


# ----------------------------------------------------------------------
# reconstruct
# ----------------------------------------------------------------------

class Reconstruct:
    """``reconstruct --restarts 20`` on a Poisson-noisy dataset of a random canonical circuit.

    Modelled on acceptance criterion 8: the fitted circuit's collision-free
    3-photon distribution (one photon in each of modes 3-5) must lie within
    TV_LIMIT of the true circuit's.
    """

    name = "reconstruct"
    layers = ("cli", "io", "circuit", "reconstruction")
    counts, pairs, restarts = 10_000, 40, 20
    TV_LIMIT = 0.05
    INPUT_MODES = (2, 3, 4)  # 0-based modes 3, 4, 5

    def make_chunk(self, rng, count: int, workdir: Path, tag: str) -> list[Job]:
        jobs = []
        for i in range(count):
            etas = rng.uniform(0.2, 0.8, ref.ETA_COUNT)
            phis = rng.uniform(0.0, 2.0 * math.pi, ref.PHI_COUNT)
            u = ref.canonical_unitary(etas, phis)
            singles, sigma, records = ref.noisy_dataset(rng, u, self.counts, self.pairs)
            lines = ["[singles]"]
            for j in range(ref.CANONICAL_MODES):
                for k in range(ref.CANONICAL_MODES):
                    lines.append(f"{j + 1} {k + 1} {_fmt(singles[j, k])} {_fmt(sigma[j, k])}")
            lines.append("[visibilities]")
            for ((a, b), (c, d)), value, s in records:
                lines.append(f"{a} {b} {c} {d} {_fmt(value)} {_fmt(s)}")
            path = workdir / f"{tag}-{i}.dataset"
            path.write_text("\n".join(lines) + "\n")
            truth = ref.collision_free_distribution(u, self.INPUT_MODES)
            argv = ["reconstruct", str(path), "--restarts", str(self.restarts)]
            jobs.append(Job(argv, path, functools.partial(self.check, truth)))
        return jobs

    def check(self, truth, out: bytes) -> str | None:
        params: dict[str, dict[int, float]] = {"eta": {}, "phi": {}}
        section = None
        for line in _data_lines(out):
            if line.startswith("["):
                section = line
            elif section == "[parameters]":
                try:
                    kind, k, value = line.split()
                    params[kind][int(k)] = float(value)
                except (ValueError, KeyError):
                    return f"unparseable parameter line {line!r}"
        etas = [params["eta"].get(k) for k in range(1, ref.ETA_COUNT + 1)]
        phis = [params["phi"].get(k) for k in range(1, ref.PHI_COUNT + 1)]
        if None in etas or None in phis or not all(0.0 <= e <= 1.0 for e in etas):
            return "missing or out-of-range fitted parameters"
        fitted = ref.collision_free_distribution(ref.canonical_unitary(etas, phis), self.INPUT_MODES)
        tv = ref.total_variation(fitted, truth)
        if not tv <= self.TV_LIMIT:
            return f"3-photon TV distance {tv:.4f} exceeds {self.TV_LIMIT}"
        return None


WORKLOADS = {w.name: w for w in (Sampling(), Permanent(), HomScan(), Reconstruct())}
