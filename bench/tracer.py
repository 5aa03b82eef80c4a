"""Tracer: one bosonsim CLI job in-process, with every layer's functions wrapped.

    python bench/tracer.py --spans FILE -- <bosonsim cli arguments>
    python bench/tracer.py --sweep WORKLOAD --seed N

Run with ``PYTHONPATH=src``. In job mode each function in ``WRAPPED`` is
replaced, under the name its caller looks it up by, with a wrapper that
records a span; spans stay in memory and go to FILE as JSON when the job
ends, together with the import time of ``bosonsim.cli``. A name that no
longer exists is an error (exit 70), never a silent zero. In sweep mode
it times single library calls on the cases of the ROADMAP baseline table
and prints them as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

perf = time.perf_counter

TRACE_BROKEN = 70

# Layer sweep: repeat a call until this many seconds or calls are spent.
SWEEP_BUDGET_S = 0.3
SWEEP_MAX_CALLS = 25

# layer -> (module that looks the name up, attribute); spans are "<layer>.<attribute>".
WRAPPED = {
    "cli": [("bosonsim.cli", "main")],
    "io": [("bosonsim.io", name) for name in (
        "read_matrix", "read_circuit", "read_dataset", "detect_network_kind", "sha256_file",
        "write_samples", "write_distribution", "write_hom_scan", "write_result", "write_dataset",
    )],
    "fock": [
        ("bosonsim.cli", "full_distribution"),
        ("bosonsim.cli", "collision_free_distribution"),
        ("bosonsim.cli", "sample"),
        ("bosonsim.fock", "full_distribution"),
        ("bosonsim.fock", "collision_free_distribution"),
        ("bosonsim.fock", "enumerate_basis"),
    ],
    "permanent": [
        ("bosonsim.cli", "permanent_ryser"),
        ("bosonsim.cli", "permanent_naive"),
        ("bosonsim.fock", "permanent_ryser"),
    ],
    "unitary": [("bosonsim.fock", "is_unitary"), ("bosonsim.interference", "is_unitary")],
    "interference": [
        ("bosonsim.cli", "hom_scan"),
        ("bosonsim.interference", "coincidence_rate"),
        ("bosonsim.interference", "overlap_from_delays"),
    ],
    "circuit": [("bosonsim.cli", "compile_circuit"), ("bosonsim.reconstruction", "compile_circuit")],
    "reconstruction": [
        ("bosonsim.cli", "fit"),
        ("bosonsim.reconstruction", "least_squares"),
        ("bosonsim.reconstruction", "_residuals"),
    ],
}

# Per-call numbers the layer metrics need, by span name, from (args, result).
INFO = {
    "permanent.permanent_ryser": lambda args, result: len(args[0]),
    "permanent.permanent_naive": lambda args, result: len(args[0]),
    "fock.enumerate_basis": lambda args, result: len(result),
    "reconstruction.least_squares": lambda args, result: (int(result.nfev),
                                                          float(result.fun @ result.fun)),
}


class Recorder:
    """Spans of one job, kept in memory: [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, info=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf(), 0.0, open_[-1] if open_ else -1, None])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = perf()
            if info is not None:
                spans[index][4] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPPED; if any is missing, raise and wrap none."""
        targets = []
        for layer, names in WRAPPED.items():
            for module_name, attr in names:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise LookupError(f"{module_name}.{attr} no longer exists")
                targets.append((module, attr, f"{layer}.{attr}", fn))
        for module, attr, name, fn in targets:
            setattr(module, attr, self.wrap(name, fn, INFO.get(name)))


def run_job(spans_path: str, argv: list[str]) -> int:
    start = perf()
    import bosonsim.cli

    import_s = perf() - start
    recorder = Recorder()
    try:
        recorder.install()
    except (ImportError, LookupError) as exc:
        with open(spans_path, "w") as fh:
            json.dump({"error": f"tracer: {exc}"}, fh)
        print(f"tracer: {exc}", file=sys.stderr)
        return TRACE_BROKEN
    code = bosonsim.cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


# ----------------------------------------------------------------------
# layer sweep: the ROADMAP baseline table
# ----------------------------------------------------------------------

def _timed(call) -> tuple[float, int]:
    """Median seconds of repeated calls: at least one, until the budget is spent."""
    times = []
    while not times or (sum(times) < SWEEP_BUDGET_S and len(times) < SWEEP_MAX_CALLS):
        t0 = perf()
        call()
        times.append(perf() - t0)
    times.sort()
    return times[len(times) // 2], len(times)


def sweep(workload: str, seed: int) -> list[dict]:
    import numpy as np

    import bosonsim as bs
    import bosonsim.reconstruction as rec
    import reference as ref

    rng = np.random.default_rng([seed, 7])
    rows = []

    def add(layer, case, roadmap, call):
        seconds, calls = _timed(call)
        rows.append({"layer": layer, "case": case, "seconds": seconds, "calls": calls,
                     "roadmap": roadmap})

    def occupation(m, n):
        return (1,) * n + (0,) * (m - n)

    if workload == "sampling":
        u5 = ref.haar_unitary(rng, 5)
        add("transition_probability", "5 modes, 3 photons", "0.068 ms",
            lambda: bs.transition_probability(u5, occupation(5, 3), (0, 1, 0, 1, 1)))
        for m, n, roadmap in ((5, 3, "1.8 ms"), (8, 4, "14 ms"), (12, 6, "0.75 s")):
            u = ref.haar_unitary(rng, m)
            add("full_distribution", f"{m}m/{n}ph", roadmap,
                lambda u=u, m=m, n=n: bs.full_distribution(u, occupation(m, n)))
    elif workload == "permanent":
        for n, roadmap in ((12, "1.8 ms"), (16, "38 ms"), (20, "0.53 s"), (22, "2.5 s")):
            a = ref.haar_unitary(rng, n)
            add("permanent_ryser", f"n = {n}", roadmap, lambda a=a: bs.permanent_ryser(a))
    elif workload == "hom_scan":
        sigma = ref.transform_limited_sigma_fs()
        for n, roadmap in ((4, "3.7 ms"), (5, "111 ms"), (6, "5.3 s")):
            u = ref.haar_unitary(rng, 2 * n)
            s = ref.gaussian_overlap(rng.uniform(-200.0, 200.0, n), sigma)
            ins, outs = range(1, n + 1), range(n + 1, 2 * n + 1)
            add("coincidence_rate", f"n = {n}", roadmap,
                lambda u=u, s=s, ins=ins, outs=outs: bs.coincidence_rate(u, ins, outs, s))
    elif workload == "reconstruct":
        etas = rng.uniform(0.2, 0.8, ref.ETA_COUNT)
        phis = rng.uniform(0.0, 2.0 * np.pi, ref.PHI_COUNT)
        circuit = bs.default_topology(etas, phis)
        add("compile_circuit", "19 elements", "0.14 ms", lambda: bs.compile_circuit(circuit))
        singles, sigma, records = ref.noisy_dataset(
            rng, ref.canonical_unitary(etas, phis), 10_000, 40)
        data = bs.MeasurementDataset(singles, sigma, tuple(
            bs.VisibilityRecord(i, o, v, s) for (i, o), v, s in records))
        idx = rec._pair_index_arrays(data.visibility_pairs())
        x = np.concatenate([etas, phis])
        add("fit residual eval", "25 singles + 40 visibilities", "0.185 ms",
            lambda: rec._residuals(x, data, idx))
        add("fit", "restarts = 20, noisy data", "2.9 s",
            lambda: bs.fit(data, bs.FitConfig(restarts=20, seed=0)))
    else:
        raise ValueError(f"no sweep for workload {workload!r}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans")
    parser.add_argument("--sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.sweep:
        print(json.dumps(sweep(args.sweep, args.seed)))
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    return run_job(args.spans, cli_args)


if __name__ == "__main__":
    sys.exit(main())
