"""Statistics and span bookkeeping for the benchmark client.

A span is ``(name, start, end, parent, info)``: ``name`` is
``"<layer>.<function>"``, ``parent`` indexes the enclosing span of the
same job (-1 at top level) and ``info`` holds a per-call number the
layer metrics need (matrix size, basis length, nfev and cost), or None.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_SAMPLES = 10

# Which wrapped functions count as reading input and writing output.
IO_READS = ("io.read_matrix", "io.read_circuit", "io.read_dataset",
            "io.detect_network_kind", "io.sha256_file")
USEFUL_COST_MARGIN = 0.01


class TraceError(RuntimeError):
    """The trace recorded no work where work is declared, or a name it wraps is gone."""


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile of PERCENTILES with at least TAIL_SAMPLES samples beyond it.

    Percentiles are nearest-rank: the q-th is the ceil(q/100 * n)-th
    smallest sample, and the samples beyond it are the n - rank larger
    ranks. Returns (q, value), or None when even the median has fewer.
    """
    xs = sorted(values)
    n = len(xs)
    for q in reversed(PERCENTILES):
        rank = math.ceil(round(q * n / 100.0, 6))  # round: 99.9 * 10000 / 100 is 9990.000000000002
        if rank >= 1 and n - rank >= TAIL_SAMPLES:
            return q, xs[rank - 1]
    return None


def error_frac(outcomes) -> float:
    """Share of jobs that failed; ``outcomes`` holds None for a checked job, else the reason."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no jobs were attempted")
    return sum(reason is not None for reason in outcomes) / len(outcomes)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def layers_seen(spans) -> set[str]:
    return {span[0].partition(".")[0] for span in spans}


def job_layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one job, from its spans."""
    selfs = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), s in zip(spans, selfs):
        count[name] += 1
        total[name] += end - start
        own[name] += s

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    perm_calls = layer("permanent", count)
    perm_ops = sum(2.0**info * 2 * info for name, _, _, _, info in spans
                   if name.startswith("permanent.") and info)
    rates = count["interference.coincidence_rate"]
    residuals = count["reconstruction._residuals"]

    lsq = [i for i, span in enumerate(spans) if span[0] == "reconstruction.least_squares"]
    lsq_set = set(lsq)
    nfev = sum(spans[i][4][0] for i in lsq)
    in_lsq = sum(1 for span in spans
                 if span[0] == "reconstruction._residuals" and span[3] in lsq_set)
    best_by_fit = defaultdict(lambda: math.inf)
    for i in lsq:
        best_by_fit[spans[i][3]] = min(best_by_fit[spans[i][3]], spans[i][4][1])
    useful = sum(spans[i][4][1] <= (1 + USEFUL_COST_MARGIN) * best_by_fit[spans[i][3]]
                 for i in lsq)

    return {
        "io.read_s": sum(total[k] for k in IO_READS),
        "io.write_s": sum(v for k, v in total.items() if k.startswith("io.write_")),
        "fock.basis_states": sum(span[4] for span in spans if span[0] == "fock.enumerate_basis"),
        "fock.enumerate_s": total["fock.enumerate_basis"],
        "fock.distribution_self_s": own["fock.full_distribution"]
        + own["fock.collision_free_distribution"],
        "fock.sample_self_s": own["fock.sample"],
        "permanent.calls": perm_calls,
        "permanent.self_s": layer("permanent", own),
        "permanent.us_per_call": 1e6 * layer("permanent", own) / perm_calls if perm_calls else 0.0,
        "permanent.ops": perm_ops,
        "permanent.gops_per_s": perm_ops / layer("permanent", total) / 1e9 if perm_calls else 0.0,
        "unitary.check_calls": count["unitary.is_unitary"],
        "unitary.check_s": total["unitary.is_unitary"],
        "interference.rate_calls": rates,
        "interference.ms_per_rate": 1e3 * total["interference.coincidence_rate"] / rates
        if rates else 0.0,
        "interference.overlap_s": total["interference.overlap_from_delays"],
        "circuit.compile_calls": count["circuit.compile_circuit"],
        "circuit.compile_s": total["circuit.compile_circuit"],
        "reconstruction.restarts": len(lsq),
        "reconstruction.nfev": nfev,
        "reconstruction.residual_evals": residuals,
        "reconstruction.s_per_residual": total["reconstruction._residuals"] / residuals
        if residuals else 0.0,
        "reconstruction.lsq_self_s": own["reconstruction.least_squares"],
        "reconstruction.jac_eval_frac": (in_lsq - nfev) / in_lsq if in_lsq else 0.0,
        "reconstruction.useful_restart_frac": useful / len(lsq) if lsq else 0.0,
    }
