"""Summary statistics for the benchmark: percentiles, spreads, and the
modeled speed/accuracy aggregate against the cycle-by-cycle reference."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, refused when too few samples lie beyond it.

    ``pct=50`` is the plain median.  For any other percentile at least
    :data:`MIN_TAIL_SAMPLES` samples must be larger than the reported one,
    so a p90 needs 100 samples; a p90 over a handful of runs is the largest
    run, not a percentile.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if pct == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples leaves {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return ordered[max(rank, 1) - 1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, with the quartiles
    ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def modeled_summary(pairs: Sequence[Tuple[object, object]]) -> Dict[str, float]:
    """Geomean modeled speedup and mean execution-time error (percent) of
    ``(report, cc_reference)`` pairs over the CC reference.

    :func:`repro.stats.accuracy.summarize_scheme` takes one scheme at a
    time, so the pairs are grouped by scheme and the per-scheme aggregates
    are recombined weighted by pair count (which equals the aggregate
    over all pairs taken at once).
    """
    from repro.stats.accuracy import summarize_scheme

    groups: Dict[str, List[Tuple[object, object]]] = {}
    for report, reference in pairs:
        groups.setdefault(report.scheme, []).append((report, reference))
    if not groups:
        raise ValueError("no report pairs")
    log_speedup = 0.0
    error_sum = 0.0
    count = 0
    for scheme in sorted(groups):
        summary = summarize_scheme(groups[scheme])
        n = len(groups[scheme])
        log_speedup += n * math.log(summary.geomean_speedup)
        error_sum += n * summary.accuracy.mean_exec_error
        count += n
    return {
        "modeled_speedup": math.exp(log_speedup / count),
        "exec_err_pct": 100.0 * error_sum / count,
    }
