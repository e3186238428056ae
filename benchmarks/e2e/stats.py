"""Sample statistics for the benchmark: the p25 rule, tail percentiles,
geometric mean and the run-to-run spread the driver checks."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, highest first, in per mille (exact integers)
_TAILS = (999, 990, 950, 900, 750)


def quantile(samples, q: float) -> float:
    """Linear-interpolated quantile (NumPy's default definition)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def p25(samples) -> float:
    """The lower quartile: on a shared host noise only ever adds time,
    so the quiet-host latency of an operation is read low in its
    distribution, not at its centre."""
    return quantile(samples, 0.25)


def tail_percentile(n: int) -> float | None:
    """The highest percentile that still has at least ten samples
    beyond it; None when even p75 does not (n < 40)."""
    for pm in _TAILS:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10
    return None


def summarize(samples) -> dict:
    """n, p25, median and the supported tail of one operation's samples."""
    n = len(samples)
    out = {"n": n, "p25": p25(samples), "median": quantile(samples, 0.5)}
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = quantile(samples, tail / 100)
    return out


def geomean(values) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def spread(values) -> float:
    """Interquartile distance as a share of the median, with the
    quartiles as ``statistics.quantiles(values, n=4)`` gives them (the
    driver's definition). Fewer than two values have no spread."""
    vals = list(values)
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return (q3 - q1) / med if med else 0.0
