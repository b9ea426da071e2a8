"""Order statistics used by the measurement and by ``compare``."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (float(values[0]), float(values[0]))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q3))


def high_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest percentile with ``beyond`` samples above it, or None.

    Returns ``(percent, value)``: with 50 samples it is p80, with 25 p60.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return (round(100 * (n - beyond) / n), float(ordered[n - beyond - 1]))


def drift(values: list[float]) -> float:
    """Median of the last third over median of the first third (1.0 = steady)."""
    third = max(1, len(values) // 3)
    return median(values[-third:]) / median(values[:third])


def summarize(values: list[float]) -> dict:
    """Sample count, p50, quartiles, the high percentile and drift of a series."""
    q1, q3 = quartiles(values)
    out = {
        "count": len(values),
        "p50": median(values),
        "q1": q1,
        "q3": q3,
        "drift": drift(values),
    }
    high = high_percentile(values)
    if high is not None:
        out["p_high"] = {"percent": high[0], "value": high[1]}
    return out
