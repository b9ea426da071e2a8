"""Derived metrics: speedup, efficiency, overhead decomposition."""

from __future__ import annotations

from collections.abc import Sequence

from repro.sim.engine import SimResult
from repro.util.validate import ValidationError


def speedup_series(
    threads: Sequence[int], times: Sequence[float]
) -> list[float]:
    """Strong-scaling speedup relative to the first (1-thread) entry."""
    if len(threads) != len(times) or not times:
        raise ValidationError("threads/times must be equal-length, non-empty")
    base = times[0]
    if base <= 0:
        raise ValidationError(f"baseline time must be > 0, got {base}")
    return [base / t for t in times]


def efficiency_series(
    threads: Sequence[int], times: Sequence[float], *, weak: bool = False
) -> list[float]:
    """Parallel efficiency.

    Strong scaling: ``T1 / (P * TP)``. Weak scaling (problem grows with P,
    per-thread work constant): ``T1 / TP`` — the paper's Fig 19 metric,
    'efficiency relative to the one core case'.
    """
    if len(threads) != len(times) or not times:
        raise ValidationError("threads/times must be equal-length, non-empty")
    base = times[0]
    if base <= 0:
        raise ValidationError(f"baseline time must be > 0, got {base}")
    if weak:
        return [base / t for t in times]
    return [base / (p * t) for p, t in zip(threads, times)]


def overhead_breakdown(result: SimResult) -> dict[str, float]:
    """Decompose thread-time into useful work, overhead kinds, and idle.

    Values are fractions of total thread-time (makespan * threads); they sum
    to 1 up to rounding.
    """
    span = result.makespan * result.num_threads
    if span == 0.0:
        return {"work": 1.0, "idle": 0.0}
    by_kind = result.trace.time_by_kind()
    out = {kind: t / span for kind, t in sorted(by_kind.items())}
    out["idle"] = max(0.0, 1.0 - sum(out.values()))
    return out
