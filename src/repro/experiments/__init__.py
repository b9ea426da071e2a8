"""Experiment harness: regenerates every figure of the paper's evaluation.

- :mod:`~repro.experiments.config` — experiment descriptors and defaults;
- :mod:`~repro.experiments.runner` — runs an application variant, collects
  the loop log, emits the backend's task graph, simulates it on the machine
  model, and returns (numerical result, simulated time, diagnostics);
- :mod:`~repro.experiments.figures` — ``fig15`` ... ``fig19`` series
  builders with ASCII rendering;
- :mod:`~repro.experiments.report` — paper-vs-measured comparison records
  that EXPERIMENTS.md is generated from.
"""

from repro.experiments.config import ExperimentConfig, DEFAULT_THREADS, PAPER_CLAIMS
from repro.experiments.runner import BackendRun, run_backend, simulate_backend
from repro.experiments.figures import (
    FigureSeries,
    fig15_exec_time,
    fig16_foreach_chunking,
    fig17_async,
    fig18_dataflow,
    fig19_weak_scaling,
    render_figure,
)
from repro.experiments.report import ExperimentReport, claim_check

__all__ = [
    "ExperimentConfig",
    "DEFAULT_THREADS",
    "PAPER_CLAIMS",
    "BackendRun",
    "run_backend",
    "simulate_backend",
    "FigureSeries",
    "fig15_exec_time",
    "fig16_foreach_chunking",
    "fig17_async",
    "fig18_dataflow",
    "fig19_weak_scaling",
    "render_figure",
    "ExperimentReport",
    "claim_check",
]
