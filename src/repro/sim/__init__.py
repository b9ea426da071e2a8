"""Discrete-event simulation of a multicore shared-memory node.

The paper measures wall-clock scaling of different loop-scheduling structures
(fork-join barriers vs futures vs dataflow DAGs) on a 2-socket Xeon with 16
cores / 32 hyperthreads. CPython's GIL makes real thread scaling of Python
tasks meaningless, so this subpackage replays the *task graphs* produced by
the OP2 backends on an event-driven machine model instead:

- :mod:`~repro.sim.task` — tasks and dependency graphs (with critical-path
  and total-work analysis);
- :mod:`~repro.sim.machine` — the machine model: cores, SMT, per-task
  overheads, barrier cost models, memory-bandwidth contention;
- :mod:`~repro.sim.engine` — the event-driven list-scheduling simulator;
- :mod:`~repro.sim.trace` / :mod:`~repro.sim.metrics` — per-core Gantt traces
  and derived metrics (makespan, speedup, efficiency, overhead breakdown).

Every quantity is in abstract microseconds; only ratios matter for the
reproduced figures.
"""

from repro.sim.task import SimTask, TaskGraph, TaskGraphError
from repro.sim.machine import MachineConfig, paper_machine, thread_speeds
from repro.sim.barriers import barrier_cost, BARRIER_MODELS
from repro.sim.bandwidth import contention_factor
from repro.sim.engine import SimulationEngine, SimResult
from repro.sim.trace import TraceRecord, Trace
from repro.sim.metrics import (
    speedup_series,
    efficiency_series,
    overhead_breakdown,
)
from repro.sim.chrometrace import export_chrome_trace, trace_events

__all__ = [
    "SimTask",
    "TaskGraph",
    "TaskGraphError",
    "MachineConfig",
    "paper_machine",
    "thread_speeds",
    "barrier_cost",
    "BARRIER_MODELS",
    "contention_factor",
    "SimulationEngine",
    "SimResult",
    "TraceRecord",
    "Trace",
    "speedup_series",
    "efficiency_series",
    "overhead_breakdown",
    "export_chrome_trace",
    "trace_events",
]
