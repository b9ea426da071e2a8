"""An HPX-like asynchronous many-task runtime, in Python.

This subpackage mirrors the slice of HPX used by the paper:

- :class:`~repro.hpx.future.Future` / :func:`~repro.hpx.future.when_all` —
  the asynchronous result primitive (paper §II-B, Fig 3).
- :func:`~repro.hpx.runtime.async_` — asynchronous function invocation
  returning a future (paper Fig 8).
- :func:`~repro.hpx.dataflow.dataflow` — delayed invocation until all future
  arguments are ready (paper §III-B, Figs 11–12).
- :func:`~repro.hpx.parallel.for_each` — the parallel algorithm with
  execution policies ``seq`` / ``par`` / ``par(task)`` (paper §III-A).
- :mod:`~repro.hpx.chunking` — HPX's auto-partitioner and static chunk sizes
  (paper Figs 6–7).

There are two executors. The cooperative
:class:`~repro.hpx.executor.TaskExecutor` multiplexes logical worker queues
on the calling OS thread; sim mode runs on it, and the discrete-event model
in :mod:`repro.sim` replays its schedules for timing. The
:class:`~repro.hpx.threadpool.ThreadPoolEngine` runs tasks on real OS
threads; threads mode and the pool inside a multi-threaded procs rank run
on it. Its workers overlap only inside NumPy calls that release the GIL.
"""

from repro.hpx.future import Future, FutureError, make_ready_future, when_all
from repro.hpx.executor import TaskExecutor, ExecutorStats
from repro.hpx.policies import ExecutionPolicy, seq, par, par_task
from repro.hpx.chunking import (
    AutoPartitioner,
    StaticChunkSize,
    DynamicChunkSize,
    GuessChunkSize,
)
from repro.hpx.parallel import for_each
from repro.hpx.dataflow import dataflow, unwrapped
from repro.hpx.runtime import HPXRuntime, async_, get_runtime, set_runtime

__all__ = [
    "Future",
    "FutureError",
    "make_ready_future",
    "when_all",
    "TaskExecutor",
    "ExecutorStats",
    "ExecutionPolicy",
    "seq",
    "par",
    "par_task",
    "AutoPartitioner",
    "StaticChunkSize",
    "DynamicChunkSize",
    "GuessChunkSize",
    "for_each",
    "dataflow",
    "unwrapped",
    "HPXRuntime",
    "async_",
    "get_runtime",
    "set_runtime",
]
