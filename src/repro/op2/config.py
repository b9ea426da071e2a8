"""Runtime execution configuration: simulated vs. measured execution.

Every :class:`~repro.op2.runtime.Op2Runtime` carries a :class:`RuntimeConfig`
selecting one of three execution modes:

- ``"sim"`` (default) — the cooperative single-OS-thread path: backends run
  their loops through the deterministic
  :class:`~repro.hpx.executor.TaskExecutor` and the machine *simulator*
  produces the scaling numbers. Bit-identical to the historical behaviour.
- ``"threads"`` — real shared-memory execution: the gather/compute/scatter
  core runs on a :class:`~repro.hpx.threadpool.ThreadPoolEngine` backed by a
  ``concurrent.futures.ThreadPoolExecutor``. Direct loops are split into
  chunks by the backend's chunking policy; indirect loops run color by color
  with all same-color plan blocks dispatched concurrently. Workers overlap
  only inside NumPy calls that release the GIL, and that depends on the
  primitive: a probe on a 2-core host saw ``np.take(out=)`` and
  ``np.bincount`` overlap at 32k rows while ``np.add.at`` never did
  (ROADMAP item 16 makes this visible per span).
- ``"procs"`` — one OS process per rank over shared-memory dats, driven
  through :func:`repro.procs.run_procs` rather than per-loop dispatch.

The mode is orthogonal to the backend choice: every backend keeps its own
decomposition policy (OpenMP-style even split, for_each auto/static chunking,
async/dataflow), so wall-clock measurements stay comparable to the simulated
curves of Figs 15-19.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.op2.exceptions import Op2Error

#: Valid execution modes.
MODES = ("sim", "threads", "procs")

#: Default :class:`~repro.op2.runtime.LoopLog` bound for ``mode="threads"``.
#: Threaded runs never replay their logs on the simulator, so keeping one
#: record per loop forever is a memory leak on exactly the long wall-clock
#: runs the mode targets; the sim mode keeps full logs (emission needs them).
DEFAULT_THREADS_LOG_LIMIT = 512


@dataclass(frozen=True)
class RuntimeConfig:
    """How loops are physically executed.

    Attributes:
        mode: ``"sim"`` (cooperative, deterministic, default), ``"threads"``
            (real ``ThreadPoolExecutor`` workers measuring wall-clock), or
            ``"procs"`` (rank-per-process SPMD execution with shared-memory
            dats and pipe-based halo exchanges — driven through
            :func:`repro.procs.run_procs`, not per-loop dispatch).
        num_workers: OS threads for ``mode="threads"``; ``None`` inherits the
            runtime's ``num_threads``.
        num_ranks: OS processes for ``mode="procs"``; ``None`` elsewhere.
        threads_per_rank: pool threads inside each rank process for
            ``mode="procs"`` (the hybrid MPI+OpenMP analogue); ``None``
            elsewhere, ``1`` keeps ranks single-threaded.
        trace: collect per-task/per-color/per-loop wall-clock events for
            Chrome-trace export (threads mode; implies per-kernel timing).
        timing: collect the per-kernel timing aggregates only (no event
            stream) — the cheap ``op_timing_output`` flavor.
        log_limit: loop-log bound. ``None`` resolves per mode (unbounded for
            ``sim``, :data:`DEFAULT_THREADS_LOG_LIMIT` for ``threads``);
            ``0`` disables logging; ``n > 0`` keeps the last ``n`` records.
    """

    mode: str = "sim"
    num_workers: int | None = None
    num_ranks: int | None = None
    threads_per_rank: int | None = None
    trace: bool = False
    timing: bool = False
    log_limit: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise Op2Error(
                f"execution mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise Op2Error(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.num_ranks is not None:
            if self.mode != "procs":
                raise Op2Error(
                    f"num_ranks only applies to mode='procs', got mode={self.mode!r}"
                )
            if self.num_ranks < 1:
                raise Op2Error(f"num_ranks must be >= 1, got {self.num_ranks}")
        if self.threads_per_rank is not None:
            if self.mode != "procs":
                raise Op2Error(
                    "threads_per_rank only applies to mode='procs', "
                    f"got mode={self.mode!r}"
                )
            if self.threads_per_rank < 1:
                raise Op2Error(
                    f"threads_per_rank must be >= 1, got {self.threads_per_rank}"
                )
        if self.log_limit is not None and self.log_limit < 0:
            raise Op2Error(
                f"log_limit must be >= 0 (0 disables), got {self.log_limit}"
            )

    @property
    def threaded(self) -> bool:
        return self.mode == "threads"

    @property
    def procs(self) -> bool:
        return self.mode == "procs"

    def resolve_ranks(self, default: int = 2) -> int:
        """Rank-process count for ``mode='procs'`` (``None`` -> ``default``)."""
        return int(self.num_ranks) if self.num_ranks is not None else int(default)

    def resolve_threads_per_rank(self, default: int = 1) -> int:
        """Per-rank pool width for ``mode='procs'`` (``None`` -> ``default``)."""
        if self.threads_per_rank is not None:
            return int(self.threads_per_rank)
        return int(default)

    @property
    def observing(self) -> bool:
        """True when the runtime should carry a wall-clock recorder."""
        return self.trace or self.timing

    def resolve_workers(self, default: int) -> int:
        """Worker count for the thread pool (``None`` -> ``default``)."""
        return int(self.num_workers) if self.num_workers is not None else int(default)

    def resolve_log_limit(self) -> int | None:
        """Effective loop-log bound (``None`` = unbounded)."""
        if self.log_limit is not None:
            return int(self.log_limit)
        return DEFAULT_THREADS_LOG_LIMIT if self.threaded else None
