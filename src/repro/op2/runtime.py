"""The OP2 runtime session: backend dispatch, plan cache, loop log.

An :class:`Op2Runtime` is one configured execution context: which backend
(openmp / hpx flavor), how many threads, what block size. It owns

- the plan cache (plans are reused across loops and timesteps);
- the HPX runtime for the async/dataflow backends;
- the **loop log**: the sequence of executed loops and synchronization
  points, which the task-graph emitters replay onto the machine simulator.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.hpx.future import Future
from repro.hpx.runtime import HPXRuntime, set_runtime
from repro.hpx.threadpool import PoolStats, ThreadPoolEngine
from repro.obs.recorder import TraceRecorder
from repro.obs.timing import TimingSummary
from repro.op2.config import RuntimeConfig
from repro.op2.exceptions import Op2Error
from repro.op2.parloop import ParLoop
from repro.op2.plan import DEFAULT_BLOCK_SIZE, Plan, PlanCache
from repro.util.validate import check_positive


@dataclass(frozen=True)
class LoopRecord:
    """One executed op_par_loop, in program order."""

    loop_id: int
    loop: ParLoop
    plan: Plan


@dataclass(frozen=True)
class SyncRecord:
    """An explicit synchronization point (``future.get()`` calls, Fig 10)."""

    loop_ids: tuple[int, ...]


@dataclass
class LoopLog:
    """Program-order record of loops and syncs for one run.

    ``limit`` bounds the retained entries: ``None`` keeps everything (the
    sim mode's emitters replay the *full* log, so they need it all), ``0``
    disables retention, and ``n > 0`` keeps the last ``n`` records — the
    threads-mode default, where the log is purely diagnostic and one record
    per loop forever is a memory leak on multi-million-timestep runs.
    ``total`` counts every append, including evicted/dropped ones.
    """

    entries: list[LoopRecord | SyncRecord] = field(default_factory=list)
    limit: int | None = None
    total: int = 0

    def loops(self) -> list[LoopRecord]:
        return [e for e in self.entries if isinstance(e, LoopRecord)]

    def append(self, entry: LoopRecord | SyncRecord) -> None:
        self.total += 1
        if self.limit == 0:
            return
        self.entries.append(entry)
        if self.limit is not None and len(self.entries) > self.limit:
            del self.entries[0]

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


class Op2Runtime:
    """One OP2 execution session."""

    def __init__(
        self,
        backend: str = "seq",
        num_threads: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        config: RuntimeConfig | None = None,
        backend_options: dict | None = None,
    ) -> None:
        from repro.backends.registry import create_backend

        check_positive("num_threads", num_threads)
        check_positive("block_size", block_size)
        self.backend_name = backend
        self.backend = create_backend(backend, **(backend_options or {}))
        self.num_threads = int(num_threads)
        self.block_size = int(block_size)
        self.config = config if config is not None else RuntimeConfig()
        self.num_workers = self.config.resolve_workers(self.num_threads)
        self.hpx = HPXRuntime(self.num_threads)
        self.plans = PlanCache()
        self.log = LoopLog(limit=self.config.resolve_log_limit())
        #: wall-clock recorder for the threads mode; ``None`` unless the
        #: config asks for tracing/timing, so the disabled path stays bare.
        self.obs: TraceRecorder | None = (
            TraceRecorder(events=self.config.trace)
            if self.config.observing
            else None
        )
        self._pool: ThreadPoolEngine | None = None
        self._pool_stats: PoolStats | None = None
        self._next_loop_id = 0
        self.backend.on_attach(self)

    @property
    def thread_pool(self) -> ThreadPoolEngine:
        """The real worker pool for ``threads`` mode (created lazily)."""
        if self._pool is None:
            self._pool = ThreadPoolEngine(self.num_workers)
            self._pool.recorder = self.obs
        return self._pool

    @property
    def pool_stats(self) -> PoolStats:
        """Pool activity counters; survives :meth:`close` as a snapshot.

        Benchmarks read this *after* a session exits (the ``with`` block
        closes the pool on the way out), so the counters of the released
        pool are kept rather than discarded with it.
        """
        if self._pool is not None:
            return self._pool.stats
        if self._pool_stats is not None:
            return self._pool_stats
        return PoolStats()

    # -- loop execution -----------------------------------------------------

    def par_loop(self, loop: ParLoop) -> Future | None:
        """Record and dispatch one loop; returns the backend's result."""
        if self.config.procs:
            raise Op2Error(
                "mode='procs' executes whole applications across rank "
                "processes (see repro.procs.run_procs); per-loop dispatch "
                "through a session is not available in this mode"
            )
        plan = self.plans.get(loop.set_, list(loop.args), self.block_size)
        loop_id = self._next_loop_id
        self._next_loop_id += 1
        self.log.append(LoopRecord(loop_id=loop_id, loop=loop, plan=plan))
        if self.config.threaded:
            result = self.backend.run_loop_threads(self, loop, plan, loop_id)
        else:
            result = self.backend.run_loop(self, loop, plan, loop_id)
        if isinstance(result, Future):
            # The loop id lives on the future itself: an id()-keyed side
            # table maps a *new* future to a stale loop after CPython reuses
            # a collected future's address, and grows without bound.
            result.loop_id = loop_id
        return result

    def sync(self, *results: Future | None) -> None:
        """``new_data.get()`` of the paper: wait for loop futures, log it."""
        waited: list[int] = []
        for r in results:
            if r is None:
                continue
            if not isinstance(r, Future):
                raise Op2Error(f"sync expects loop futures, got {r!r}")
            r.get()
            if r.loop_id is not None:
                waited.append(r.loop_id)
        if waited:
            self.log.append(SyncRecord(loop_ids=tuple(waited)))

    def finish(self) -> None:
        """Complete all outstanding asynchronous work."""
        self.backend.finalize(self)
        self.hpx.executor.drain()

    def cancel(self) -> None:
        """Discard outstanding asynchronous work (error-path cleanup).

        Used instead of :meth:`finish` when a session body raised: queued
        executor tasks are dropped (their futures fail rather than linger)
        and backend scheduling state is reset, so a runtime reused by a
        later session does not replay this session's stale work.
        """
        if self._pool is not None:
            # Unreleased dependency-scheduled tasks must never fire after
            # their session aborted; in-flight ones are waited out so no
            # worker still mutates shared dats when control returns.
            self._pool.cancel_all()
        self.backend.cancel(self)
        self.hpx.executor.cancel_pending()

    # -- observability -------------------------------------------------------

    def timing_summary(self) -> TimingSummary:
        """Per-kernel wall-clock table (OP2's ``op_timing_output``)."""
        if self.obs is None:
            raise Op2Error(
                "timing is not enabled; construct the session with "
                "timing=True or trace=True"
            )
        return self.obs.summary(self.num_workers, joins=self.pool_stats.joins)

    def export_trace(self, path) -> int:
        """Write the measured Chrome-trace JSON; returns the event count."""
        if self.obs is None or not self.obs.collect_events:
            raise Op2Error(
                "tracing is not enabled; construct the session with trace=True"
            )
        from repro.obs.chrome import export_obs_trace

        return export_obs_trace(
            self.obs, path, process_name=f"repro.threads[{self.backend_name}]"
        )

    def close(self) -> None:
        """Release OS resources (thread-pool workers). Idempotent.

        The runtime remains usable afterwards: the pool is re-created lazily
        if another threaded loop runs.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool_stats = self._pool.stats
            self._pool = None

    # -- session management -------------------------------------------------

    def activate(self) -> "Op2Runtime | None":
        """Install as the current OP2 + HPX runtime; returns the previous."""
        previous = set_op2_runtime(self)
        set_runtime(self.hpx)
        return previous

    def deactivate(self, previous: "Op2Runtime | None") -> None:
        set_op2_runtime(previous)
        set_runtime(previous.hpx if previous is not None else None)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Op2Runtime backend={self.backend_name} threads={self.num_threads} "
            f"block={self.block_size}>"
        )


_current: Op2Runtime | None = None


def get_op2_runtime() -> Op2Runtime:
    """The active session; loops outside a session run on a default seq one."""
    global _current
    if _current is None:
        _current = Op2Runtime()
        set_runtime(_current.hpx)
    return _current


def set_op2_runtime(rt: Op2Runtime | None) -> Op2Runtime | None:
    global _current
    previous = _current
    _current = rt
    return previous


@contextmanager
def op2_session(
    backend: str = "seq",
    num_threads: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    mode: str = "sim",
    num_workers: int | None = None,
    num_ranks: int | None = None,
    backend_options: dict | None = None,
    trace: bool = False,
    timing: bool = False,
    log_limit: int | None = None,
) -> Iterator[Op2Runtime]:
    """Scoped OP2 session: installs the runtime, finishes and restores on exit.

    ``mode="threads"`` selects real shared-memory execution on
    ``num_workers`` OS threads (default: ``num_threads``); the default
    ``"sim"`` keeps the deterministic cooperative path. ``trace``/``timing``
    enable the wall-clock observability layer (see :mod:`repro.obs`);
    ``log_limit`` bounds the loop log (see :class:`LoopLog`).

    If the body raises, outstanding asynchronous work is *cancelled* rather
    than finished — queued tasks must not leak into a later session that
    reuses this runtime — and the exception propagates unchanged.

    >>> from repro.op2 import op2_session
    >>> with op2_session(backend="openmp", num_threads=4) as rt:
    ...     pass  # run op_par_loop(...) calls here
    """
    rt = Op2Runtime(
        backend=backend,
        num_threads=num_threads,
        block_size=block_size,
        config=RuntimeConfig(
            mode=mode,
            num_workers=num_workers,
            num_ranks=num_ranks,
            trace=trace,
            timing=timing,
            log_limit=log_limit,
        ),
        backend_options=backend_options,
    )
    previous = rt.activate()
    try:
        yield rt
        rt.finish()
    except BaseException:
        # A raising body (or a raising kernel surfacing in finish) would
        # otherwise skip the drain and leave queued work behind.
        rt.cancel()
        raise
    finally:
        rt.deactivate(previous)
        rt.close()
