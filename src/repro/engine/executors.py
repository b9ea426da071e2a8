"""Pluggable executors: run one loop program against bound resources.

A :class:`ProgramBindings` is everything a program needs at runtime — the
rank's :class:`~repro.op2.parloop.ParLoop` objects keyed by loop name, the
subset id arrays keyed by subset name, the raw field arrays and transport
for exchange steps, and an optional recorder. Three executors consume the
same (program, bindings) pair:

:class:`SerialExecutor`
    program order on the calling thread — the rank-per-process baseline
    (``threads_per_rank=1``), byte-identical to the old hand-written
    drivers;
:class:`ForkJoinExecutor`
    program order too, but each loop step forks into one batch per color
    and joins before the next step — the MPI+OpenMP shape (a barrier per
    loop, blocking exchanges on the orchestrator);
:class:`DependencyExecutor`
    the whole program is scheduled up front as dependency-released pool
    tasks entered from the finalizers of each step's derived predecessors;
    exchange waits occupy one worker while every step with no path from a
    ``halo``/``chan`` token keeps computing underneath — the HPX-dataflow
    shape, measured.

The two pool executors are scheduling policies over the threads-mode loop
runner (:mod:`repro.backends.threaded`): they decompose, execute chunks and
fold exactly as an ``openmp`` threads-mode session does on the same mesh,
block size and width, so the runner's determinism contract is theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backends.base import execute_loop
from repro.backends.threaded import color_chunks, finish_loop, run_forkjoin, submit_colors
from repro.engine.program import ExchangeStep, LoopProgram, LoopStep
from repro.hpx.chunking import GuessChunkSize
from repro.hpx.threadpool import PoolTask, ThreadPoolEngine
from repro.obs.recorder import TraceRecorder
from repro.op2.parloop import ParLoop
from repro.op2.plan import DEFAULT_BLOCK_SIZE, Plan, PlanCache
from repro.util.validate import ValidationError


@dataclass
class ProgramBindings:
    """Runtime resources a program executes against (one rank's view)."""

    loops: dict[str, ParLoop]
    subsets: dict[str, np.ndarray] = field(default_factory=dict)
    #: field name -> storage array, for exchange steps.
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: object providing ``update_start`` / ``accumulate_blocking`` / ... each
    #: taking a list of field arrays; ``None`` is valid for exchange-free
    #: programs.
    transport: Any = None
    recorder: TraceRecorder | None = None
    #: iteration-space sizes keyed like ``LoopProgram.partitions``, enabling
    #: exact-partition validation of the subset split.
    space_sizes: dict[str, int] = field(default_factory=dict)

    def elements(self, step: LoopStep) -> np.ndarray | None:
        if step.subset is None:
            return None
        try:
            return self.subsets[step.subset]
        except KeyError:
            raise ValidationError(
                f"program step {step.label!r} needs subset "
                f"{step.subset!r}; bindings have {sorted(self.subsets)}"
            ) from None

    def exchange(self, step: ExchangeStep) -> None:
        if self.transport is None:
            raise ValidationError(
                f"program has exchange step {step.label!r} but the bindings "
                "carry no transport"
            )
        fn = getattr(self.transport, step.method)
        fn([self.arrays[name] for name in step.fields])

    def validate_for(self, program: LoopProgram) -> None:
        """Check loop coverage and that each declared partition is exact."""
        missing = [n for n in program.loop_names() if n not in self.loops]
        if missing:
            raise ValidationError(f"bindings missing loops: {missing}")
        for space, names in program.partitions.items():
            parts = []
            for name in names:
                if name not in self.subsets:
                    raise ValidationError(
                        f"bindings missing subset {name!r} of space {space!r}"
                    )
                parts.append(np.asarray(self.subsets[name]))
            merged = np.concatenate(parts) if parts else np.empty(0, np.int64)
            if np.unique(merged).size != merged.size:
                raise ValidationError(
                    f"subsets of space {space!r} overlap: {names}"
                )
            size = self.space_sizes.get(space)
            if size is not None and not np.array_equal(
                np.sort(merged), np.arange(size, dtype=merged.dtype)
            ):
                raise ValidationError(
                    f"subsets {names} do not partition space {space!r} "
                    f"of size {size}"
                )


def _exchange_span(step: ExchangeStep) -> tuple[str, str]:
    """(label, span kind) for an exchange step, matching historic traces."""
    if step.phase == "blocking":
        return f"halo.{step.op}", "wait"
    kind = "release" if step.phase == "start" else "wait"
    return step.label, kind


class SerialExecutor:
    """Program order on the calling thread; the ``threads_per_rank=1`` path."""

    name = "serial"

    def run(self, program: LoopProgram, b: ProgramBindings) -> None:
        rec = b.recorder
        for step in program.steps:
            if isinstance(step, ExchangeStep):
                if rec is None:
                    b.exchange(step)
                    continue
                label, kind = _exchange_span(step)
                t0 = rec.now()
                b.exchange(step)
                rec.span(label, kind, "exchange", t0, rec.now())
                continue
            elements = b.elements(step)
            if elements is None or len(elements):
                self._run_loop(step, b.loops[step.name], elements, rec)

    def _run_loop(
        self,
        step: LoopStep,
        loop: ParLoop,
        elements: np.ndarray | None,
        rec: TraceRecorder | None,
    ) -> None:
        if rec is None:
            execute_loop(loop, elements)
            return
        t0 = rec.now()
        execute_loop(loop, elements)
        end = rec.now()
        label = step.name if step.subset is None else f"{step.name}.part"
        rec.span(label, "loop", step.name, t0, end, busy=True)
        rec.record_loop(step.name, end - t0, 1, 1)


class _PoolExecutor:
    """A pool plus the ``openmp`` backend's decomposition: plans and chunker."""

    def __init__(
        self, pool: ThreadPoolEngine, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        self.pool = pool
        self.block_size = int(block_size)
        self.plans = PlanCache()
        self.chunker = GuessChunkSize()

    def _plan(self, loop: ParLoop) -> Plan:
        return self.plans.get(loop.set_, list(loop.args), self.block_size)


class ForkJoinExecutor(_PoolExecutor, SerialExecutor):
    """Per-loop fork-join on a thread pool; blocking exchanges in between.

    This is the measured MPI+OpenMP baseline shape: colors run as barrier-
    separated batches, the orchestrating thread performs the exchanges, and
    nothing overlaps a wait.
    """

    name = "forkjoin"

    def _run_loop(
        self,
        step: LoopStep,
        loop: ParLoop,
        elements: np.ndarray | None,
        rec: TraceRecorder | None,
    ) -> None:
        run_forkjoin(
            self.pool, rec, loop, self._plan(loop), self.chunker, elements, step.label
        )


class DependencyExecutor(_PoolExecutor):
    """Whole-program dependency scheduling on a thread pool.

    Every loop step becomes the runner's color-gated chain of chunk tasks
    plus an inline finalizer running the epilogue; the chain's first color
    depends on the *finalizers of the step's derived predecessors* —
    nothing else. Exchange steps run as single pool tasks, so a wait
    occupies one worker while released compute fills the rest:
    communication hides behind computation exactly where the program's
    footprints allow it.
    """

    name = "dependency"

    def __init__(
        self, pool: ThreadPoolEngine, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> None:
        super().__init__(pool, block_size)
        self._edges: dict[int, tuple[tuple[int, ...], ...]] = {}

    def run(self, program: LoopProgram, b: ProgramBindings) -> None:
        edges = self._edges.get(id(program))
        if edges is None:
            edges = self._edges[id(program)] = program.edges()
        finals: list[PoolTask] = []
        for i, step in enumerate(program.steps):
            deps = [finals[j] for j in edges[i]]
            if isinstance(step, ExchangeStep):
                finals.append(
                    self.pool.submit_after(
                        lambda s=step: b.exchange(s), deps, loop=step.label
                    )
                )
            else:
                finals.append(self._schedule_loop(step, b, deps))
        # One join per timestep: the program's tail steps (and, transitively,
        # everything else) must be done before the next program instance is
        # scheduled against the same storage.
        self.pool.wait_all(finals, loop=program.name)

    def _schedule_loop(
        self, step: LoopStep, b: ProgramBindings, deps: list[PoolTask]
    ) -> PoolTask:
        pool = self.pool
        rec = b.recorder
        loop = b.loops[step.name]
        elements = b.elements(step)
        if elements is not None and not len(elements):
            return pool.gate(deps, loop=step.label)
        t_loop = rec.now() if rec is not None else 0.0
        colors = list(
            color_chunks(self._plan(loop), self.chunker, pool.num_workers, elements)
        )
        tasks, gate = submit_colors(pool, loop, colors, deps)
        return pool.submit_after(
            lambda: finish_loop(
                rec, loop, (t.value() for t in tasks), t_loop, step.label,
                len(colors), len(tasks),
            ),
            deps if gate is None else [gate],
            loop=f"{step.label}.fin",
            inline=True,
        )


def make_executor(
    schedule: str,
    pool: ThreadPoolEngine | None,
    block_size: int = DEFAULT_BLOCK_SIZE,
):
    """Executor selection policy for the per-rank engine.

    No pool (``threads_per_rank=1``) is the serial baseline; with a pool the
    ``blocking`` schedule gets the fork-join (MPI+OpenMP) shape and the
    ``overlapped`` schedule the dependency-scheduled (HPX-dataflow) shape.
    """
    if pool is None:
        return SerialExecutor()
    if schedule == "blocking":
        return ForkJoinExecutor(pool, block_size)
    return DependencyExecutor(pool, block_size)
