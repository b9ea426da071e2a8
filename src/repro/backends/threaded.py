"""The threads-mode loop runner under every real-thread execution shape.

The backends' fork-join (``openmp``, ``foreach*``) and dependency-released
(``hpx_async``, ``hpx_dataflow``) loops and the per-rank engine's
:class:`~repro.engine.executors.ForkJoinExecutor` /
:class:`~repro.engine.executors.DependencyExecutor` all execute a loop with
the same four pieces; they differ only in the scheduling policy around them,
which is the paper's experimental variable:

1. :func:`color_chunks` — the decomposition. Color classes run in plan order;
   the backend's chunker splits each class's blocks into chunks, one pool
   task each, and a chunk's elements are one selection. Over a whole set, a
   colored chunk is a view of the plan's class-ordered element array
   (:attr:`~repro.op2.plan.Plan.order`) and an uncolored one a ``slice``, so
   every chunk is one large numpy batch — the grain numpy needs to release
   the GIL for meaningful stretches. Over a sorted subset, each block is
   clipped to the subset ids inside it, blocks left empty drop out, and a
   chunk is the pieces concatenated.
2. :func:`run_chunk` — the chunk body: one ``execute_loop`` with global
   partials sent to a sink and no version bump. Running a colored chunk's
   blocks as one batch is bit-identical to running them one by one:
   same-color blocks increment disjoint rows and the per-component
   ``ufunc.at`` of :func:`~repro.backends.base.scatter_args` applies
   increments in index order, so every row gets the same increments in the
   same order.
3. :func:`submit_colors` — the dependency shape: a color-gated
   ``submit_after`` chain; the caller adds entry and per-block deps.
4. :func:`finish_loop` — the epilogue: fold partials in submission order,
   bump each distinct written dat once, write the loop span, record the loop.

:func:`run_forkjoin` is the fork-join shape: one ``run_batch`` per color,
with the auto partitioner's timed serial prefix run inline first and a
``dynamic`` chunker's chunks pulled on demand (same decomposition and fold
order, so dynamic bit-matches static).

Why this is race-free:

- same-color blocks touch disjoint indirect-reduction rows (plan coloring,
  property-tested in ``tests/property/test_prop_threaded_race.py``);
- direct writes target each task's own elements, which are disjoint by
  construction (chunks partition the class);
- globals are never written from worker threads (deferred partials);
- dat version counters are bumped once per loop by the epilogue, not per
  chunk.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import (
    apply_global_partials,
    bump_written_versions,
    execute_loop,
)
from repro.hpx.chunking import Chunk, Chunker
from repro.hpx.threadpool import PoolTask, ThreadPoolEngine
from repro.op2.args import Arg
from repro.op2.exceptions import PlanError
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.recorder import TraceRecorder

Partials = list[tuple[Arg, np.ndarray]]


@dataclass(frozen=True)
class LoopChunk:
    """One pool task's share of a color class."""

    #: plan block ids the chunk covers, in plan order.
    blocks: list[int]
    #: the chunk's elements, in ``blocks`` order: a slice or an index array.
    elements: slice | np.ndarray


def _clip(
    plan: Plan, class_blocks: list[int], subset: np.ndarray
) -> tuple[list[int], list[np.ndarray]]:
    """The class's blocks holding subset ids, and those ids per block.

    Same-color pieces inherit the plan's disjoint-target guarantee — a
    subset of a block increments a subset of the block's targets.
    """
    bounds = [(plan.blocks[b].start, plan.blocks[b].stop) for b in class_blocks]
    cuts = np.searchsorted(subset, bounds, side="left").tolist()
    kept = [(b, lo, hi) for b, (lo, hi) in zip(class_blocks, cuts) if hi > lo]
    return [b for b, _, _ in kept], [subset[lo:hi] for _, lo, hi in kept]


def color_chunks(
    plan: Plan,
    chunker: Chunker,
    num_workers: int,
    subset: np.ndarray | None = None,
    measure: Callable[[int, LoopChunk], float] | None = None,
) -> Iterator[tuple[int, list[LoopChunk]]]:
    """Yield ``(color, chunks)`` for every color class with work, in order.

    The decomposition depends only on (plan, subset, chunker, workers), so
    the fold order it fixes is identical across runs. ``measure(color,
    chunk)`` executes a measuring chunker's serial prefix inline and returns
    its seconds; that prefix is then left out of the yielded chunks. The
    generator is lazy so the prefix of color ``c`` runs only after the caller
    finished color ``c - 1``.
    """
    if subset is not None and np.any(np.diff(subset) < 0):
        raise PlanError("a chunked subset must be sorted ascending")
    first = 0  # class position of the class's first block
    for ci, class_blocks in enumerate(plan.classes):
        if subset is None:
            blocks, pieces = class_blocks, None
        else:
            blocks, pieces = _clip(plan, class_blocks, subset)
        base, first = first, first + len(class_blocks)
        if not blocks:
            continue

        def take(c: Chunk) -> LoopChunk:
            ids = blocks[c.start : c.stop]
            if pieces is not None:
                return LoopChunk(ids, np.concatenate(pieces[c.start : c.stop]))
            lo = int(plan.offsets[base + c.start])
            hi = int(plan.offsets[base + c.stop])
            return LoopChunk(ids, plan.order[lo:hi] if plan.colored else slice(lo, hi))

        timed = None if measure is None else (lambda c: measure(ci, take(c)))
        chunks = chunker.split(len(blocks), num_workers, measure=timed)
        yield ci, [
            take(c) for c in chunks if len(c) and (timed is None or not c.serial_prefix)
        ]


def run_chunk(loop: ParLoop, chunk: LoopChunk) -> Partials:
    """Pool-task body: execute one chunk, return its deferred global partials."""
    partials: Partials = []
    execute_loop(loop, chunk.elements, global_sink=partials, bump_versions=False)
    return partials


def finish_loop(
    rec: TraceRecorder | None,
    loop: ParLoop,
    results: Iterable[Partials],
    t_loop: float,
    label: str,
    ncolors: int,
    ntasks: int,
    prefix_s: float = 0.0,
) -> None:
    """The loop epilogue, on whichever thread completes the loop.

    ``results`` are the chunks' partials in submission order — never
    completion order — so repeated runs with the same worker count fold
    MIN/MAX/INC reductions bit-identically.
    """
    partials = [p for chunk_partials in results for p in chunk_partials]
    fold_s = 0.0
    if rec is not None and partials:
        t0 = rec.now()
        apply_global_partials(partials)
        fold_s = rec.now() - t0
        rec.span(f"{loop.name}.fold", "fold", loop.name, t0, t0 + fold_s, busy=True)
    else:
        apply_global_partials(partials)
    bump_written_versions(loop)
    if rec is not None:
        end = rec.now()
        rec.span(label, "loop", loop.name, t_loop, end)
        _count, task_s = rec.take_task_totals(loop.name)
        rec.record_loop(
            loop.name, end - t_loop, ncolors, ntasks, task_s, prefix_s, fold_s
        )


def _run_dynamic(
    pool: ThreadPoolEngine, loop: ParLoop, chunks: list[LoopChunk], color: int
) -> list[Partials]:
    """Self-scheduling: pullers drain a shared chunk index on demand.

    Each chunk's partials land in the slot matching its *chunk index*, so
    the epilogue folds them in decomposition order regardless of which
    worker ran which chunk.
    """
    slots: list[Partials | None] = [None] * len(chunks)
    state = {"next": 0}
    lock = threading.Lock()

    def pull() -> None:
        while True:
            with lock:
                i = state["next"]
                if i >= len(chunks):
                    return
                state["next"] = i + 1
            slots[i] = run_chunk(loop, chunks[i])

    width = min(pool.num_workers, len(chunks))
    pool.run_batch([pull for _ in range(width)], loop=loop.name, color=color)
    assert all(s is not None for s in slots)
    return slots  # type: ignore[return-value]


def run_forkjoin(
    pool: ThreadPoolEngine,
    rec: TraceRecorder | None,
    loop: ParLoop,
    plan: Plan,
    chunker: Chunker,
    subset: np.ndarray | None = None,
    label: str | None = None,
) -> None:
    """Run ``loop`` as one fork-join batch per color class on ``pool``.

    ``run_batch`` returns only after every task of the color finished (the
    color barrier). With a recorder, the calling thread also records
    per-color spans and the serial prefix; workers record their task spans.
    """
    results: list[Partials] = []
    prefix_s = 0.0
    ncolors = 0
    ntasks = 0

    def run_prefix(ci: int, chunk: LoopChunk) -> float:
        # HPX's auto partitioner: the measurement pass runs inline on the
        # caller before any parallel chunk is spawned, and its wall time is
        # what the chunker sizes the remaining chunks from.
        nonlocal prefix_s
        t0 = perf_counter()
        results.append(run_chunk(loop, chunk))
        elapsed = perf_counter() - t0
        if rec is not None:
            prefix_s += elapsed
            t1 = rec.now()
            rec.span(
                f"{loop.name}.c{ci}.prefix", "prefix", loop.name,
                t1 - elapsed, t1, color=ci, busy=True,
            )
        return elapsed

    t_loop = t_color = rec.now() if rec is not None else 0.0
    for ci, chunks in color_chunks(plan, chunker, pool.num_workers, subset, run_prefix):
        ncolors += 1
        if chunker.dynamic and chunks:
            results.extend(_run_dynamic(pool, loop, chunks, ci))
            ntasks += min(pool.num_workers, len(chunks))
        else:
            results.extend(
                pool.run_batch(
                    [lambda c=c: run_chunk(loop, c) for c in chunks],
                    loop=loop.name,
                    color=ci,
                )
            )
            ntasks += len(chunks)
        if rec is not None:
            now = rec.now()
            rec.span(f"{loop.name}.c{ci}", "color", loop.name, t_color, now, color=ci)
            t_color = now
    finish_loop(
        rec, loop, results, t_loop, label or loop.name, ncolors, ntasks, prefix_s
    )


def submit_colors(
    pool: ThreadPoolEngine,
    loop: ParLoop,
    colors: Iterable[tuple[int, list[LoopChunk]]],
    entry: Iterable[PoolTask] = (),
    chunk_deps: list[dict[int, PoolTask]] | None = None,
) -> tuple[list[PoolTask], PoolTask | None]:
    """Submit every chunk as a dependency-released task; nothing blocks.

    Color ``c`` waits on color ``c - 1``'s gate (colors are the correctness
    barrier for indirect reductions); a single-task color is its own gate,
    larger ones get an inline :meth:`~ThreadPoolEngine.gate`. The first
    color also waits on ``entry``; later colors inherit it through the
    gates. ``chunk_deps[i]`` holds ``{id(task): task}`` producers that the
    ``i``-th chunk in submission order must also wait on.

    Returns the chunk tasks in submission (= fold) order and the last gate
    (``None`` when nothing was submitted).
    """
    tasks: list[PoolTask] = []
    gate: PoolTask | None = None
    for ci, chunks in colors:
        if not chunks:
            continue
        color_tasks: list[PoolTask] = []
        for k, chunk in enumerate(chunks):
            deps = {id(t): t for t in (entry if gate is None else (gate,))}
            if chunk_deps:
                deps.update(chunk_deps[len(tasks) + k])
            color_tasks.append(
                pool.submit_after(
                    lambda c=chunk: run_chunk(loop, c),
                    list(deps.values()),
                    loop=loop.name,
                    color=ci,
                    index=k,
                )
            )
        tasks.extend(color_tasks)
        gate = (
            color_tasks[0]
            if len(color_tasks) == 1
            else pool.gate(color_tasks, loop=loop.name, color=ci)
        )
    return tasks, gate
