"""Dependency-released scheduling of the backends' threads-mode loops.

Instead of a per-loop sequence of fork-join color batches, every chunk of
every loop goes through :func:`~repro.backends.threaded.submit_colors` with
exactly the predecessor tasks it conflicts with, and is *released* to the
pool the instant those complete. No color of one loop ever waits for an
unrelated chunk of another loop — the paper's barrier elimination, on real
OS threads rather than in the simulator. What this module adds to the shared
runner is how a loop finds its predecessors, at one of two levels:

- **loop level** (``refine_blocks=False``, the async backend): a consumer
  chunk waits for the *finalizer* of each producer loop it conflicts with.
  Per-loop barriers disappear (the returned future resolves at the loop's
  last task; ``rt.sync(...)`` is the only real join), but cross-loop overlap
  is limited to independent loops — the Fig 17 execution shape.
- **block level** (``refine_blocks=True``, the dataflow backend): consumer
  chunks wait only for the producer *blocks* that touched the same dat rows
  (:mod:`repro.backends.blockdeps`), so the first chunks of a dependent loop
  start while late chunks of its producer are still running — the Fig 18
  execution tree. Each cached block relation is resolved once per pair of
  chunk decompositions into producer *chunk positions*, so a steady step
  does one lookup per chunk rather than a walk over every block edge.

Determinism contract (same worker count ⇒ bit-identical results): the
decomposition and the fold order are the shared runner's; the dependence
tracker runs with ``ordered_increments=True`` because floating-point ``+=``
streams commute only mathematically, not bitwise; finalizers of loops
reducing into the same global, or writing the same dat, are chained in
program order, so folds and version bumps never race.

Loop finalizers run the shared epilogue *inline* on whichever worker
completes the loop's last chunk. The application only ever blocks in
``rt.sync(...)`` / ``rt.finish()``.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.blockdeps import BlockDepCache, hazard_dats
from repro.backends.threaded import color_chunks, finish_loop, submit_colors
from repro.hpx.threadpool import PoolFuture, PoolTask
from repro.op2.access import Access
from repro.op2.dat import OpGlobal
from repro.op2.deps import DatDependencyTracker
from repro.op2.runtime import LoopRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpx.chunking import Chunker
    from repro.op2.parloop import ParLoop
    from repro.op2.plan import Plan
    from repro.op2.runtime import Op2Runtime

#: Completed loop handles retained for block-level refinement. Handles still
#: referenced by the dependence tracker are always kept; beyond that, the
#: oldest finished loops are dropped so a multi-million-timestep run does not
#: accumulate one handle (and its task objects) per loop forever.
HANDLE_RETENTION = 256


class _Layout:
    """A loop's chunk decomposition: chunk ``i`` runs plan blocks ``chunks[i]``."""

    __slots__ = ("chunks", "chunk_of_block")

    def __init__(self, chunks: tuple[tuple[int, ...], ...], nblocks: int) -> None:
        self.chunks = chunks
        #: plan block id -> position of the chunk that runs it (-1: none).
        self.chunk_of_block = np.full(nblocks, -1, dtype=np.int64)
        for i, blocks in enumerate(chunks):
            self.chunk_of_block[list(blocks)] = i


class _LoopHandle:
    """Scheduling state of one in-flight (or recently finished) loop."""

    __slots__ = ("rec", "layout", "tasks", "final")

    def __init__(
        self, rec: LoopRecord, layout: _Layout, tasks: list[PoolTask], final: PoolTask
    ) -> None:
        self.rec = rec
        self.layout = layout
        #: chunk tasks in submission order: ``tasks[i]`` runs ``layout.chunks[i]``.
        self.tasks = tasks
        #: inline finalizer: folds partials, bumps versions, records timing.
        self.final = final

    @property
    def block_task(self) -> dict[int, PoolTask]:
        """Plan block id -> the chunk task that executes it."""
        return {b: t for blocks, t in zip(self.layout.chunks, self.tasks) for b in blocks}


def _global_rw(rec: LoopRecord) -> dict[int, tuple[bool, bool]]:
    """``id(global) -> (reads, writes)`` over the loop's global arguments."""
    out: dict[int, tuple[bool, bool]] = {}
    for a in rec.loop.args:
        if isinstance(a.dat, OpGlobal):
            r, w = out.get(id(a.dat), (False, False))
            if a.access is Access.READ:
                r = True
            else:
                w = True
            out[id(a.dat)] = (r, w)
    return out


def _shared_global_hazard(producer: LoopRecord, consumer: LoopRecord) -> bool:
    """True when one loop reads a global the other reduces into.

    Worker chunks *read* globals at gather time, while reductions mutate them
    in the producer's finalizer — so a read/write pair cannot be refined to
    block level and falls back to a whole-loop edge. Write/write pairs need
    no fallback: both mutations happen in finalizers, which the scheduler
    chains per global in program order.
    """
    prod = _global_rw(producer)
    for gid, (c_reads, c_writes) in _global_rw(consumer).items():
        hit = prod.get(gid)
        if hit is None:
            continue
        p_reads, p_writes = hit
        if (p_writes and c_reads) or (p_reads and c_writes):
            return True
    return False


class LoopScheduler:
    """Schedules threads-mode loops as dependency-released pool tasks."""

    def __init__(self, rt: "Op2Runtime", refine_blocks: bool) -> None:
        # Weak: runtime -> backend -> scheduler -> runtime would be a cycle
        # that keeps a finished session's dats and maps alive until the next
        # full garbage collection.
        self._rt = weakref.ref(rt)
        self.refine_blocks = refine_blocks
        self.tracker: DatDependencyTracker[int] = DatDependencyTracker(
            ordered_increments=True
        )
        #: loop_id -> handle, insertion (= program) order.
        self.handles: dict[int, _LoopHandle] = {}
        #: id(global) -> finalizer of its last reducing loop (fold order).
        self._global_gates: dict[int, PoolTask] = {}
        #: id(dat) -> finalizer of its last writing loop (version-bump order).
        self._dat_gates: dict[int, PoolTask] = {}
        self._block_deps = BlockDepCache()
        #: interned decompositions, keyed by (nblocks, chunk block ids).
        self._layouts: dict[tuple, _Layout] = {}
        #: (id(relation), id(producer layout), id(consumer layout)) ->
        #: (relation, producer chunk positions per consumer chunk). Layouts
        #: are interned for the scheduler's lifetime and each entry holds its
        #: relation, so no ``id()`` in a live key can be reused.
        self._chunk_deps: dict[tuple[int, int, int], tuple[list, list[list[int]]]] = {}

    # -- dependence analysis -------------------------------------------------

    def _layout(self, plan: "Plan", colors: list) -> _Layout:
        chunks = tuple(tuple(c.blocks) for _, color in colors for c in color)
        key = (plan.nblocks, chunks)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = _Layout(chunks, plan.nblocks)
        return layout

    def _resolve(
        self, refined: list[np.ndarray], producer: _Layout, consumer: _Layout
    ) -> list[list[int]]:
        """A block relation in chunk terms, once per pair of decompositions.

        Entry ``i`` lists the positions of the producer chunks that consumer
        chunk ``i`` must wait for.
        """
        key = (id(refined), id(producer), id(consumer))
        entry = self._chunk_deps.get(key)
        if entry is None:
            positions = []
            for blocks in consumer.chunks:
                pos = producer.chunk_of_block[np.concatenate([refined[b] for b in blocks])]
                positions.append(np.unique(pos[pos >= 0]).tolist())
            entry = self._chunk_deps[key] = (refined, positions)
        return entry[1]

    def _external_deps(
        self, rec: LoopRecord, layout: _Layout, producers: list[_LoopHandle]
    ) -> tuple[list[dict[int, PoolTask]], list[PoolTask]]:
        """Split producer edges into per-chunk refinements and loop fallbacks.

        Returns ``(per_chunk, fallback)``: ``per_chunk[i]`` maps ``id(task)``
        to each producer chunk task that chunk ``i`` of ``layout`` must wait
        for; ``fallback`` lists producer finalizers that must precede the
        consumer's first color wholesale — used when refinement is disabled,
        the loops share no dat, or a global read/write hazard makes
        block-level ordering insufficient.
        """
        per_chunk: list[dict[int, PoolTask]] = [{} for _ in layout.chunks]
        fallback: list[PoolTask] = []
        for handle in producers:
            shared = hazard_dats(handle.rec, rec) if self.refine_blocks else []
            if not shared or _shared_global_hazard(handle.rec, rec):
                fallback.append(handle.final)
                continue
            for dat in shared:
                refined = self._block_deps.get(handle.rec, rec, dat)
                positions = self._resolve(refined, handle.layout, layout)
                for bucket, chunk_positions in zip(per_chunk, positions):
                    for p in chunk_positions:
                        t = handle.tasks[p]
                        bucket[id(t)] = t
        return per_chunk, fallback

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, loop: "ParLoop", plan: "Plan", chunker: "Chunker", loop_id: int
    ) -> PoolFuture:
        """Submit every chunk of ``loop`` with its conflict-exact deps.

        Returns a future that resolves when the loop's finalizer has run —
        i.e. when results (including global reductions and version bumps)
        are visible. Nothing blocks here.
        """
        rt = self._rt()
        pool = rt.thread_pool
        rec = rt.obs
        record = LoopRecord(loop_id=loop_id, loop=loop, plan=plan)

        dep_ids = self.tracker.dependencies(list(loop.args), token=loop_id)
        producers = [self.handles[d] for d in dep_ids if d in self.handles]
        colors = list(color_chunks(plan, chunker, pool.num_workers))
        layout = self._layout(plan, colors)
        per_chunk, fallback = self._external_deps(record, layout, producers)

        t_loop = rec.now() if rec is not None else 0.0
        tasks, gate = submit_colors(pool, loop, colors, fallback, per_chunk)

        # An empty iteration space has no chunks: the finalizer still carries
        # the loop's ordering obligations (it is what successors wait on).
        final_deps = [gate] if gate is not None else list(fallback)
        gate_globals: list[int] = []
        gate_dats: list[int] = []
        g_seen: set[int] = set()
        for arg in loop.args:
            if not arg.access.writes or id(arg.dat) in g_seen:
                continue
            g_seen.add(id(arg.dat))
            if isinstance(arg.dat, OpGlobal):
                prev = self._global_gates.get(id(arg.dat))
                gate_globals.append(id(arg.dat))
            else:
                prev = self._dat_gates.get(id(arg.dat))
                gate_dats.append(id(arg.dat))
            if prev is not None:
                final_deps.append(prev)

        final = pool.submit_after(
            lambda: finish_loop(
                rec, loop, (t.value() for t in tasks), t_loop, loop.name,
                len(colors), len(tasks),
            ),
            final_deps,
            inline=True,
            loop=loop.name,
        )
        for gid in gate_globals:
            self._global_gates[gid] = final
        for did in gate_dats:
            self._dat_gates[did] = final

        self.handles[loop_id] = _LoopHandle(record, layout, tasks, final)
        self._prune()
        return PoolFuture(final, pool, name=f"threads.{loop.name}")

    def _prune(self) -> None:
        """Drop the oldest finished handles beyond :data:`HANDLE_RETENTION`.

        A handle still live in the tracker can become a producer of a future
        loop and must stay; an evicted handle's finalizer is complete, so no
        later loop can need its tasks.
        """
        if len(self.handles) <= HANDLE_RETENTION:
            return
        live = set(self.tracker.outstanding())
        for lid in list(self.handles):
            if len(self.handles) <= HANDLE_RETENTION:
                return
            if lid in live:
                continue
            if self.handles[lid].final.done():
                del self.handles[lid]

    # -- lifecycle -----------------------------------------------------------

    def finalize(self) -> None:
        """Join every outstanding finalizer (``rt.finish()``), then reset.

        After this full barrier no dependency can reach back across it, so
        the tracker and gate chains restart empty — the measured analogue of
        the emitter replaying a fresh log.
        """
        finals = [h.final for h in self.handles.values() if not h.final.done()]
        if finals:
            self._rt().thread_pool.wait_all(finals, loop="finalize")
        self.cancel()

    def cancel(self) -> None:
        """Drop scheduling state after an aborted session (no waiting).

        The runtime cancels the pool's unreleased tasks itself; this only
        forgets them so a reused runtime does not chain new loops onto stale
        finalizers.
        """
        self.handles.clear()
        self._global_gates.clear()
        self._dat_gates.clear()
        self.tracker.reset()
