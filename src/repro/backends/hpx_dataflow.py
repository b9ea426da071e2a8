"""The dataflow backend with the modified OP2 API (paper §III-B).

``op_arg_dat`` conceptually returns a *future* of the dat (paper Fig 12);
``op_par_loop`` becomes a dataflow node whose invocation is delayed until all
argument futures are ready (Fig 13). Chained over the application, this
builds the execution tree — a dependency graph — automatically, with no
programmer-placed ``get()`` calls and no step-boundary synchronization:
``data[t]`` depends on ``data[t-1]`` exactly as in paper Fig 14.

Functionally, the backend drives :func:`repro.hpx.dataflow.dataflow` with the
producer futures computed by :class:`~repro.op2.deps.DatDependencyTracker`.

For the simulator, the emitter refines loop-level dependence to **block
level** using the plans and maps (:mod:`repro.backends.blockdeps`): a
consumer block waits only for the producer blocks that touched the same dat
rows. This is the runtime interleaving of direct and indirect loops —
including across timestep boundaries — that the paper credits for the ~21%
scaling improvement.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend, execute_loop
from repro.backends.blockdeps import BlockDepCache, hazard_dats
from repro.backends.emission import add_gate, record_block_costs
from repro.hpx.dataflow import dataflow
from repro.hpx.future import Future
from repro.op2.deps import DatDependencyTracker
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan
from repro.op2.runtime import LoopLog, LoopRecord, Op2Runtime
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class HpxDataflowBackend(Backend):
    """Automatic dependence-driven asynchronous execution."""

    name = "hpx_dataflow"
    asynchronous = True

    def __init__(self) -> None:
        self.tracker: DatDependencyTracker[int] = DatDependencyTracker()
        self._futures: dict[int, Future] = {}
        self._blockdep_cache = BlockDepCache()
        self._sched = None  # threads-mode LoopScheduler, created lazily

    def on_attach(self, rt: Op2Runtime) -> None:
        self.tracker.reset()
        self._futures.clear()
        self._sched = None

    def _scheduler(self, rt: Op2Runtime):
        if self._sched is None:
            from repro.backends.scheduling import LoopScheduler

            self._sched = LoopScheduler(rt, refine_blocks=True)
        return self._sched

    def run_loop(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> Future:
        dep_ids = self.tracker.dependencies(list(loop.args), token=loop_id)
        dep_futures = [self._futures[d] for d in dep_ids if d in self._futures]

        def body(*_ready: Any) -> None:
            execute_loop(loop)

        result = dataflow(body, *dep_futures, name=f"dataflow.{loop.name}")
        self._futures[loop_id] = result
        return result

    def run_loop_threads(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> Future:
        # Real-thread mode: every chunk is released on the pool as soon as
        # the *conflicting producer blocks* complete (block-level refinement
        # via repro.backends.blockdeps), so dependent loops interleave on
        # real threads exactly like the emitted execution tree — including
        # across timestep boundaries. No per-loop or per-color join exists
        # anywhere on this path.
        return self._scheduler(rt).schedule(
            loop, plan, self._thread_chunker(rt), loop_id
        )

    def finalize(self, rt: Op2Runtime) -> None:
        if self._sched is not None:
            self._sched.finalize()
        for loop_id in self.tracker.outstanding():
            fut = self._futures.get(loop_id)
            if fut is not None:
                fut.get()
        rt.hpx.executor.drain()

    def cancel(self, rt: Op2Runtime) -> None:
        # Abandon the dependency tree: outstanding dat-futures must not feed
        # the dataflow of whatever session next reuses this runtime.
        self.tracker.reset()
        self._futures.clear()
        if self._sched is not None:
            self._sched.cancel()

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        tracker: DatDependencyTracker[int] = DatDependencyTracker()
        rec_by_id: dict[int, LoopRecord] = {}
        gate_of: dict[int, int] = {}
        block_tids: dict[int, dict[int, int]] = {}  # loop_id -> {block: tid}

        for rec in log.loops():
            rec_by_id[rec.loop_id] = rec
            dep_ids = tracker.dependencies(list(rec.loop.args), token=rec.loop_id)

            # Per-block producer edges plus gate-level fallbacks (global
            # reductions, empty refinements).
            extra: dict[int, set[int]] = {}
            fallback: set[int] = set()
            for pid in dep_ids:
                producer = rec_by_id[pid]
                shared = hazard_dats(producer, rec)
                if not shared:
                    fallback.add(gate_of[pid])
                    continue
                ptids = block_tids[pid]
                for dat in shared:
                    refined = self._blockdep_cache.get(producer, rec, dat)
                    for b, producer_blocks in enumerate(refined):
                        if len(producer_blocks) == 0:
                            continue
                        bucket = extra.setdefault(b, set())
                        for j in producer_blocks:
                            bucket.add(ptids[int(j)])

            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            tids: dict[int, int] = {}
            prev_gate: int | None = None
            all_tids: list[int] = []
            for color, color_blocks in enumerate(rec.plan.classes):
                color_tids = []
                for b in color_blocks:
                    deps = set(extra.get(b, ()))
                    deps.update(fallback)
                    if prev_gate is not None:
                        deps.add(prev_gate)
                    tid = graph.add(
                        f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                        costs[b],
                        sorted(deps),
                        affinity=None,
                        kind="work",
                        loop=rec.loop.name,
                        mem_fraction=mem,
                    )
                    tids[b] = tid
                    color_tids.append(tid)
                    all_tids.append(tid)
                if rec.plan.ncolors > 1:
                    prev_gate = add_gate(
                        graph,
                        f"{rec.loop.name}[{rec.loop_id}].gate.c{color}",
                        color_tids,
                        loop=rec.loop.name,
                    )
            gate_of[rec.loop_id] = add_gate(
                graph,
                f"{rec.loop.name}[{rec.loop_id}].done",
                all_tids if all_tids else [],
                loop=rec.loop.name,
            )
            block_tids[rec.loop_id] = tids
        return graph
