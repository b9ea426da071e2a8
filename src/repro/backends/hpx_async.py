"""The ``async`` + ``for_each(par(task))`` backend (paper §III-A2).

Every ``op_par_loop`` returns a *future*; the application decides where to
synchronize by calling ``runtime.sync(...)`` (the ``new_data.get()`` of paper
Fig 10). Between sync points, loops overlap freely: an idle thread that
finished its part of ``save_soln`` can pick up ``adt_calc`` chunks instead of
spinning at a barrier.

Functional execution really is deferred — loop bodies run as executor tasks
when futures are driven — so a misplaced sync shows up as a wrong answer in
tests, exactly the hazard the paper attributes to manual ``get`` placement.

The emitter replays the recorded loop/sync sequence: loop chunks depend only
on the driver's position (spawn chain + sync joins) and on the previous color
of their own loop, never on a global barrier.
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend, execute_loop
from repro.backends.emission import add_gate, record_block_costs
from repro.hpx import for_each, par, par_task
from repro.hpx.future import Future
from repro.hpx.runtime import get_runtime
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan
from repro.op2.runtime import LoopLog, LoopRecord, Op2Runtime, SyncRecord
from repro.sim.barriers import join_cost
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


class HpxAsyncBackend(Backend):
    """Future-returning loops with application-placed synchronization."""

    name = "hpx_async"
    asynchronous = True

    def __init__(self) -> None:
        self._sched = None  # threads-mode LoopScheduler, created lazily

    def on_attach(self, rt: Op2Runtime) -> None:
        self._sched = None

    def _scheduler(self, rt: Op2Runtime):
        if self._sched is None:
            from repro.backends.scheduling import LoopScheduler

            self._sched = LoopScheduler(rt, refine_blocks=False)
        return self._sched

    def run_loop(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> Future:
        if loop.is_direct or plan.ncolors == 1:
            # Paper Fig 8/9: one bulk for_each(par(task)) suffices; chunks of
            # a single color never conflict.
            blocks = plan.classes[0] if plan.classes else []

            def body(i: int) -> None:
                execute_loop(loop, plan.block_elements(blocks[i]))

            result = for_each(par_task, range(len(blocks)), body)
            assert isinstance(result, Future)
            return result

        # Colored indirect loop: colors must run as sequential stages. An
        # async orchestration task runs the color-ordered fork-joins; only
        # consumers of the returned future wait on it.
        def orchestrate() -> None:
            for color_blocks in plan.classes:
                def body(i: int, _blocks=color_blocks) -> None:
                    execute_loop(loop, plan.block_elements(_blocks[i]))

                for_each(par, range(len(color_blocks)), body)

        return get_runtime().async_(orchestrate, name=f"async.{loop.name}")

    def run_loop_threads(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> Future:
        # Real-thread mode: every chunk is dependency-released on the pool
        # with no per-loop barrier; the returned future resolves when the
        # loop's finalizer task runs, so the application's ``rt.sync(...)``
        # placement — paper Fig 10's ``new_data.get()`` — is the only real
        # join. Conflicting loops are ordered at loop granularity (the
        # dataflow backend refines to block level).
        return self._scheduler(rt).schedule(
            loop, plan, self._thread_chunker(rt), loop_id
        )

    def finalize(self, rt: Op2Runtime) -> None:
        if self._sched is not None:
            self._sched.finalize()
        rt.hpx.executor.drain()

    def cancel(self, rt: Op2Runtime) -> None:
        if self._sched is not None:
            self._sched.cancel()

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        driver: int | None = None  # last task the spawning thread completed
        loop_gate: dict[int, int] = {}  # loop_id -> completion gate task

        for entry in log.entries:
            if isinstance(entry, SyncRecord):
                deps = [loop_gate[lid] for lid in entry.loop_ids if lid in loop_gate]
                if driver is not None:
                    deps.append(driver)
                driver = graph.add(
                    f"sync{entry.loop_ids}",
                    join_cost(machine, num_threads),
                    deps,
                    affinity=0,
                    kind="join",
                )
                continue

            rec = entry
            assert isinstance(rec, LoopRecord)
            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            spawn = graph.add(
                f"{rec.loop.name}[{rec.loop_id}].spawn",
                machine.chunk_spawn_overhead * rec.plan.nblocks,
                [driver] if driver is not None else [],
                affinity=0,
                kind="spawn",
                loop=rec.loop.name,
            )
            driver = spawn  # the driver moves on immediately after spawning
            prev_gate: int | None = None
            for color, color_blocks in enumerate(rec.plan.classes):
                entry_deps = [spawn] if prev_gate is None else [prev_gate]
                tids = [
                    graph.add(
                        f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                        costs[b],
                        entry_deps,
                        affinity=None,
                        kind="work",
                        loop=rec.loop.name,
                        mem_fraction=mem,
                    )
                    for b in color_blocks
                ]
                prev_gate = add_gate(
                    graph,
                    f"{rec.loop.name}[{rec.loop_id}].gate.c{color}",
                    tids if tids else [spawn],
                    loop=rec.loop.name,
                )
            loop_gate[rec.loop_id] = (
                prev_gate
                if prev_gate is not None
                else add_gate(graph, f"{rec.loop.name}.empty", [spawn])
            )

        # The run ends when everything completes (application drain).
        return graph
