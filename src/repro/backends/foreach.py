"""The ``hpx::parallel::for_each(par, ...)`` backend (paper §III-A1).

Same fork-join shape as OpenMP — the algorithm joins before returning — but
with HPX's chunking over the block list:

- **auto chunking** (default): the auto partitioner executes ~1% of the
  blocks serially on the calling thread to estimate grain size before
  spawning the rest. For large loops that serial prefix costs real
  scalability (paper Fig 16, 'auto chunk' curve);
- **static chunking** (``foreach_static``): a programmer-supplied
  ``static_chunk_size`` removes the measurement prefix (Fig 7).

Chunk tasks have no thread affinity (HPX steals them), so load balance is
better than OpenMP's static schedule; per-chunk spawn cost and the join at
the end of every loop keep it from beating OpenMP (Fig 16).
"""

from __future__ import annotations

from typing import Any

from repro.backends.base import Backend
from repro.backends.emission import record_block_costs
from repro.hpx import for_each, par
from repro.hpx.chunking import AutoPartitioner, DynamicChunkSize, StaticChunkSize
from repro.op2.parloop import ParLoop
from repro.op2.plan import Plan
from repro.op2.runtime import LoopLog, Op2Runtime
from repro.sim.barriers import join_cost
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph

#: Default static chunk size (blocks per chunk) for the static variant. One
#: block per chunk maximizes schedulable parallelism once plan coloring has
#: already split loops into modest color classes — this is the "tuned by the
#: programmer" value of paper Fig 7.
DEFAULT_STATIC_CHUNK = 1


class ForEachBackend(Backend):
    """``for_each(par)`` over plan blocks, color class by color class."""

    asynchronous = False

    def __init__(
        self,
        static_chunking: bool = False,
        static_chunk: int = DEFAULT_STATIC_CHUNK,
        dynamic_schedule: bool = False,
    ) -> None:
        self.static_chunking = static_chunking
        self.static_chunk = int(static_chunk)
        #: hand fixed-size chunks out on demand (self-scheduling) instead of
        #: pre-assigning them — same decomposition, and the threads mode
        #: folds partials in chunk order, so results bit-match the static
        #: schedule (tested). Only meaningful with ``static_chunking``.
        self.dynamic_schedule = bool(dynamic_schedule)
        self.name = "foreach_static" if static_chunking else "foreach"

    def _chunker(self):
        if self.static_chunking:
            if self.dynamic_schedule:
                return DynamicChunkSize(self.static_chunk)
            return StaticChunkSize(self.static_chunk)
        return AutoPartitioner()

    def _thread_chunker(self, rt):
        # Threads mode uses the same chunking policy the simulator models:
        # auto partitioner (inline measurement prefix) or the programmer's
        # static chunk size, in units of plan blocks.
        return self._chunker()

    def run_loop(
        self, rt: Op2Runtime, loop: ParLoop, plan: Plan, loop_id: int
    ) -> None:
        from repro.backends.base import execute_loop

        policy = par.with_(self._chunker())
        for color_blocks in plan.classes:
            def body(block_index: int, _blocks=color_blocks) -> None:
                execute_loop(loop, plan.block_elements(_blocks[block_index]))

            # for_each(par, ...) joins before returning: fork-join semantics.
            for_each(policy, range(len(color_blocks)), body)
        return None

    def emit(
        self,
        log: LoopLog,
        machine: MachineConfig,
        num_threads: int,
        cost_model: Any,
    ) -> TaskGraph:
        graph = TaskGraph()
        chunker = self._chunker()
        prev_join: int | None = None
        for rec in log.loops():
            costs = record_block_costs(rec, machine, num_threads, cost_model)
            mem = rec.loop.kernel.cost.mem_fraction
            for color, color_blocks in enumerate(rec.plan.classes):
                entry = [prev_join] if prev_join is not None else []
                chunks = chunker.chunks(len(color_blocks), num_threads)
                parallel_chunks = [c for c in chunks if not c.serial_prefix]
                prefix_chunks = [c for c in chunks if c.serial_prefix]

                spawn_deps = list(entry)
                for pc in prefix_chunks:
                    pid = graph.add(
                        f"{rec.loop.name}[{rec.loop_id}].prefix.c{color}",
                        sum(costs[color_blocks[i]] for i in range(pc.start, pc.stop)),
                        entry,
                        affinity=0,
                        kind="prefix",
                        loop=rec.loop.name,
                        mem_fraction=mem,
                    )
                    spawn_deps = [pid]

                spawn = graph.add(
                    f"{rec.loop.name}[{rec.loop_id}].spawn.c{color}",
                    machine.fork_overhead
                    + machine.chunk_spawn_overhead * len(parallel_chunks),
                    spawn_deps,
                    affinity=0,
                    kind="spawn",
                    loop=rec.loop.name,
                )
                chunk_tids = []
                for c in parallel_chunks:
                    chunk_cost = sum(
                        costs[color_blocks[i]] for i in range(c.start, c.stop)
                    )
                    chunk_tids.append(
                        graph.add(
                            f"{rec.loop.name}[{rec.loop_id}]"
                            f".chunk{c.start}-{c.stop}.c{color}",
                            chunk_cost,
                            [spawn],
                            affinity=None,
                            kind="work",
                            loop=rec.loop.name,
                            mem_fraction=mem,
                        )
                    )
                prev_join = graph.add(
                    f"{rec.loop.name}[{rec.loop_id}].join.c{color}",
                    join_cost(machine, num_threads),
                    chunk_tids if chunk_tids else [spawn],
                    affinity=None,
                    kind="join",
                    loop=rec.loop.name,
                )
        return graph
