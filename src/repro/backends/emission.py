"""Shared task-graph emission helpers used by the backend emitters."""

from __future__ import annotations

import numpy as np

from repro.backends.costs import LoopCostModel, block_costs
from repro.op2.runtime import LoopRecord
from repro.sim.machine import MachineConfig
from repro.sim.task import TaskGraph


def record_block_costs(
    rec: LoopRecord,
    machine: MachineConfig,
    num_threads: int,
    cost_model: LoopCostModel,
) -> list[float]:
    """Block costs of one recorded loop at ``num_threads``."""
    return block_costs(
        cost_model, rec.loop.name, rec.loop.kernel, rec.plan, machine, num_threads
    )


def static_split(items: list[int], parts: int) -> list[list[int]]:
    """OpenMP ``schedule(static)``: near-even contiguous split into ``parts``."""
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    bounds = np.linspace(0, len(items), parts + 1).astype(int)
    return [items[bounds[i] : bounds[i + 1]] for i in range(parts)]


def add_gate(
    graph: TaskGraph, name: str, deps: list[int], loop: str = ""
) -> int:
    """Zero-cost synchronization node that linearizes many-to-many edges."""
    return graph.add(name, 0.0, deps, kind="join", loop=loop)


def emit_static_color_class(
    graph: TaskGraph,
    rec: LoopRecord,
    color_blocks: list[int],
    costs: list[float],
    num_threads: int,
    entry_deps: list[int],
    mem_fraction: float,
) -> list[int]:
    """Emit one color class with static per-thread assignment.

    Blocks of each thread are chained (serial execution on that thread).
    Returns the final task of each non-empty thread chain — the set a
    subsequent barrier must wait on.
    """
    tails: list[int] = []
    for thread, blocks_of_t in enumerate(static_split(color_blocks, num_threads)):
        prev = None
        for b in blocks_of_t:
            deps = entry_deps if prev is None else [prev]
            prev = graph.add(
                f"{rec.loop.name}[{rec.loop_id}].blk{b}",
                costs[b],
                deps,
                affinity=thread,
                kind="work",
                loop=rec.loop.name,
                mem_fraction=mem_fraction,
            )
        if prev is not None:
            tails.append(prev)
    return tails

