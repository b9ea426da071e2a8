"""Graph coloring for conflict-free parallel execution of indirect loops.

Two blocks of an indirect loop *conflict* when they increment the same target
element through a map (OP_INC through e.g. edges->cells): running them
concurrently would race. OP2's plan colors the block-conflict graph and
executes one color at a time, blocks within a color in parallel.

The conflict graph is built in whole-array passes, never block by block:

1. one sort of ``target * nblocks + block`` keys dedupes the (target, block)
   references and lines each target's blocks up as one ascending run;
2. a sweep over offsets ``k = 1, 2, ...`` pairs every run entry with the
   entry ``k`` places later — as many passes as the longest run (a handful
   for a mesh) over a shrinking candidate set;
3. one more sort dedupes those block pairs, and only the distinct pairs
   reach Python, to fill the adjacency sets.

Keys are int32 whenever their range fits. Coloring is then first-fit greedy
over the sets, in natural block order.
"""

from __future__ import annotations

import numpy as np

from repro.op2.exceptions import PlanError
from repro.util.arrays import index_dtype, sort_unique


def build_block_conflicts(
    target_indices_per_block: list[np.ndarray],
) -> list[set[int]]:
    """Adjacency of the block-conflict graph.

    ``target_indices_per_block[b]`` holds the indirect target elements block
    ``b`` increments (repeats allowed). Blocks sharing any target are
    adjacent.
    """
    targets = [np.asarray(t, dtype=np.int64).ravel() for t in target_indices_per_block]
    nblocks = len(targets)
    if not nblocks:
        return []
    blocks = np.repeat(np.arange(nblocks), [len(t) for t in targets])
    return block_conflicts(np.concatenate(targets), blocks, nblocks)


def block_conflicts(
    targets: np.ndarray, blocks: np.ndarray, nblocks: int
) -> list[set[int]]:
    """Adjacency of the block-conflict graph from flat references.

    Block ``blocks[i]`` increments target ``targets[i]``; both are
    non-negative integer arrays of one length, in any order, repeats
    allowed.
    """
    adjacency: list[set[int]] = [set() for _ in range(nblocks)]
    if targets.size == 0:
        return adjacency
    keys = targets.astype(index_dtype((int(targets.max()) + 1) * nblocks))
    keys *= nblocks
    keys += blocks
    target_of, block_of = np.divmod(sort_unique(keys), nblocks)
    del keys
    # ``later[i]``: how many entries follow entry i in its target's run.
    m = target_of.size
    starts = np.flatnonzero(np.diff(target_of, prepend=target_of[0] - 1))
    ends = np.append(starts[1:], m)
    later = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(1, m + 1)
    del target_of, starts, ends

    pair_dtype = index_dtype(nblocks * nblocks)
    pairs = []
    at = np.flatnonzero(later)
    offset = 1
    while at.size:
        # Runs are ascending and deduplicated: the earlier block is smaller.
        lo = block_of[at].astype(pair_dtype)
        lo *= nblocks
        lo += block_of[at + offset]
        pairs.append(lo)
        offset += 1
        at = at[later[at] >= offset]
    del block_of, later
    if pairs:
        lo, hi = np.divmod(sort_unique(np.concatenate(pairs)), nblocks)
        for a, b in zip(lo.tolist(), hi.tolist()):
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def greedy_coloring(adjacency: list[set[int]], order: list[int] | None = None) -> list[int]:
    """First-fit greedy coloring in the given (default: natural) order."""
    n = len(adjacency)
    colors = [-1] * n
    sequence = order if order is not None else list(range(n))
    if sorted(sequence) != list(range(n)):
        raise PlanError("coloring order must be a permutation of the blocks")
    for v in sequence:
        taken = {colors[u] for u in adjacency[v] if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def degree_coloring(adjacency: list[set[int]]) -> list[int]:
    """Greedy coloring in descending-degree order (Welsh–Powell).

    Usually needs no more colors than first-fit and often fewer; the
    coloring-strategy ablation bench compares both.
    """
    order = sorted(range(len(adjacency)), key=lambda v: (-len(adjacency[v]), v))
    return greedy_coloring(adjacency, order)


def validate_coloring(adjacency: list[set[int]], colors: list[int]) -> None:
    """Raise unless ``colors`` is a proper coloring of ``adjacency``."""
    if len(colors) != len(adjacency):
        raise PlanError("color vector length mismatch")
    for v, neighbours in enumerate(adjacency):
        if colors[v] < 0:
            raise PlanError(f"block {v} is uncolored")
        for u in neighbours:
            if colors[u] == colors[v]:
                raise PlanError(
                    f"conflicting blocks {v} and {u} share color {colors[v]}"
                )


def color_classes(colors: list[int]) -> list[list[int]]:
    """Blocks grouped by color, colors ascending."""
    ncolors = max(colors, default=-1) + 1
    classes: list[list[int]] = [[] for _ in range(ncolors)]
    for block, color in enumerate(colors):
        classes[color].append(block)
    return classes
