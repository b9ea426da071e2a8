"""Execution plans: mini-partition blocking + conflict coloring.

An OP2 plan decides how one ``op_par_loop`` runs in parallel:

- the iteration set is tiled into contiguous *blocks* (mini-partitions);
- for indirect loops with reduction (``OP_INC``/``OP_MIN``/``OP_MAX``)
  arguments, blocks touching a common indirect target element get different
  *colors*; execution proceeds color by color, blocks of one color in
  parallel.

Plans depend only on (set, maps, reduction pattern, block size), so the
runtime caches them across loops and timesteps — exactly as OP2 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.op2.args import Arg
from repro.op2.coloring import (
    block_conflicts,
    color_classes,
    greedy_coloring,
    validate_coloring,
)
from repro.op2.exceptions import PlanError
from repro.op2.partition import Block, contiguous_blocks, validate_blocks
from repro.op2.set_ import OpSet
from repro.util.arrays import index_dtype

#: Default mini-partition size (elements per block), as in OP2's plans.
DEFAULT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class Plan:
    """The parallel execution recipe for one loop shape."""

    set_: OpSet
    block_size: int
    blocks: list[Block]
    #: color of each block; all zeros for direct loops.
    colors: list[int]
    ncolors: int
    #: blocks grouped by color, colors ascending.
    classes: list[list[int]] = field(repr=False)
    #: True when coloring was required (indirect reduction present).
    colored: bool = False

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    def block_elements(self, block: int) -> np.ndarray:
        return self.blocks[block].elements()

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each class position in :attr:`order`, plus the total.

        Class positions enumerate ``classes`` flattened (color-major, blocks
        in plan order within a color): position ``k``'s elements are
        ``order[offsets[k]:offsets[k + 1]]``. OP2 calls this ``offset``.
        """
        sizes = [len(self.blocks[b]) for cls in self.classes for b in cls]
        return np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))

    @cached_property
    def order(self) -> np.ndarray:
        """The set's elements in class order (OP2's ``blkmap``, expanded).

        The blocks of one chunk are consecutive class positions, so a chunk's
        elements are one view of this array. Built on first use: only
        colored plans run by a pool need it, never a ``seq`` session.
        Uncolored plans keep one class in plan order, so their order is the
        identity and runners take slices instead.
        """
        starts = np.array(
            [self.blocks[b].start for cls in self.classes for b in cls], dtype=np.intp
        )
        offsets = self.offsets
        shift = np.repeat(starts - offsets[:-1], np.diff(offsets))
        return np.arange(self.set_.size, dtype=np.intp) + shift

    def describe(self) -> str:
        return (
            f"plan({self.set_.name}: {self.nblocks} blocks of "
            f"<= {self.block_size}, {self.ncolors} colors)"
        )


def _reduction_maps(args: list[Arg]):
    """(map, idx) pairs of indirect reduction arguments (the race sources)."""
    seen = set()
    out = []
    for arg in args:
        if arg.is_indirect and arg.access.is_reduction:
            key = (id(arg.map_), arg.idx)
            if key not in seen:
                seen.add(key)
                out.append(arg)
    return out


def build_plan(
    set_: OpSet,
    args: list[Arg],
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Plan:
    """Construct (and verify) the plan for a loop over ``set_`` with ``args``."""
    if block_size < 1:
        raise PlanError(f"block_size must be >= 1, got {block_size}")
    blocks = contiguous_blocks(set_.size, block_size)
    validate_blocks(blocks, set_.size)

    reduction_args = _reduction_maps(args)
    if not reduction_args:
        colors = [0] * len(blocks)
        classes = [list(range(len(blocks)))] if blocks else []
        return Plan(
            set_=set_,
            block_size=block_size,
            blocks=blocks,
            colors=colors,
            ncolors=1 if blocks else 0,
            classes=classes,
            colored=False,
        )

    # Every (target, block) increment reference, one map column at a time
    # over the whole set; the conflict builder dedupes them.
    targets = np.concatenate([arg.map_.values[:, arg.idx] for arg in reduction_args])
    block_of = np.arange(set_.size, dtype=index_dtype(set_.size)) // block_size
    adjacency = block_conflicts(
        targets, np.tile(block_of, len(reduction_args)), len(blocks)
    )
    del targets, block_of
    colors = greedy_coloring(adjacency)
    validate_coloring(adjacency, colors)
    ncolors = max(colors, default=-1) + 1
    return Plan(
        set_=set_,
        block_size=block_size,
        blocks=blocks,
        colors=colors,
        ncolors=ncolors,
        classes=color_classes(colors),
        colored=True,
    )


class PlanCache:
    """Memoizes plans by loop shape, as the OP2 runtime does.

    The key covers everything the plan depends on: the iteration set, the
    block size, and the (map, idx) pattern of indirect reduction arguments.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, Plan] = {}
        self.hits = 0
        self.misses = 0

    def key(self, set_: OpSet, args: list[Arg], block_size: int) -> tuple:
        # Keyed on map *identity* (OpMap.uid), not just the map name: map
        # values are frozen at construction, so the uid pins the contents the
        # coloring depends on. Two meshes with same-named sets/maps used in
        # one session would otherwise alias each other's cache entries.
        reduction_key = tuple(
            sorted(
                (arg.map_.name, arg.map_.uid, arg.idx)
                for arg in _reduction_maps(args)
                if arg.map_ is not None
            )
        )
        return (set_.name, set_.size, block_size, reduction_key)

    def get(self, set_: OpSet, args: list[Arg], block_size: int) -> Plan:
        k = self.key(set_, args, block_size)
        plan = self._plans.get(k)
        if plan is None:
            self.misses += 1
            plan = build_plan(set_, args, block_size)
            self._plans[k] = plan
        else:
            self.hits += 1
        return plan

    def __len__(self) -> int:
        return len(self._plans)
