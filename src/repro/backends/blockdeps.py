"""Block-level dependence refinement for the dataflow backend.

Loop-level futures order whole loops; the dataflow *runtime* can do better:
a consumer block only truly depends on the producer blocks that touched the
same rows of the shared dat. This module computes that bipartite relation
from the plans and maps — the "automatic execution tree" the paper credits
for interleaving direct and indirect loops at runtime (§III-B).

A relation takes three whole-array passes, none of them per block:

1. each loop's (block, row) references to the dat, read one map column at a
   time over the whole iteration set and deduplicated by one sort of
   ``block * rows + row`` keys (:func:`touched_per_block` splits them);
2. the producer's references indexed row -> blocks, once, by
   :class:`ElementBlockIndex`;
3. the consumer's references expanded through that index into (consumer
   block, producer block) pairs, deduplicated by one more sort and split per
   consumer block.

Keys are int32 whenever their range fits. The relation depends only on the
two plans and on how each loop addresses the dat — never on thread count or
time — so :class:`BlockDepCache` computes it once per footprint pair.
"""

from __future__ import annotations

import numpy as np

from repro.op2.args import Arg
from repro.op2.dat import OpDat
from repro.op2.plan import Plan
from repro.op2.runtime import LoopRecord
from repro.util.arrays import index_dtype, sort_unique


def _columns(rec: LoopRecord, dat: OpDat) -> dict[tuple[int, int], Arg]:
    """One arg per distinct ``(map uid, idx)`` through which ``rec`` touches
    ``dat``; direct access is ``(-1, -1)``."""
    out: dict[tuple[int, int], Arg] = {}
    for a in rec.loop.args:
        if a.dat is dat:
            out.setdefault((-1, -1) if a.map_ is None else (a.map_.uid, a.idx), a)
    return out


def _footprint(rec: LoopRecord, dat: OpDat) -> tuple[tuple[int, int], ...]:
    """How ``rec`` addresses ``dat``; map uids pin the frozen map values."""
    return tuple(sorted(_columns(rec, dat)))


def _references(rec: LoopRecord, dat: OpDat) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct (block, row) reference of ``rec`` to ``dat``.

    Returned as ``(blocks, rows)``, sorted by block, then row.
    """
    plan = rec.plan
    n = plan.set_.size
    num_rows = dat.set.size
    dtype = index_dtype(plan.nblocks * num_rows)
    args = list(_columns(rec, dat).values())
    if not args or n == 0:
        return np.empty(0, dtype), np.empty(0, dtype)
    base = np.repeat(
        np.arange(plan.nblocks, dtype=dtype) * num_rows,
        [len(b) for b in plan.blocks],
    )
    keys = np.empty(len(args) * n, dtype)
    for part, arg in zip(np.split(keys, len(args)), args):
        part[:] = np.arange(n, dtype=dtype) if arg.map_ is None else arg.map_.values[:, arg.idx]
        part += base
    del base
    return np.divmod(sort_unique(keys), num_rows)


def _split_by(values: np.ndarray, groups: np.ndarray, ngroups: int) -> list[np.ndarray]:
    """``values``, ordered by ascending ``groups``, as one view per group id."""
    bounds = np.searchsorted(groups, np.arange(ngroups + 1)).tolist()
    return [values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def touched_per_block(rec: LoopRecord, dat: OpDat) -> list[np.ndarray]:
    """For each block of ``rec``, the unique dat rows it touches (any access)."""
    blocks, rows = _references(rec, dat)
    return _split_by(rows, blocks, rec.plan.nblocks)


def _ranges_gather(
    starts: np.ndarray, lens: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """Concatenate ``data[starts[i] : starts[i]+lens[i]]`` without a Python loop."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=data.dtype)
    # Offsets within the concatenated output where each range begins.
    out_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    # For every output position, the source index.
    idx = np.repeat(starts - out_starts, lens) + np.arange(total)
    return data[idx]


class ElementBlockIndex:
    """CSR index: dat row -> ids of the blocks that touched it."""

    def __init__(self, per_block: list[np.ndarray], num_rows: int) -> None:
        if per_block:
            elems = np.concatenate(per_block)
            blocks = np.repeat(
                np.arange(len(per_block), dtype=np.int64),
                [len(t) for t in per_block],
            )
        else:
            elems = np.empty(0, dtype=np.int64)
            blocks = np.empty(0, dtype=np.int64)
        self._blocks = blocks[np.argsort(elems, kind="stable")]
        counts = np.bincount(elems, minlength=num_rows)
        self._indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.num_rows = num_rows

    def expand(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per query row its count of touching blocks, and all those blocks.

        The blocks come concatenated in query order (rows must be in range).
        """
        starts = self._indptr[rows]
        lens = self._indptr[rows + 1] - starts
        return lens, _ranges_gather(starts, lens, self._blocks)

    def blocks_for(self, rows: np.ndarray) -> np.ndarray:
        """Unique block ids touching any of ``rows`` (rows must be in range)."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.expand(rows)[1])


def hazard_dats(producer: LoopRecord, consumer: LoopRecord) -> list[OpDat]:
    """Dats shared by two loops where at least one side writes."""
    prod_access: dict[int, tuple[OpDat, bool]] = {}
    for a in producer.loop.args:
        if isinstance(a.dat, OpDat):
            dat, writes = prod_access.get(id(a.dat), (a.dat, False))
            prod_access[id(a.dat)] = (dat, writes or a.access.writes)
    out: list[OpDat] = []
    seen: set[int] = set()
    for a in consumer.loop.args:
        if not isinstance(a.dat, OpDat) or id(a.dat) in seen:
            continue
        hit = prod_access.get(id(a.dat))
        if hit is None:
            continue
        dat, prod_writes = hit
        if prod_writes or a.access.writes:
            seen.add(id(a.dat))
            out.append(dat)
    return out


def block_dependencies(
    producer: LoopRecord, consumer: LoopRecord, dat: OpDat
) -> list[np.ndarray]:
    """For each consumer block, the producer block ids it depends on.

    Valid for every hazard type (RAW/WAR/WAW): a consumer block must wait for
    exactly the producer blocks that touched the same dat rows. Each entry is
    a sorted, unique int64 array.
    """
    index = ElementBlockIndex(touched_per_block(producer, dat), dat.set.size)
    blocks, rows = _references(consumer, dat)
    lens, producer_blocks = index.expand(rows)
    del index, rows
    nprod = producer.plan.nblocks
    keys = np.repeat(blocks.astype(index_dtype(consumer.plan.nblocks * nprod)), lens)
    del blocks, lens
    keys *= nprod
    keys += producer_blocks
    del producer_blocks
    consumer_of, producer_of = np.divmod(sort_unique(keys), nprod)
    return _split_by(producer_of.astype(np.int64), consumer_of, consumer.plan.nblocks)


class BlockDepCache:
    """Memoized :func:`block_dependencies`, one entry per footprint pair.

    A relation is fixed by each side's plan and its ``(map uid, idx)``
    footprint on the dat. It does not depend on the loop names, on which dat
    it is, on worker count or on time, so one entry serves every timestep
    (and every dat) in which the same pair recurs. Each entry holds its two
    plans, so a plan ``id()`` in a live key cannot be reused. Both the
    dataflow emitter and the measured thread scheduler keep an instance.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[Plan, Plan, list[np.ndarray]]] = {}

    def get(
        self, producer: LoopRecord, consumer: LoopRecord, dat: OpDat
    ) -> list[np.ndarray]:
        key = (
            id(producer.plan),
            _footprint(producer, dat),
            id(consumer.plan),
            _footprint(consumer, dat),
        )
        entry = self._cache.get(key)
        if entry is None:
            deps = block_dependencies(producer, consumer, dat)
            entry = self._cache[key] = (producer.plan, consumer.plan, deps)
        return entry[2]


def dependency_edge_count(deps: list[np.ndarray]) -> int:
    """Total bipartite edges (diagnostics for emitter budgets)."""
    return int(sum(len(d) for d in deps))
