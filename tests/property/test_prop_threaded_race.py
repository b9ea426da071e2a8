"""Property tests: the threaded execution path cannot race on shared rows.

The threads mode dispatches all same-color plan blocks concurrently
(``repro/backends/threaded.py``), so its memory-safety argument rests on two
invariants checked here over hypothesis-generated meshes:

1. no two blocks sharing a color write to a common target row through *any*
   indirect-reduction map argument (multiple maps and multiple target dats
   included);
2. the shared decomposition hands each pool task disjoint elements of the
   color class — its chunks tile the class's elements (or the class's share
   of a subset) exactly, so concurrent direct writes never overlap either;
   over a whole set a chunk's one selection lists its blocks' elements in
   ``chunk.blocks`` order.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.backends.threaded import color_chunks
from repro.hpx.chunking import (
    AutoPartitioner,
    GuessChunkSize,
    StaticChunkSize,
)
from repro.op2 import OP_INC, OP_MAX, OP_MIN, OpDat, OpMap, OpSet, op_arg_dat
from repro.op2.plan import build_plan

REDUCTIONS = [OP_INC, OP_MIN, OP_MAX]


@st.composite
def reduction_world(draw):
    """Random iteration set + 1-2 reduction maps into 1-2 target dats."""
    nfrom = draw(st.integers(1, 150))
    from_set = OpSet("iter", nfrom)
    nmaps = draw(st.integers(1, 2))
    args = []
    maps = []
    for mi in range(nmaps):
        nto = draw(st.integers(1, 80))
        arity = draw(st.integers(1, 3))
        to_set = OpSet(f"to{mi}", nto)
        values = draw(
            st.lists(
                st.lists(st.integers(0, nto - 1), min_size=arity, max_size=arity),
                min_size=nfrom,
                max_size=nfrom,
            )
        )
        m = OpMap(f"m{mi}", from_set, to_set, arity,
                  np.array(values, dtype=np.int64))
        dat = OpDat(f"d{mi}", to_set, 1)
        access = draw(st.sampled_from(REDUCTIONS))
        for idx in range(arity):
            args.append(op_arg_dat(dat, idx, m, access))
        maps.append((m, dat))
    return from_set, maps, args


def _written_rows(arg, start: int, stop: int) -> set[tuple[str, int]]:
    """(dat name, row) pairs this reduction arg writes for elements [start, stop)."""
    col = arg.map_.values[start:stop, arg.idx]
    return {(arg.dat.name, int(r)) for r in col}


@given(reduction_world(), st.integers(1, 24))
def test_same_color_blocks_write_disjoint_rows(world, block_size):
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    reduction_args = [a for a in args if a.is_indirect and a.access.is_reduction]
    for cls in plan.classes:
        written: list[set[tuple[str, int]]] = []
        for b in cls:
            blk = plan.blocks[b]
            rows: set[tuple[str, int]] = set()
            for arg in reduction_args:
                rows |= _written_rows(arg, blk.start, blk.stop)
            written.append(rows)
        for i in range(len(written)):
            for j in range(i + 1, len(written)):
                assert not (written[i] & written[j]), (
                    "two same-color blocks write a common row — the threaded "
                    "dispatcher would race on it"
                )


@given(
    reduction_world(),
    st.integers(1, 24),
    st.integers(1, 8),
    st.sampled_from(["guess", "static", "auto"]),
    st.data(),
)
def test_chunked_spans_tile_each_color_class(world, block_size, workers, kind, data):
    """Pool tasks receive disjoint elements covering the class exactly.

    Holds for the whole set (a slice, or a view of the plan's class-ordered
    elements, laid out block by block in ``chunk.blocks`` order) and for a
    sorted subset (one index array per chunk, blocks without subset ids
    dropped).
    """
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    chunker = {
        "guess": GuessChunkSize(),
        "static": StaticChunkSize(2),
        "auto": AutoPartitioner(),
    }[kind]
    subset = None
    if data.draw(st.booleans()):
        mask = data.draw(
            st.lists(st.booleans(), min_size=from_set.size, max_size=from_set.size)
        )
        subset = np.flatnonzero(mask)
    executed: dict[int, list[int]] = {}
    for ci, chunks in color_chunks(plan, chunker, workers, subset):
        assert chunks and ci not in executed
        executed[ci] = []
        for chunk in chunks:
            sel = chunk.elements
            ids = np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel
            assert len(ids)
            if subset is None:
                # Blocks in chunk order: with disjoint same-color targets,
                # this is what makes one batched scatter bit-identical to
                # the block-by-block one.
                blocks = [plan.block_elements(b) for b in chunk.blocks]
                assert np.array_equal(ids, np.concatenate(blocks))
            executed[ci].extend(int(e) for e in ids)
    for ci, cls in enumerate(plan.classes):
        expected = sorted(
            e
            for b in cls
            for e in range(plan.blocks[b].start, plan.blocks[b].stop)
            if subset is None or e in subset
        )
        elements = executed.get(ci, [])
        # Tiling (no element lost) + disjointness (no element duplicated).
        assert sorted(elements) == expected
        assert len(elements) == len(set(elements))


@given(reduction_world(), st.integers(1, 24))
def test_classes_execute_every_block_exactly_once(world, block_size):
    """The color-by-color outer loop covers the whole iteration set once."""
    from_set, maps, args = world
    plan = build_plan(from_set, args, block_size=block_size)
    seen = sorted(b for cls in plan.classes for b in cls)
    assert seen == list(range(plan.nblocks))
    total = sum(
        plan.blocks[b].stop - plan.blocks[b].start
        for cls in plan.classes
        for b in cls
    )
    assert total == from_set.size
