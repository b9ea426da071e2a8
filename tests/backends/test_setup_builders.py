"""Whole-array plan and block-dependency builders against per-block oracles.

The oracles are the per-block algorithms the builders replaced: one
``np.unique`` per block and a Python pair loop per shared element. The
builders must return exactly what the oracles return — the same conflict
sets (so the same first-fit colouring) and the same sorted, unique int64
producer-block arrays — on every hazard pair of the Airfoil timestep and on
random maps. The module also pins the block-dependency cache key and the
empty-chunk early return of ``execute_loop``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.airfoil import AirfoilApp, generate_mesh
from repro.backends.blockdeps import (
    BlockDepCache,
    ElementBlockIndex,
    block_dependencies,
    hazard_dats,
    touched_per_block,
)
from repro.engine import airfoil_timestep
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_RW,
    OP_WRITE,
    Kernel,
    LoopRecord,
    OpDat,
    OpMap,
    OpSet,
    op2_session,
    op_arg_dat,
    op_par_loop,
)
from repro.op2.coloring import build_block_conflicts, color_classes, greedy_coloring
from repro.op2.deps import DatDependencyTracker
from repro.op2.parloop import ParLoop
from repro.op2.plan import build_plan

# -- oracles: the per-block builders the whole-array passes replaced ---------


def oracle_conflicts(target_indices_per_block):
    nblocks = len(target_indices_per_block)
    adjacency = [set() for _ in range(nblocks)]
    pairs = []
    for b, targets in enumerate(target_indices_per_block):
        uniq = np.unique(np.asarray(targets, dtype=np.int64))
        pairs.append(np.stack([uniq, np.full(uniq.shape, b, dtype=np.int64)], axis=1))
    if not pairs:
        return adjacency
    flat = np.concatenate(pairs, axis=0)
    flat = flat[np.lexsort((flat[:, 1], flat[:, 0]))]
    start, n = 0, flat.shape[0]
    while start < n:
        stop = start
        while stop < n and flat[stop, 0] == flat[start, 0]:
            stop += 1
        group = flat[start:stop, 1]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                a, b = int(group[i]), int(group[j])
                adjacency[a].add(b)
                adjacency[b].add(a)
        start = stop
    return adjacency


def oracle_colors(set_, args, block_size):
    """``build_plan``'s colouring from per-block unique reduction targets."""
    plan = build_plan(set_, args, block_size)
    reduction = [a for a in args if a.is_indirect and a.access.is_reduction]
    if not reduction:
        return [0] * plan.nblocks
    targets = [
        np.unique(np.concatenate([a.map_.values[b.start : b.stop, a.idx] for a in reduction]))
        for b in plan.blocks
    ]
    return greedy_coloring(oracle_conflicts(targets))


def oracle_touched_per_block(rec, dat):
    args = [a for a in rec.loop.args if a.dat is dat]
    if not args:
        return [np.empty(0, dtype=np.int64) for _ in rec.plan.blocks]
    out = []
    for block in rec.plan.blocks:
        pieces = []
        for arg in args:
            if arg.is_direct:
                pieces.append(np.arange(block.start, block.stop, dtype=np.int64))
            else:
                pieces.append(arg.map_.values[block.start : block.stop, arg.idx])
        out.append(np.unique(np.concatenate(pieces)))
    return out


def oracle_block_dependencies(producer, consumer, dat):
    index = ElementBlockIndex(oracle_touched_per_block(producer, dat), dat.set.size)
    return [index.blocks_for(rows) for rows in oracle_touched_per_block(consumer, dat)]


def assert_plan_matches_oracle(set_, args, block_size):
    plan = build_plan(set_, args, block_size)
    colors = oracle_colors(set_, args, block_size)
    assert plan.colors == colors
    assert plan.classes == color_classes(colors)
    assert plan.ncolors == max(colors, default=-1) + 1


def assert_relation_matches_oracle(producer, consumer, dat):
    got = block_dependencies(producer, consumer, dat)
    want = oracle_block_dependencies(producer, consumer, dat)
    assert len(got) == len(want) == consumer.plan.nblocks
    for b, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == np.int64, b
        np.testing.assert_array_equal(g, w, err_msg=f"consumer block {b}")
    for g, w in zip(touched_per_block(consumer, dat), oracle_touched_per_block(consumer, dat)):
        np.testing.assert_array_equal(g, w)


# -- the Airfoil timestep ----------------------------------------------------

MESHES = [(360, 180), (48, 24), (240, 120), (8, 800)]
BLOCK_SIZES = [64, 256]


@pytest.fixture(
    scope="module",
    params=[(ni, nj, bs) for ni, nj in MESHES for bs in BLOCK_SIZES],
    ids=lambda p: f"{p[0]}x{p[1]}-b{p[2]}",
)
def airfoil_records(request):
    """Loop records of two seq timesteps: the second one's loops and producers."""
    ni, nj, block_size = request.param
    with op2_session(backend="seq", block_size=block_size) as rt:
        AirfoilApp(generate_mesh(ni=ni, nj=nj)).run(rt, 2)
    return list(rt.log.loops())[-2 * len(airfoil_timestep()) :], block_size


def hazard_pairs(records):
    """The (producer, consumer, dat) triples the scheduler's tracker names
    for the last timestep's loops, producers in the timestep before included."""
    per_step = len(records) // 2
    tracker: DatDependencyTracker[int] = DatDependencyTracker(ordered_increments=True)
    by_id = {rec.loop_id: rec for rec in records}
    pairs = []
    for i, rec in enumerate(records):
        deps = tracker.dependencies(list(rec.loop.args), token=rec.loop_id)
        if i >= per_step:
            pairs += [(by_id[d], rec, dat) for d in deps for dat in hazard_dats(by_id[d], rec)]
    return pairs


def test_airfoil_plans_match_oracle(airfoil_records):
    records, block_size = airfoil_records
    shapes = {rec.loop.name: rec.loop for rec in records}
    assert {"res_calc", "bres_calc"} <= set(shapes)
    for loop in shapes.values():
        assert_plan_matches_oracle(loop.set_, list(loop.args), block_size)


def test_airfoil_block_dependencies_match_oracle(airfoil_records):
    records, _ = airfoil_records
    pairs = hazard_pairs(records)
    assert len(pairs) > 10
    for producer, consumer, dat in pairs:
        assert_relation_matches_oracle(producer, consumer, dat)


# -- random maps -------------------------------------------------------------


@st.composite
def random_loop(draw, to_set, name):
    """A random (possibly empty) iteration set, a random-arity map from it
    into ``to_set``, the map columns a loop uses (repeats allowed) and a
    block size."""
    nfrom = draw(st.integers(0, 70))
    arity = draw(st.integers(1, 3))
    values = draw(
        st.lists(
            st.lists(st.integers(0, to_set.size - 1), min_size=arity, max_size=arity),
            min_size=nfrom,
            max_size=nfrom,
        )
    )
    from_set = OpSet(f"{name}_set", nfrom)
    values = np.array(values, dtype=np.int64).reshape(nfrom, arity)
    m = OpMap(f"{name}_map", from_set, to_set, arity, values)
    cols = draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=4))
    return from_set, m, cols, draw(st.integers(1, 16))


def _record(loop_id, set_, args, block_size):
    kernel = Kernel("k", lambda *a: None, lambda *a: None)
    loop = ParLoop(kernel, f"loop{loop_id}", set_, tuple(args))
    return LoopRecord(loop_id=loop_id, loop=loop, plan=build_plan(set_, list(args), block_size))


@settings(max_examples=60)
@given(st.data())
def test_random_plans_match_oracle(data):
    to_set = OpSet("to", data.draw(st.integers(1, 40)))
    from_set, m, cols, block_size = data.draw(random_loop(to_set, "e"))
    dat = OpDat("d", to_set, 1)
    args = [op_arg_dat(dat, c, m, OP_INC) for c in cols]
    assert_plan_matches_oracle(from_set, args, block_size)


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(0, 30), max_size=12),
        max_size=20,
    )
)
def test_random_conflict_graphs_match_oracle(targets):
    per_block = [np.array(t, dtype=np.int64) for t in targets]
    assert build_block_conflicts(per_block) == oracle_conflicts(per_block)


@settings(max_examples=60)
@given(st.data())
def test_random_block_dependencies_match_oracle(data):
    to_set = OpSet("to", data.draw(st.integers(1, 40)))
    dat = OpDat("d", to_set, 1)
    records = []
    for loop_id, name in enumerate(("p", "c")):
        if data.draw(st.booleans(), label=f"{name} direct"):
            args = [op_arg_dat(dat, -1, OP_ID, OP_RW)]
            records.append(_record(loop_id, to_set, args, data.draw(st.integers(1, 16))))
        else:
            from_set, m, cols, block_size = data.draw(random_loop(to_set, name))
            args = [op_arg_dat(dat, c, m, OP_INC) for c in cols]
            records.append(_record(loop_id, from_set, args, block_size))
    assert_relation_matches_oracle(records[0], records[1], dat)


# -- the cache key -----------------------------------------------------------


def _same_named_readers(n=1024, block_size=64):
    """A producer writing ``a`` over cells, and two loops both named ``k``
    reading it over edges: one through an identity map, one permuted."""
    cells, edges = OpSet("cells", n), OpSet("edges", n)
    ident = OpMap("ident", edges, cells, 1, np.arange(n).reshape(n, 1))
    perm = OpMap(
        "perm", edges, cells, 1, np.random.default_rng(7).permutation(n).reshape(n, 1)
    )
    a = OpDat("a", cells, 1)
    write = [op_arg_dat(a, -1, OP_ID, OP_WRITE)]
    producer = _record(0, cells, write, block_size)
    # Read-only loops over one set share one plan object, as the PlanCache
    # hands out: the plan is keyed by the set and reduction maps only.
    plan = build_plan(edges, [], block_size)
    readers = []
    for loop_id, m in ((1, ident), (2, perm)):
        out = OpDat(f"out{loop_id}", edges, 1)
        args = (op_arg_dat(a, 0, m, OP_READ), op_arg_dat(out, -1, OP_ID, OP_WRITE))
        loop = ParLoop(Kernel("k", lambda *x: None, lambda *x: None), "k", edges, args)
        readers.append(LoopRecord(loop_id=loop_id, loop=loop, plan=plan))
    return producer, readers, a


def test_cache_keys_each_side_on_its_map_footprint():
    producer, (k_ident, k_perm), a = _same_named_readers()
    cache = BlockDepCache()
    cache.get(producer, k_ident, a)
    got = cache.get(producer, k_perm, a)
    want = block_dependencies(producer, k_perm, a)
    for b, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(g, w, err_msg=f"consumer block {b}")
    # Same footprints and plans: a hit, whatever the loop is called.
    assert cache.get(producer, k_perm, a) is got


def _run_same_named_readers(backend, **mode):
    n = 1024
    cells, edges = OpSet("cells", n), OpSet("edges", n)
    ident = OpMap("ident", edges, cells, 1, np.arange(n).reshape(n, 1))
    perm = OpMap(
        "perm", edges, cells, 1, np.random.default_rng(7).permutation(n).reshape(n, 1)
    )
    a = OpDat("a", cells, 1, np.arange(n, dtype=float))
    outs = [OpDat("out1", edges, 1), OpDat("out2", edges, 1)]

    def bump(x):
        x[:] += 1.0

    def scaled(src, dst):
        dst[:] = 3.0 * src

    fill = Kernel("fill", lambda x: None, bump)
    read = Kernel("k", lambda s, d: None, scaled)
    with op2_session(backend=backend, block_size=64, **mode) as rt:
        for _ in range(4):
            op_par_loop(fill, "fill", cells, op_arg_dat(a, -1, OP_ID, OP_RW))
            for m, out in zip((ident, perm), outs):
                op_par_loop(
                    read, "k", edges,
                    op_arg_dat(a, 0, m, OP_READ), op_arg_dat(out, -1, OP_ID, OP_WRITE),
                )
        rt.finish()
    return [out.data.copy() for out in outs]


def test_same_named_readers_dataflow_threads_match_seq():
    want = _run_same_named_readers("seq")
    got = _run_same_named_readers(
        "hpx_dataflow", num_threads=4, mode="threads", num_workers=4
    )
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
