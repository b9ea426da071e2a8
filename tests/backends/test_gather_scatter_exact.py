"""Bit-exactness of the gather/scatter core against a 2-D fancy-indexing oracle.

``execute_loop`` gathers through index arrays with ``np.take`` and reduces
into them with one 1-D ``ufunc.at`` per component. The oracle below is the
textbook form of the same core: 2-D fancy indexing for gathers and a 2-D
``np.add/minimum/maximum.at`` for every reduction through an index array,
in-place combination over a slice. Both apply each row's contributions in
element order, so every dat and global must come out ``np.array_equal``.
A direct MIN/MAX through an index array must land in the dat too: an
in-place ufunc whose ``out=`` is a fancy-indexed copy would drop it.

Covered: a random map with duplicate targets, dims 1/2/4, every access on a
direct and an indirect argument plus the three global reductions, over four
selections of the loop set: the whole set, a sub-slice, a sorted index array
and an unsorted view of a colored plan's ``Plan.order``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import execute_loop
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_MAX,
    OP_MIN,
    OP_READ,
    OP_RW,
    OP_WRITE,
    Kernel,
    OpDat,
    OpGlobal,
    OpMap,
    OpSet,
    op_arg_dat,
    op_arg_gbl,
)
from repro.op2.access import Access
from repro.op2.parloop import ParLoop
from repro.op2.plan import build_plan

NEDGES = 600
NCELLS = 150
ARITY = 3
DIMS = [1, 2, 4]
DAT_ACCESSES = [OP_READ, OP_RW, OP_WRITE, OP_INC, OP_MIN, OP_MAX]
GBL_ACCESSES = [OP_INC, OP_MIN, OP_MAX]
SELECTIONS = ["whole", "subslice", "sorted", "plan_order"]
_UFUNC = {Access.INC: np.add, Access.MIN: np.minimum, Access.MAX: np.maximum}
_IDENTITY = {Access.INC: 0.0, Access.MIN: np.inf, Access.MAX: -np.inf}


@pytest.fixture(scope="module")
def world():
    """Edges into cells through a local random map: each cell is hit ~12 times.

    Targets stay near ``e * NCELLS / NEDGES``, so a plan's blocks conflict
    only with their neighbours and coloring leaves several blocks per color:
    the class-ordered ``Plan.order`` is then a genuine permutation.
    """
    rng = np.random.default_rng(46)
    edges = OpSet("edges", NEDGES)
    cells = OpSet("cells", NCELLS)
    base = np.arange(NEDGES)[:, None] * NCELLS // NEDGES
    values = (base + rng.integers(-3, 4, size=(NEDGES, ARITY))) % NCELLS
    e2c = OpMap("e2c", edges, cells, ARITY, values)
    return edges, cells, e2c


def _selection(kind, world):
    edges, cells, e2c = world
    if kind == "whole":
        return slice(0, NEDGES)
    if kind == "subslice":
        return slice(37, 411)
    if kind == "sorted":
        return np.sort(np.random.default_rng(3).choice(NEDGES, size=240, replace=False))
    probe = OpDat("probe", cells, 1)
    plan = build_plan(edges, [op_arg_dat(probe, 0, e2c, OP_INC)], block_size=16)
    order = plan.order[50:430]
    assert plan.ncolors > 1 and np.any(np.diff(order) < 0)
    return order


def _kernel(accesses):
    """Records what it read in ``sink`` and a float of ``x`` in every output."""

    def vectorized(x, sink, *bufs):
        sink[:] = x
        for k, (access, buf) in enumerate(zip(accesses, bufs)):
            val = np.sin(x[:, : buf.shape[1]] * (k + 1.25)) * 3.0
            if access is Access.READ:
                sink[:, : buf.shape[1]] += buf
            elif access is Access.RW:
                buf *= 0.5
                buf += val
            elif access in (Access.WRITE, Access.INC):
                buf[:] = val
            elif access is Access.MIN:
                np.minimum(buf, val, out=buf)
            else:
                np.maximum(buf, val, out=buf)

    return Kernel("exact", lambda *args: None, vectorized)


def _state(world, dim, seed):
    rng = np.random.default_rng(seed)
    edges, cells, e2c = world
    x = OpDat("x", cells, 4, rng.standard_normal((NCELLS, 4)))
    sink = OpDat("sink", edges, 4, rng.standard_normal((NEDGES, 4)))
    on_cells = OpDat("c", cells, dim, rng.standard_normal((NCELLS, dim)))
    on_edges = OpDat("e", edges, dim, rng.standard_normal((NEDGES, dim)))
    gbls = [OpGlobal(f"g{a.value}", dim, rng.standard_normal(dim)) for a in GBL_ACCESSES]
    return x, sink, on_cells, on_edges, gbls


def _loop(world, state, access, target):
    edges, cells, e2c = world
    x, sink, on_cells, on_edges, gbls = state
    fixed = (op_arg_dat(x, 1, e2c, OP_READ), op_arg_dat(sink, -1, OP_ID, OP_WRITE))
    if target == "indirect":
        args = [op_arg_dat(on_cells, 2, e2c, access)]
    elif target == "direct":
        args = [op_arg_dat(on_edges, -1, OP_ID, access)]
    else:
        args = [op_arg_gbl(g, a) for g, a in zip(gbls, GBL_ACCESSES)]
    accesses = [a.access for a in args]
    return ParLoop(_kernel(accesses), "exact", edges, (*fixed, *args))


def _oracle(loop, elements):
    """The core written with 2-D fancy indexing and 2-D ``ufunc.at``."""
    n = len(range(NEDGES)[elements]) if isinstance(elements, slice) else len(elements)
    buffers, writebacks = [], []
    for arg in loop.args:
        dim = arg.dat.dim
        if arg.is_global:
            buf = np.full((n, dim), _IDENTITY[arg.access])
            buffers.append(buf)
            writebacks.append((arg, None, buf))
            continue
        tgt = elements if arg.is_direct else arg.map_.values[elements, arg.idx]
        if arg.access is Access.READ:
            buf = arg.dat.data[tgt]
        elif arg.access is Access.RW:
            buf = np.array(arg.dat.data[tgt])
        elif arg.access is Access.WRITE:
            buf = np.empty((n, dim))
        else:
            buf = np.full((n, dim), _IDENTITY[arg.access])
        buffers.append(buf)
        if arg.access.writes:
            writebacks.append((arg, tgt, buf))
    loop.kernel.vectorized(*buffers)
    for arg, tgt, buf in writebacks:
        ufunc = _UFUNC.get(arg.access)
        if arg.is_global:
            ufunc(arg.dat.data, ufunc.reduce(buf, axis=0), out=arg.dat.data)
        elif ufunc is None:
            arg.dat.data[tgt] = buf
        elif isinstance(tgt, slice):
            view = arg.dat.data[tgt]
            ufunc(view, buf, out=view)
        else:
            ufunc.at(arg.dat.data, tgt, buf)


def _snapshot(state):
    *dats, gbls = state
    return [d.data.copy() for d in dats] + [g.data.copy() for g in gbls]


CASES = [
    (access, target)
    for access in DAT_ACCESSES
    for target in ("indirect", "direct")
] + [(None, "global")]


@pytest.mark.parametrize("selection", SELECTIONS)
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize(
    "access,target", CASES, ids=[f"{t}-{a.value if a else 'reductions'}" for a, t in CASES]
)
def test_execute_loop_matches_fancy_indexing_oracle(world, access, target, dim, selection):
    elements = _selection(selection, world)
    seed = 1000 * dim + len(SELECTIONS) * CASES.index((access, target))
    ours, theirs = _state(world, dim, seed), _state(world, dim, seed)
    execute_loop(_loop(world, ours, access, target), elements)
    _oracle(_loop(world, theirs, access, target), elements)
    for got, want in zip(_snapshot(ours), _snapshot(theirs)):
        assert np.array_equal(got, want)


def test_indirect_increments_really_collide(world):
    """The map sends several edges of one selection to one cell."""
    _, _, e2c = world
    for kind in SELECTIONS:
        tgt = e2c.values[_selection(kind, world), 2]
        assert len(np.unique(tgt)) < len(tgt)
