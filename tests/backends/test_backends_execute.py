"""Tests for the gather/compute/scatter execution core (backends.base)."""

import numpy as np
import pytest

from repro.backends.base import execute_loop, execute_loop_by_plan
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
from repro.op2.exceptions import Op2Error
from repro.op2.parloop import ParLoop
from repro.op2.plan import build_plan


@pytest.fixture()
def world():
    cells = OpSet("cells", 8)
    edges = OpSet("edges", 8)
    # Each edge hits (i, (i+1) % 8): a ring with duplicate targets.
    vals = np.stack([np.arange(8), (np.arange(8) + 1) % 8], axis=1)
    e2c = OpMap("e2c", edges, cells, 2, vals)
    return cells, edges, e2c


class TestDirectAccess:
    def test_write(self, world):
        cells, edges, e2c = world
        out = OpDat("out", cells, 2)

        def kv(dst):
            dst[:] = 7.0

        loop = ParLoop(
            Kernel("fill", lambda d: None, kv),
            "fill",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE),),
        )
        execute_loop(loop)
        assert np.all(out.data == 7.0)

    def test_rw_reads_previous_value(self, world):
        cells, edges, e2c = world
        d = OpDat("d", cells, 1, np.arange(8.0))

        def kv(x):
            x[:] += 1.0

        loop = ParLoop(
            Kernel("incr", lambda x: None, kv),
            "incr",
            cells,
            (op_arg_dat(d, -1, OP_ID, OP_RW),),
        )
        execute_loop(loop)
        np.testing.assert_array_equal(d.data[:, 0], np.arange(8.0) + 1.0)

    def test_direct_inc(self, world):
        cells, edges, e2c = world
        d = OpDat("d", cells, 1, np.ones(8))

        def kv(x):
            x[:] = 2.0  # contribution, not assignment to the dat

        loop = ParLoop(
            Kernel("inc", lambda x: None, kv),
            "inc",
            cells,
            (op_arg_dat(d, -1, OP_ID, OP_INC),),
        )
        execute_loop(loop)
        assert np.all(d.data == 3.0)

    def test_partial_elements(self, world):
        cells, edges, e2c = world
        out = OpDat("out", cells, 1)

        def kv(dst):
            dst[:] = 1.0

        loop = ParLoop(
            Kernel("fill", lambda d: None, kv),
            "fill",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE),),
        )
        execute_loop(loop, np.array([2, 5]))
        assert out.data[2, 0] == 1.0 and out.data[5, 0] == 1.0
        assert out.data[0, 0] == 0.0


class TestIndirectAccess:
    def test_gather_read(self, world):
        cells, edges, e2c = world
        src = OpDat("src", cells, 1, np.arange(8.0))
        out = OpDat("out", edges, 1)

        def kv(a, b, dst):
            dst[:] = a + b

        loop = ParLoop(
            Kernel("sum2", lambda a, b, d: None, kv),
            "sum2",
            edges,
            (
                op_arg_dat(src, 0, e2c, OP_READ),
                op_arg_dat(src, 1, e2c, OP_READ),
                op_arg_dat(out, -1, OP_ID, OP_WRITE),
            ),
        )
        execute_loop(loop)
        expected = np.arange(8.0) + (np.arange(8.0) + 1) % 8
        np.testing.assert_array_equal(out.data[:, 0], expected)

    def test_indirect_inc_handles_duplicates(self, world):
        cells, edges, e2c = world
        acc = OpDat("acc", cells, 1)

        def kv(a, b):
            a[:] = 1.0
            b[:] = 1.0

        loop = ParLoop(
            Kernel("touch", lambda a, b: None, kv),
            "touch",
            edges,
            (
                op_arg_dat(acc, 0, e2c, OP_INC),
                op_arg_dat(acc, 1, e2c, OP_INC),
            ),
        )
        execute_loop(loop)
        # Every cell is endpoint of exactly 2 edges (ring): 2 increments.
        assert np.all(acc.data == 2.0)

    def test_indirect_min(self, world):
        cells, edges, e2c = world
        m = OpDat("m", cells, 1, np.full(8, 100.0))

        def kv(dst):
            dst[:, 0] = np.arange(dst.shape[0], dtype=float)

        loop = ParLoop(
            Kernel("mins", lambda d: None, kv),
            "mins",
            edges,
            (op_arg_dat(m, 0, e2c, OP_MIN),),
        )
        execute_loop(loop)
        np.testing.assert_array_equal(m.data[:, 0], np.arange(8.0))


class TestGlobals:
    def test_global_read_broadcast(self, world):
        cells, edges, e2c = world
        g = OpGlobal("c", 2, np.array([10.0, 20.0]))
        out = OpDat("out", cells, 2)

        def kv(dst, const):
            dst[:] = const

        loop = ParLoop(
            Kernel("bc", lambda d, c: None, kv),
            "bc",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE), op_arg_gbl(g, OP_READ)),
        )
        execute_loop(loop)
        assert np.all(out.data[:, 0] == 10.0) and np.all(out.data[:, 1] == 20.0)

    def test_global_min_max(self, world):
        cells, edges, e2c = world
        src = OpDat("src", cells, 1, np.array([5.0, 2, 8, 1, 9, 3, 7, 4]))
        gmin = OpGlobal("gmin", 1, 100.0)
        gmax = OpGlobal("gmax", 1, -100.0)

        def kv(a, mn, mx):
            mn[:] = a
            mx[:] = a

        loop = ParLoop(
            Kernel("extrema", lambda a, mn, mx: None, kv),
            "extrema",
            cells,
            (
                op_arg_dat(src, -1, OP_ID, OP_READ),
                op_arg_gbl(gmin, OP_MIN),
                op_arg_gbl(gmax, OP_MAX),
            ),
        )
        execute_loop(loop)
        assert gmin.value() == 1.0
        assert gmax.value() == 9.0


class TestElementalMode:
    def test_elemental_matches_vectorized(self, world):
        cells, edges, e2c = world
        src = OpDat("src", cells, 1, np.arange(8.0))
        out_v = OpDat("ov", cells, 1)
        out_e = OpDat("oe", cells, 1)

        def ke(a, dst):
            dst[0] = a[0] * 2.0

        def kv(a, dst):
            dst[:] = a * 2.0

        kern = Kernel("dbl", ke, kv)
        loop_v = ParLoop(
            kern, "dbl", cells,
            (op_arg_dat(src, -1, OP_ID, OP_READ), op_arg_dat(out_v, -1, OP_ID, OP_WRITE)),
        )
        loop_e = ParLoop(
            kern, "dbl", cells,
            (op_arg_dat(src, -1, OP_ID, OP_READ), op_arg_dat(out_e, -1, OP_ID, OP_WRITE)),
        )
        execute_loop(loop_v, mode="vectorized")
        execute_loop(loop_e, mode="elemental")
        np.testing.assert_array_equal(out_v.data, out_e.data)

    def test_vectorized_missing_raises(self, world):
        cells, edges, e2c = world
        out = OpDat("out", cells, 1)
        loop = ParLoop(
            Kernel("k", lambda d: None),
            "k",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE),),
        )
        with pytest.raises(Op2Error, match="vectorized"):
            execute_loop(loop)

    def test_unknown_mode_rejected(self, world):
        cells, edges, e2c = world
        out = OpDat("out", cells, 1)
        loop = ParLoop(
            Kernel("k", lambda d: None, lambda d: None),
            "k",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE),),
        )
        with pytest.raises(Op2Error, match="mode"):
            execute_loop(loop, mode="gpu")


class TestPlanDrivenExecution:
    def test_by_plan_matches_whole_set(self, world):
        cells, edges, e2c = world
        acc1 = OpDat("a1", cells, 1)
        acc2 = OpDat("a2", cells, 1)

        def kv(a, b):
            a[:] = 1.0
            b[:] = 2.0

        def mkloop(acc):
            return ParLoop(
                Kernel("t", lambda a, b: None, kv),
                "t",
                edges,
                (op_arg_dat(acc, 0, e2c, OP_INC), op_arg_dat(acc, 1, e2c, OP_INC)),
            )

        execute_loop(mkloop(acc1))
        plan = build_plan(edges, list(mkloop(acc2).args), block_size=3)
        execute_loop_by_plan(mkloop(acc2), plan)
        np.testing.assert_allclose(acc1.data, acc2.data)

    def test_empty_elements_noop(self, world):
        cells, edges, e2c = world
        out = OpDat("out", cells, 1)
        loop = ParLoop(
            Kernel("k", lambda d: None, lambda d: None),
            "k",
            cells,
            (op_arg_dat(out, -1, OP_ID, OP_WRITE),),
        )
        execute_loop(loop, np.array([], dtype=np.int64))
        assert out.version == 0

    def test_empty_slice_noop(self, world):
        """``slice(0, 0)`` is an empty chunk, not the whole set."""
        cells, edges, e2c = world
        acc = OpDat("acc", cells, 1)
        out = OpDat("out", edges, 1)

        def kv(a, d):
            a[:] = 1.0
            d[:] = 2.0

        loop = ParLoop(
            Kernel("t", lambda a, d: None, kv),
            "t",
            edges,
            (op_arg_dat(acc, 0, e2c, OP_INC), op_arg_dat(out, -1, OP_ID, OP_WRITE)),
        )
        execute_loop(loop, slice(0, 0))
        assert not acc.data.any() and not out.data.any()
        assert acc.version == 0 and out.version == 0
