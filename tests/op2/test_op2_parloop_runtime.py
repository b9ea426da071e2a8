"""Tests for ParLoop validation, op_par_loop dispatch and Op2Runtime."""

import numpy as np
import pytest

from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_WRITE,
    Kernel,
    OpDat,
    OpGlobal,
    OpMap,
    OpSet,
    op_arg_dat,
    op_arg_gbl,
    op_par_loop,
    op2_session,
)
from repro.op2.exceptions import KernelSignatureError, Op2Error
from repro.op2.parloop import ParLoop
from repro.op2.runtime import LoopRecord, Op2Runtime, SyncRecord, get_op2_runtime


@pytest.fixture()
def world():
    cells = OpSet("cells", 10)
    edges = OpSet("edges", 9)
    vals = np.stack([np.arange(9), np.arange(9) + 1], axis=1)
    e2c = OpMap("e2c", edges, cells, 2, vals)
    q = OpDat("q", cells, 1, np.arange(10.0))
    out = OpDat("out", cells, 1)
    return cells, edges, e2c, q, out


def copy_kernel():
    def k(src, dst):
        dst[0] = src[0]

    def kv(src, dst):
        dst[:] = src

    return Kernel("copy", k, kv)


class TestParLoopValidation:
    def test_direct_classification(self, world):
        cells, edges, e2c, q, out = world
        loop = ParLoop(
            copy_kernel(),
            "copy",
            cells,
            (op_arg_dat(q, -1, OP_ID, OP_READ), op_arg_dat(out, -1, OP_ID, OP_WRITE)),
        )
        assert loop.is_direct and not loop.is_indirect

    def test_indirect_classification(self, world):
        cells, edges, e2c, q, out = world

        def k(a, b):
            b[0] += a[0]

        loop = ParLoop(
            Kernel("acc", k),
            "acc",
            edges,
            (op_arg_dat(q, 0, e2c, OP_READ), op_arg_dat(out, 1, e2c, OP_INC)),
        )
        assert loop.is_indirect
        assert loop.has_indirect_reduction

    def test_direct_arg_set_mismatch(self, world):
        cells, edges, e2c, q, out = world
        with pytest.raises(Op2Error, match="lives on"):
            ParLoop(
                copy_kernel(),
                "copy",
                edges,
                (op_arg_dat(q, -1, OP_ID, OP_READ), op_arg_dat(out, -1, OP_ID, OP_WRITE)),
            )

    def test_map_from_set_mismatch(self, world):
        cells, edges, e2c, q, out = world
        with pytest.raises(Op2Error, match="starts from"):
            ParLoop(
                copy_kernel(),
                "x",
                cells,
                (op_arg_dat(q, 0, e2c, OP_READ), op_arg_dat(out, -1, OP_ID, OP_WRITE)),
            )

    def test_kernel_arity_checked(self, world):
        cells, edges, e2c, q, out = world
        with pytest.raises(KernelSignatureError):
            ParLoop(copy_kernel(), "copy", cells, (op_arg_dat(q, -1, OP_ID, OP_READ),))

    def test_empty_name_rejected(self, world):
        cells, *_ = world
        with pytest.raises(Op2Error):
            ParLoop(Kernel("k", lambda: None), "", cells, ())

    def test_non_arg_rejected_by_op_par_loop(self, world):
        cells, edges, e2c, q, out = world
        with pytest.raises(Op2Error, match="not an Arg"):
            with op2_session():
                op_par_loop(copy_kernel(), "copy", cells, q)


class TestRuntimeExecution:
    def test_direct_loop_executes(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="seq"):
            op_par_loop(
                copy_kernel(),
                "copy",
                cells,
                op_arg_dat(q, -1, OP_ID, OP_READ),
                op_arg_dat(out, -1, OP_ID, OP_WRITE),
            )
        np.testing.assert_array_equal(out.data, q.data)

    def test_indirect_inc_executes(self, world):
        cells, edges, e2c, q, out = world

        def k(a, b):
            b[0] += a[0]

        def kv(a, b):
            b[:] += a

        with op2_session(backend="seq"):
            op_par_loop(
                Kernel("acc", k, kv),
                "acc",
                edges,
                op_arg_dat(q, 0, e2c, OP_READ),
                op_arg_dat(out, 1, e2c, OP_INC),
            )
        # out[c] accumulates q[c-1] for each edge (c-1 -> c).
        expected = np.zeros((10, 1))
        expected[1:, 0] = np.arange(9.0)
        np.testing.assert_array_equal(out.data, expected)

    def test_global_reduction(self, world):
        cells, edges, e2c, q, out = world
        total = OpGlobal("total", 1)

        def k(a, t):
            t[0] += a[0]

        def kv(a, t):
            t[:, 0] += a[:, 0]

        with op2_session(backend="seq"):
            op_par_loop(
                Kernel("sum", k, kv),
                "sum",
                cells,
                op_arg_dat(q, -1, OP_ID, OP_READ),
                op_arg_gbl(total, OP_INC),
            )
        assert total.value() == pytest.approx(45.0)

    def test_version_bumped_for_written_dats(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="seq"):
            op_par_loop(
                copy_kernel(),
                "copy",
                cells,
                op_arg_dat(q, -1, OP_ID, OP_READ),
                op_arg_dat(out, -1, OP_ID, OP_WRITE),
            )
        assert out.version == 1
        assert q.version == 0


class TestRuntimeBookkeeping:
    def test_loop_log_records_in_order(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="seq") as rt:
            for _ in range(3):
                op_par_loop(
                    copy_kernel(),
                    "copy",
                    cells,
                    op_arg_dat(q, -1, OP_ID, OP_READ),
                    op_arg_dat(out, -1, OP_ID, OP_WRITE),
                )
            loops = rt.log.loops()
        assert [r.loop_id for r in loops] == [0, 1, 2]
        assert all(isinstance(r, LoopRecord) for r in loops)

    def test_plan_cache_reused_across_timesteps(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="seq") as rt:
            for _ in range(5):
                op_par_loop(
                    copy_kernel(),
                    "copy",
                    cells,
                    op_arg_dat(q, -1, OP_ID, OP_READ),
                    op_arg_dat(out, -1, OP_ID, OP_WRITE),
                )
            assert rt.plans.misses == 1
            assert rt.plans.hits == 4

    def test_sync_records_loop_ids(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="hpx_async", num_threads=2) as rt:
            f = op_par_loop(
                copy_kernel(),
                "copy",
                cells,
                op_arg_dat(q, -1, OP_ID, OP_READ),
                op_arg_dat(out, -1, OP_ID, OP_WRITE),
            )
            rt.sync(f)
            syncs = [e for e in rt.log.entries if isinstance(e, SyncRecord)]
        assert syncs and syncs[0].loop_ids == (0,)

    def test_sync_ignores_none(self, world):
        cells, edges, e2c, q, out = world
        with op2_session(backend="seq") as rt:
            rt.sync(None)
            assert not [e for e in rt.log.entries if isinstance(e, SyncRecord)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(Op2Error, match="unknown backend"):
            Op2Runtime(backend="cuda")

    def test_session_restores_previous(self, world):
        with op2_session(backend="seq") as outer:
            assert get_op2_runtime() is outer
            with op2_session(backend="openmp") as inner:
                assert get_op2_runtime() is inner
            assert get_op2_runtime() is outer
