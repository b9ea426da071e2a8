"""Dependency-scheduled threads mode: fewer joins, same bits.

The async/dataflow backends run measured loops through
:class:`repro.backends.scheduling.LoopScheduler`: chunks are released the
moment their producer blocks finish (``submit_after``), so the per-color
fork-join barrier of the ``for_each`` shape disappears from the pool's join
counters — while the computed solution stays bit-identical to the sequential
reference. These tests pin both halves of that claim, plus the satellite
fixes that ride along (single version bump per writing loop, honored
dynamic self-scheduling).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.airfoil import AirfoilApp
from repro.apps.heat import HeatApp
from repro.op2 import op2_session

WORKERS = 4
NITER = 3
STATE_DATS = ["p_q", "p_qold", "p_res", "p_adt"]
TOL = 1e-12


def _run_airfoil(mesh, backend, *, backend_options=None, **session_kwargs):
    with op2_session(
        backend=backend,
        num_threads=WORKERS,
        block_size=16,
        mode="threads",
        num_workers=WORKERS,
        backend_options=backend_options,
        **session_kwargs,
    ) as rt:
        app = AirfoilApp(mesh)
        result = app.run(rt, NITER)
    state = {name: getattr(app, name).data.copy() for name in STATE_DATS}
    return state, result, rt.pool_stats


def _seq_airfoil(mesh):
    with op2_session(backend="seq", num_threads=1, block_size=16) as rt:
        app = AirfoilApp(mesh)
        result = app.run(rt, NITER)
    return {name: getattr(app, name).data.copy() for name in STATE_DATS}, result


def _assert_matches_seq(state, seq_state, label):
    for name in STATE_DATS:
        err = float(np.abs(state[name] - seq_state[name]).max())
        assert err <= TOL, f"{label}: {name} deviates from seq by {err}"


class TestJoinElimination:
    @pytest.fixture(scope="class")
    def runs(self, tiny_mesh):
        out = {}
        for backend in ["foreach", "hpx_async", "hpx_dataflow"]:
            out[backend] = _run_airfoil(tiny_mesh, backend)
        out["seq"] = _seq_airfoil(tiny_mesh)
        return out

    def test_scheduled_backends_match_seq(self, runs):
        seq_state, seq_result = runs["seq"]
        for backend in ["hpx_async", "hpx_dataflow"]:
            state, result, _ = runs[backend]
            _assert_matches_seq(state, seq_state, backend)
            assert result.rms_total == pytest.approx(seq_result.rms_total, abs=TOL)

    def test_dataflow_joins_strictly_fewer_than_foreach(self, runs):
        _, _, foreach = runs["foreach"]
        _, _, dataflow = runs["hpx_dataflow"]
        _, _, hpx_async = runs["hpx_async"]
        assert dataflow.joins < foreach.joins
        assert hpx_async.joins < foreach.joins
        # Dataflow needs no per-loop sync at all: only the app's explicit
        # finish/global reads block, so it joins less than async too.
        assert dataflow.joins <= hpx_async.joins

    def test_scheduled_backends_never_color_join(self, runs):
        for backend in ["hpx_async", "hpx_dataflow"]:
            _, _, stats = runs[backend]
            assert stats.color_joins == 0, backend
            assert stats.batches == 0, backend
            assert stats.tasks_submitted > 0, backend

    def test_foreach_pays_one_join_per_color(self, runs):
        _, _, stats = runs["foreach"]
        assert stats.color_joins > 0
        assert stats.batches >= stats.color_joins


class TestHeatConformance:
    """Satellite: the conformance net also covers the second application."""

    @pytest.mark.parametrize("backend", ["hpx_async", "hpx_dataflow"])
    def test_heat_scheduled_threads_matches_seq(self, backend, tiny_mesh):
        def run(name, mode_kwargs):
            with op2_session(backend=name, num_threads=WORKERS, **mode_kwargs) as rt:
                app = HeatApp(tiny_mesh)
                result = app.run(rt, max_steps=30, tol=0.0, check_every=10)
            return app.t.data.copy(), result

        seq_t, seq_res = run("seq", {})
        t, res = run(
            backend,
            {"block_size": 16, "mode": "threads", "num_workers": WORKERS},
        )
        assert float(np.abs(t - seq_t).max()) <= TOL
        assert res.total_energy == pytest.approx(seq_res.total_energy, abs=1e-9)
        assert res.steps == seq_res.steps


class TestOverlap:
    def test_consumer_chunk_waits_on_producer_subset(self, tiny_mesh):
        """Some consumer chunk waits on a strict subset of its producer's chunks.

        Under fork-join every loop fully drains before the next starts;
        block-refined dependency scheduling releases a consumer chunk as soon
        as the producer chunks that touched its rows are done, so it can
        start while the producer's other chunks still run. Asserted on the
        recorded task graph: wall-clock overlap depends on host load.
        """
        with op2_session(
            backend="hpx_dataflow",
            num_threads=WORKERS,
            block_size=16,
            mode="threads",
            num_workers=WORKERS,
        ) as rt:
            rt.thread_pool.keep_history = True
            app = AirfoilApp(tiny_mesh)
            for step in app.program:
                getattr(app, f"loop_{step.name}")()
            # Snapshot before the session's finish() clears the handles.
            handles = list(rt.backend._sched.handles.values())
        early = []
        for i, consumer in enumerate(handles):
            for producer in handles[:i]:
                chunks = {id(t) for t in producer.block_task.values()}
                for task in consumer.block_task.values():
                    waited = {id(d) for d in task.deps} & chunks
                    if waited and waited != chunks and producer.final not in task.deps:
                        early.append((producer.rec.loop.name, consumer.rec.loop.name))
        assert early, "no consumer chunk can start before its producer finishes"


class TestSessionLifetime:
    @pytest.mark.parametrize("backend", ["hpx_async", "hpx_dataflow"])
    def test_finished_session_freed_without_gc(self, backend, tiny_mesh):
        """No runtime -> backend -> scheduler -> runtime cycle: a finished
        session's dats and maps go with its last reference, not at the next
        garbage collection (repeated sessions otherwise grow the heap)."""
        gc.collect()
        gc.disable()
        try:
            with op2_session(
                backend=backend, num_threads=2, block_size=16, mode="threads", num_workers=2
            ) as rt:
                AirfoilApp(tiny_mesh).run(rt, 1)
            ref = weakref.ref(rt)
            del rt
            assert ref() is None
        finally:
            gc.enable()


class TestVersionBumps:
    """Satellite regression: one completed writing loop = one version bump.

    The heat flux loop names the same dat in *two* INC args (both columns of
    the edge->cell map); the version must still advance by exactly one.
    """

    @pytest.mark.parametrize(
        "backend,mode_kwargs",
        [
            ("seq", {}),
            ("openmp", {"mode": "threads", "num_workers": 2, "block_size": 16}),
            ("hpx_dataflow", {"mode": "threads", "num_workers": 2, "block_size": 16}),
        ],
    )
    def test_double_arg_dat_bumps_once(self, backend, mode_kwargs, tiny_mesh):
        with op2_session(backend=backend, num_threads=2, **mode_kwargs) as rt:
            app = HeatApp(tiny_mesh)
            rt.finish()
            before = app.flux.version
            f = app.loop_flux()
            rt.sync(f)
            rt.finish()
            assert app.flux.version == before + 1, backend


class TestDynamicSchedule:
    def test_dynamic_self_scheduling_bit_matches_static(self, tiny_mesh):
        """``schedule(dynamic)``: workers pull chunks from a shared index.

        Completion order changes; the decomposition and the fold order do
        not, so the two schedules must agree to the last bit.
        """
        static_state, static_result, _ = _run_airfoil(
            tiny_mesh, "foreach_static", backend_options={"static_chunk": 3}
        )
        dynamic_state, dynamic_result, dyn_stats = _run_airfoil(
            tiny_mesh,
            "foreach_static",
            backend_options={"static_chunk": 3, "dynamic_schedule": True},
        )
        for name in STATE_DATS:
            assert np.array_equal(static_state[name], dynamic_state[name]), name
        assert static_result.rms_total == dynamic_result.rms_total
        assert static_result.q_norm == dynamic_result.q_norm
        assert dyn_stats.tasks_submitted > 0
