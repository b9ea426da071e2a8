"""End-to-end tests for the rank-per-process driver.

Real OS processes, real shared memory, real pipe messages — validated
bitwise-close against the single-rank reference solver, with the teardown
guarantees (no leaked segments, no surviving children) asserted on both the
success and the failure paths.
"""

import json
import multiprocessing as mp
from pathlib import Path

import numpy as np
import pytest

from repro.airfoil import ReferenceAirfoil, generate_mesh
from repro.procs import (
    ProcsConfig,
    ProcsError,
    leaked_segments,
    run_procs,
)
from repro.util.validate import ValidationError

NITER = 3


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(ni=24, nj=12)


@pytest.fixture(scope="module")
def reference(mesh):
    ref = ReferenceAirfoil(mesh)
    ref.run(NITER)
    return ref


def no_rank_children() -> bool:
    return not any(
        c.name.startswith("procs-rank") for c in mp.active_children()
    )


class TestEquivalence:
    @pytest.mark.parametrize("ranks", [2, 3])
    def test_blocking_matches_reference(self, mesh, reference, ranks):
        res = run_procs(mesh, ProcsConfig(ranks=ranks, niter=NITER))
        assert float(np.abs(res.q - reference.q).max()) <= 1e-12
        assert res.rms_total == pytest.approx(reference.rms, rel=1e-12)
        assert leaked_segments(res.shm_names) == []
        assert no_rank_children()

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_overlapped_matches_reference(self, mesh, reference, ranks):
        res = run_procs(
            mesh, ProcsConfig(ranks=ranks, niter=NITER, schedule="overlapped")
        )
        assert float(np.abs(res.q - reference.q).max()) <= 1e-12
        assert res.rms_total == pytest.approx(reference.rms, rel=1e-12)
        assert leaked_segments(res.shm_names) == []

    def test_band_partitioner(self, mesh, reference):
        res = run_procs(
            mesh, ProcsConfig(ranks=2, niter=NITER, partitioner="band")
        )
        assert float(np.abs(res.q - reference.q).max()) <= 1e-12

    def test_spawn_start_method(self, mesh, reference):
        """Everything shipped to the ranks must survive pickling (spawn)."""
        res = run_procs(
            mesh,
            ProcsConfig(
                ranks=2, niter=NITER, schedule="overlapped", spawn_method="spawn"
            ),
        )
        assert float(np.abs(res.q - reference.q).max()) <= 1e-12
        assert leaked_segments(res.shm_names) == []

    def test_single_rank_degenerates_cleanly(self, mesh, reference):
        res = run_procs(mesh, ProcsConfig(ranks=1, niter=NITER))
        assert float(np.abs(res.q - reference.q).max()) <= 1e-12
        assert res.comm["messages_updated"] == 0
        assert res.fitted_comm is None


class TestAccounting:
    def test_comm_counters_and_wall(self, mesh):
        res = run_procs(mesh, ProcsConfig(ranks=2, niter=2))
        # 2 inner iterations x niter, one update + one accumulate each,
        # 2 directed pairs -> 2*2*2 messages of each kind.
        assert res.comm["messages_updated"] == 8
        assert res.comm["messages_accumulated"] == 8
        assert res.comm["bytes_updated"] > 0
        assert res.wall_seconds > 0.0
        assert res.wall_seconds == max(
            r.wall_seconds for r in res.reports.values()
        )
        # Two iterations may not identify the wire; a fit that is reported
        # is physical.
        fc = res.fitted_comm
        assert fc is None or (fc.latency > 0.0 and fc.bandwidth > 0.0)
        assert res.comm_fit_text() is not None

    def test_timing_summary_merges_ranks(self, mesh):
        res = run_procs(mesh, ProcsConfig(ranks=2, niter=2, timing=True))
        summary = res.timing_summary()
        assert set(summary.kernels) == {
            "save_soln", "adt_calc", "res_calc", "bres_calc", "update",
        }
        # every rank ran every loop: 2 ranks x 2 iters for save_soln
        assert summary.kernels["save_soln"].count == 4
        out = summary.render()
        assert "halo:" in out and "update msg" in out

    def test_trace_written_and_merged(self, mesh, tmp_path):
        res = run_procs(
            mesh, ProcsConfig(ranks=2, niter=2, trace_dir=tmp_path)
        )
        assert res.trace_path is not None
        events = json.loads((tmp_path / "trace.json").read_text())
        lanes = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name"
        }
        assert {"rank 0 / thread 0", "rank 1 / thread 0"} <= lanes
        assert any(e.get("ph") == "X" for e in events)
        # per-rank intermediates exist alongside the merged trace
        assert (tmp_path / "rank0.json").exists()
        assert (tmp_path / "rank1.json").exists()

    @pytest.mark.parametrize("schedule", ["blocking", "overlapped"])
    def test_hybrid_trace_has_worker_lanes(self, mesh, tmp_path, schedule):
        """Hybrid ranks contribute one merged-trace lane per pool worker."""
        res = run_procs(
            mesh,
            ProcsConfig(
                ranks=2,
                niter=2,
                schedule=schedule,
                threads_per_rank=2,
                trace_dir=tmp_path / schedule,
            ),
        )
        events = json.loads(Path(res.trace_path).read_text())
        lanes = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name"
        }
        for rank in (0, 1):
            assert f"rank {rank} / thread 0" in lanes
            # at least one pool-worker lane per rank carried spans
            assert any(
                lane.startswith(f"rank {rank} / thread ")
                and lane != f"rank {rank} / thread 0"
                for lane in lanes
            )
        # every duration event resolves to a declared lane
        tids = {e["args"]["name"] for e in events if e.get("name") == "thread_name"}
        assert len(tids) == len(lanes)

    def test_hybrid_timing_summary_per_thread_busy(self, mesh):
        res = run_procs(
            mesh,
            ProcsConfig(
                ranks=2,
                niter=2,
                schedule="overlapped",
                threads_per_rank=2,
                timing=True,
            ),
        )
        summary = res.timing_summary()
        assert summary.num_workers == 4
        # rank row ranges are disjoint: rank r occupies rows
        # [1 + r*3, 1 + r*3 + 2] for threads_per_rank=2.
        assert all(1 <= row <= 6 for row in summary.busy)
        assert set(summary.kernels) == {
            "save_soln", "adt_calc", "res_calc", "bres_calc", "update",
        }


class TestFailurePropagation:
    def test_injected_failure_propagates_and_cleans(self, mesh):
        with pytest.raises(ProcsError) as excinfo:
            run_procs(
                mesh,
                ProcsConfig(ranks=2, niter=NITER, fail_rank=1, fail_at_iter=1),
            )
        err = excinfo.value
        assert err.rank == 1
        assert "injected failure on rank 1" in str(err)
        assert "RuntimeError" in err.rank_traceback
        assert leaked_segments(err.shm_names) == []
        assert no_rank_children()

    def test_failure_at_first_iteration(self, mesh):
        with pytest.raises(ProcsError) as excinfo:
            run_procs(
                mesh,
                ProcsConfig(ranks=3, niter=NITER, fail_rank=0, fail_at_iter=0),
            )
        assert excinfo.value.rank == 0
        assert leaked_segments(excinfo.value.shm_names) == []
        assert no_rank_children()

    def test_keyboard_interrupt_unlinks_segments(self, mesh, monkeypatch):
        """Ctrl-C during collection must not leak segments or children."""
        from repro.procs import driver as driver_mod

        captured = {}
        real_registry = driver_mod.ShmRegistry

        def capturing(dplan):
            reg = real_registry(dplan)
            captured["names"] = reg.segment_names
            return reg

        monkeypatch.setattr(driver_mod, "ShmRegistry", capturing)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(driver_mod, "_collect", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_procs(mesh, ProcsConfig(ranks=2, niter=NITER))
        assert leaked_segments(captured["names"]) == []
        assert no_rank_children()

    def test_driver_exception_unlinks_segments(self, mesh, monkeypatch):
        """A parent-side crash after the run must still tear everything down."""
        from repro.procs import driver as driver_mod

        captured = {}
        real_registry = driver_mod.ShmRegistry

        def capturing(dplan):
            reg = real_registry(dplan)
            captured["names"] = reg.segment_names
            return reg

        monkeypatch.setattr(driver_mod, "ShmRegistry", capturing)

        def broken(*args, **kwargs):
            raise RuntimeError("driver-side assembly failure")

        monkeypatch.setattr(driver_mod, "_assemble_q", broken)
        with pytest.raises(RuntimeError, match="assembly failure"):
            run_procs(mesh, ProcsConfig(ranks=2, niter=1))
        assert leaked_segments(captured["names"]) == []
        assert no_rank_children()


class TestConfigValidation:
    def test_bad_schedule(self, mesh):
        with pytest.raises(ValidationError, match="schedule"):
            run_procs(mesh, ProcsConfig(ranks=2, schedule="eager"))

    def test_bad_ranks(self, mesh):
        with pytest.raises(ValidationError, match="ranks"):
            run_procs(mesh, ProcsConfig(ranks=0))

    def test_too_many_ranks_for_mesh(self, mesh):
        with pytest.raises(ValidationError, match="cells"):
            run_procs(
                mesh,
                ProcsConfig(ranks=mesh.cells.size + 1, niter=1,
                            partitioner="band"),
            )

    def test_fail_injection_must_be_paired(self, mesh):
        with pytest.raises(ValidationError, match="together"):
            run_procs(mesh, ProcsConfig(ranks=2, fail_rank=0))
        with pytest.raises(ValidationError, match="together"):
            run_procs(mesh, ProcsConfig(ranks=2, fail_at_iter=0))

    def test_fail_rank_out_of_range(self, mesh):
        with pytest.raises(ValidationError, match="out of range"):
            run_procs(
                mesh, ProcsConfig(ranks=2, fail_rank=5, fail_at_iter=0)
            )

    def test_bad_spawn_method(self, mesh):
        with pytest.raises(ValidationError, match="start method"):
            run_procs(mesh, ProcsConfig(ranks=2, spawn_method="teleport"))
