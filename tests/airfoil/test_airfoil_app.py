"""Tests for the Airfoil application driver and the numpy reference."""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, ReferenceAirfoil, generate_mesh
from repro.airfoil.app import INNER_ITERS
from repro.airfoil.validation import compare_results, compare_states, max_rel_diff
from repro.op2 import op2_session
from repro.util.validate import ValidationError


class TestReferenceSolver:
    def test_rms_accumulates_monotonically(self, small_mesh):
        ref = ReferenceAirfoil(small_mesh)
        prev = 0.0
        for _ in range(4):
            ref.step()
            assert ref.rms > prev
            prev = ref.rms

    def test_solution_stays_finite(self, small_mesh):
        ref = ReferenceAirfoil(small_mesh)
        res = ref.run(30)
        assert np.isfinite(res.q_norm)
        assert np.isfinite(res.rms_total)

    def test_transient_decays(self):
        # Per-step residual increments should shrink as the impulsive-start
        # transient settles: the scheme is stable on the generated mesh.
        mesh = generate_mesh(ni=32, nj=16)
        ref = ReferenceAirfoil(mesh)
        increments = []
        prev = 0.0
        for _ in range(40):
            ref.step()
            increments.append(ref.rms - prev)
            prev = ref.rms
        assert np.mean(increments[-5:]) < np.mean(increments[:5])

    def test_history_length(self, small_mesh):
        res = ReferenceAirfoil(small_mesh).run(5)
        assert len(res.rms_history) == 5
        assert res.iterations == 5

    def test_uniform_interior_residual_zero(self, small_mesh):
        # Before any update, with uniform freestream, interior cells (away
        # from both boundaries) must have exactly telescoping fluxes.
        ref = ReferenceAirfoil(small_mesh)
        ref._adt_calc()
        ref._res_calc()
        ni, nj = small_mesh.ni, small_mesh.nj
        res = ref.res.reshape(nj, ni, 4)
        interior = res[1 : nj - 1]
        assert np.max(np.abs(interior)) < 1e-12


class TestAirfoilApp:
    def test_final_rms_normalization(self, small_mesh):
        with op2_session(backend="seq", block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            res = app.run(rt, 2)
        expected = np.sqrt(res.rms_total / small_mesh.cells.size)
        assert res.final_rms(small_mesh.cells.size) == pytest.approx(expected)

    def test_sync_backend_collects_history(self, small_mesh):
        with op2_session(backend="openmp", block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            res = app.run(rt, 3)
        assert len(res.rms_history) == 3
        assert res.rms_history == sorted(res.rms_history)

    def test_async_backend_skips_history(self, small_mesh):
        with op2_session(backend="hpx_dataflow", num_threads=2, block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            res = app.run(rt, 2)
        assert res.rms_history == []

    def test_loop_count_per_step(self, small_mesh):
        with op2_session(backend="seq", block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            app.run(rt, 2)
            loops = rt.log.loops()
        per_step = 1 + INNER_ITERS * 4
        assert len(loops) == 2 * per_step
        assert loops[0].loop.name == "save_soln"
        assert loops[1].loop.name == "adt_calc"

    def test_negative_niter_rejected(self, small_mesh):
        with op2_session(backend="seq", block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            with pytest.raises(ValidationError, match="niter"):
                app.run(rt, -1)


class TestValidationHelpers:
    def test_max_rel_diff_zero_for_identical(self):
        a = np.ones((3, 2))
        assert max_rel_diff(a, a.copy()) == 0.0

    def test_max_rel_diff_scales_by_magnitude(self):
        a = np.array([100.0, 0.0])
        b = np.array([100.0, 1.0])
        assert max_rel_diff(a, b) == pytest.approx(0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            max_rel_diff(np.ones(3), np.ones(4))

    def test_compare_states_raises_beyond_tol(self, small_mesh):
        with op2_session(backend="seq", block_size=32) as rt:
            app = AirfoilApp(small_mesh)
            app.run(rt, 1)
        ref = ReferenceAirfoil(small_mesh)
        ref.run(1)
        app.p_q.data[0, 0] += 1.0
        with pytest.raises(ValidationError, match="deviates"):
            compare_states(app, ref, tol=1e-9)

    def test_compare_results_iteration_mismatch(self, small_mesh):
        ref = ReferenceAirfoil(small_mesh)
        a = ref.run(1)
        ref2 = ReferenceAirfoil(small_mesh)
        b = ref2.run(2)
        with pytest.raises(ValidationError, match="iteration"):
            compare_results(a, b)
