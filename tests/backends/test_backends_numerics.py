"""Cross-backend numerical agreement on the Airfoil application."""

import pytest

from repro.airfoil import AirfoilApp, ReferenceAirfoil
from repro.airfoil.validation import compare_results, compare_states
from repro.backends.registry import available_backends, create_backend, register_backend
from repro.op2 import op2_session
from repro.op2.exceptions import Op2Error

BACKENDS = ["seq", "openmp", "foreach", "foreach_static", "hpx_async", "hpx_dataflow"]
NITER = 3


@pytest.fixture(scope="module")
def reference(small_mesh_module):
    ref = ReferenceAirfoil(small_mesh_module)
    ref.run(NITER)
    return ref


@pytest.fixture(scope="module")
def small_mesh_module():
    from repro.airfoil import generate_mesh

    return generate_mesh(ni=24, nj=10)


class TestRegistry:
    def test_all_builtin_backends_available(self):
        names = available_backends()
        for b in BACKENDS:
            assert b in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(Op2Error):
            create_backend("nonexistent")

    def test_register_custom_backend(self):
        from repro.backends.seq import SeqBackend

        register_backend("custom_seq", SeqBackend)
        assert "custom_seq" in available_backends()
        assert create_backend("custom_seq").name == "seq"


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendMatchesReference:
    def test_state_matches(self, backend, small_mesh_module, reference):
        with op2_session(backend=backend, num_threads=4, block_size=16) as rt:
            app = AirfoilApp(small_mesh_module)
            app.run(rt, NITER)
        diffs = compare_states(app, reference, tol=1e-9)
        assert max(diffs.values()) < 1e-9

    def test_result_matches_reference_result(self, backend, small_mesh_module, reference):
        with op2_session(backend=backend, num_threads=2, block_size=32) as rt:
            app = AirfoilApp(small_mesh_module)
            result = app.run(rt, NITER)
        ref_result = ReferenceAirfoil(small_mesh_module)
        compare_results(result, ref_result.run(NITER), tol=1e-9)


class TestThreadCountInvariance:
    @pytest.mark.parametrize("backend", ["hpx_async", "hpx_dataflow"])
    def test_results_identical_across_worker_counts(self, backend, small_mesh_module):
        norms = []
        for workers in (1, 3, 8):
            with op2_session(backend=backend, num_threads=workers, block_size=16) as rt:
                app = AirfoilApp(small_mesh_module)
                res = app.run(rt, 2)
            norms.append((res.q_norm, res.rms_total))
        assert norms[0] == pytest.approx(norms[1])
        assert norms[0] == pytest.approx(norms[2])


class TestAsyncSemantics:
    def test_async_backend_returns_futures(self, small_mesh_module):
        from repro.hpx.future import Future

        with op2_session(backend="hpx_async", num_threads=2, block_size=16) as rt:
            app = AirfoilApp(small_mesh_module)
            fut = app.loop_save_soln()
            assert isinstance(fut, Future)
            rt.sync(fut)

    def test_dataflow_defers_execution_until_finish(self, small_mesh_module):
        with op2_session(backend="hpx_dataflow", num_threads=2, block_size=16) as rt:
            app = AirfoilApp(small_mesh_module)
            app.loop_save_soln()
            # Not yet guaranteed to have run; finish() forces completion.
            rt.finish()
            assert app.p_qold.version >= 1

    def test_sync_backend_returns_none(self, small_mesh_module):
        with op2_session(backend="openmp", num_threads=2, block_size=16):
            app = AirfoilApp(small_mesh_module)
            assert app.loop_save_soln() is None
