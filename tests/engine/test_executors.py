"""The per-rank engine: bindings validation, executor equivalence, splits.

All three executors run the same (program, bindings) pair through the
byte-identical gather/compute/scatter machinery, so on one address space
their results must match the reference solver — and repeated dependency-
scheduled runs must be bit-identical (static chunking + static fold order).
"""

import numpy as np
import pytest

from repro.airfoil import AirfoilApp, ReferenceAirfoil, generate_mesh
from repro.airfoil.constants import DEFAULT_CONSTANTS
from repro.airfoil.kernels import make_kernels
from repro.dist.app import build_rank_state
from repro.dist.plan import build_dist_plan
from repro.engine import ProgramBindings, airfoil_timestep, make_executor
from repro.engine.executors import (
    DependencyExecutor,
    ForkJoinExecutor,
    SerialExecutor,
)
from repro.engine.program import ExchangeStep, LoopProgram, LoopStep
from repro.hpx.threadpool import ThreadPoolEngine
from repro.op2 import OpGlobal, op2_session
from repro.procs.worker import split_boundary
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


def single_rank_state(mesh):
    """One rank owning the whole mesh: local program, no exchanges."""
    owner = np.zeros(mesh.cells.size, dtype=np.int64)
    dplan = build_dist_plan(mesh, owner)
    kernels = make_kernels(DEFAULT_CONSTANTS)
    freestream = DEFAULT_CONSTANTS.freestream()
    g_qinf = OpGlobal("qinf", 4, freestream)
    return build_rank_state(dplan.plans[0], kernels, g_qinf, freestream)


def run_program(mesh, executor_factory):
    state = single_rank_state(mesh)
    program = airfoil_timestep()
    bindings = ProgramBindings(loops=state.loops)
    bindings.validate_for(program)
    executor = executor_factory()
    for _ in range(NITER):
        executor.run(program, bindings)
    return state


class TestExecutorEquivalence:
    def test_serial_matches_reference(self, mesh, reference):
        state = run_program(mesh, SerialExecutor)
        assert float(np.abs(state.q - reference.q).max()) <= 1e-12
        assert state.rms.value() == pytest.approx(reference.rms, rel=1e-12)

    def test_forkjoin_matches_reference(self, mesh, reference):
        pool = ThreadPoolEngine(2)
        try:
            state = run_program(mesh, lambda: ForkJoinExecutor(pool))
        finally:
            pool.close()
        assert float(np.abs(state.q - reference.q).max()) <= 1e-12

    def test_dependency_matches_reference(self, mesh, reference):
        pool = ThreadPoolEngine(2)
        try:
            state = run_program(mesh, lambda: DependencyExecutor(pool))
        finally:
            pool.close()
        assert float(np.abs(state.q - reference.q).max()) <= 1e-12

    def test_dependency_runs_are_bit_identical(self, mesh):
        results = []
        for _ in range(2):
            pool = ThreadPoolEngine(3)
            try:
                state = run_program(mesh, lambda: DependencyExecutor(pool))
            finally:
                pool.close()
            results.append((state.q.copy(), float(state.rms.value())))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]


class TestSharedDecomposition:
    """The pool executors run loops through the threads-mode runner.

    On the same mesh, block size and width they decompose, execute and fold
    exactly as an ``openmp`` threads-mode session: the same pool tasks per
    timestep and the same bits.
    """

    BLOCK_SIZE = 16
    WIDTH = 2

    @pytest.fixture(scope="class")
    def openmp_session(self, mesh):
        with op2_session(
            backend="openmp",
            num_threads=self.WIDTH,
            block_size=self.BLOCK_SIZE,
            mode="threads",
            num_workers=self.WIDTH,
        ) as rt:
            app = AirfoilApp(mesh)
            app.run(rt, NITER)
        return app, rt.pool_stats.tasks_submitted / NITER

    def engine_run(self, mesh, executor_cls):
        with ThreadPoolEngine(self.WIDTH) as pool:
            state = run_program(
                mesh, lambda: executor_cls(pool, block_size=self.BLOCK_SIZE)
            )
            return state, pool.stats.tasks_submitted / NITER

    def test_forkjoin_matches_openmp_session(self, mesh, openmp_session):
        app, tasks_per_step = openmp_session
        state, engine_tasks = self.engine_run(mesh, ForkJoinExecutor)
        assert engine_tasks == tasks_per_step > 0
        assert np.array_equal(state.q, app.p_q.data)
        assert state.rms.value() == app.g_rms.value()

    def test_dependency_matches_forkjoin(self, mesh):
        fj, fj_tasks = self.engine_run(mesh, ForkJoinExecutor)
        dep, dep_tasks = self.engine_run(mesh, DependencyExecutor)
        assert dep_tasks == fj_tasks > 0
        assert np.array_equal(dep.q, fj.q)
        assert dep.rms.value() == fj.rms.value()


class TestMakeExecutor:
    def test_no_pool_is_serial(self):
        assert isinstance(make_executor("blocking", None), SerialExecutor)
        assert isinstance(make_executor("overlapped", None), SerialExecutor)

    def test_pool_selection(self):
        pool = ThreadPoolEngine(2)
        try:
            assert isinstance(
                make_executor("blocking", pool), ForkJoinExecutor
            )
            assert isinstance(
                make_executor("overlapped", pool), DependencyExecutor
            )
        finally:
            pool.close()


class TestBindingsValidation:
    def test_missing_loop_rejected(self):
        program = LoopProgram("p", (LoopStep("res_calc"),))
        with pytest.raises(ValidationError, match="missing loops"):
            ProgramBindings(loops={}).validate_for(program)

    def test_missing_subset_rejected(self):
        step = LoopStep("res_calc", "interior_edges")
        b = ProgramBindings(loops={})
        with pytest.raises(ValidationError, match="needs subset"):
            b.elements(step)

    def test_exchange_without_transport_rejected(self):
        b = ProgramBindings(loops={})
        with pytest.raises(ValidationError, match="no transport"):
            b.exchange(ExchangeStep("update", "blocking", ("q",)))

    def test_overlapping_partition_rejected(self):
        program = LoopProgram(
            "p", (), partitions={"cells": ("a", "b")}
        )
        b = ProgramBindings(
            loops={},
            subsets={"a": np.array([0, 1]), "b": np.array([1, 2])},
        )
        with pytest.raises(ValidationError, match="overlap"):
            b.validate_for(program)

    def test_incomplete_partition_rejected(self):
        program = LoopProgram(
            "p", (), partitions={"cells": ("a", "b")}
        )
        b = ProgramBindings(
            loops={},
            subsets={"a": np.array([0]), "b": np.array([2])},
            space_sizes={"cells": 4},
        )
        with pytest.raises(ValidationError, match="do not partition"):
            b.validate_for(program)

    def test_exact_partition_accepted(self):
        program = LoopProgram(
            "p", (), partitions={"cells": ("a", "b")}
        )
        ProgramBindings(
            loops={},
            subsets={"a": np.array([3, 0]), "b": np.array([2, 1])},
            space_sizes={"cells": 4},
        ).validate_for(program)


class TestSplitBoundary:
    """The rank-local subset split the overlapped schedule executes against."""

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_split_properties(self, mesh, ranks):
        from repro.dist.partition import cell_centroids, rcb_partition

        owner = rcb_partition(cell_centroids(mesh), ranks)
        dplan = build_dist_plan(mesh, owner)
        for rp in dplan.plans:
            split = split_boundary(rp)
            boundary = split["boundary_cells"]
            interior = split["interior_cells"]
            ext = split["exterior_edges"]
            inte = split["interior_edges"]
            # cells: disjoint, exact cover of the owned rows
            merged = np.sort(np.concatenate([boundary, interior]))
            assert np.array_equal(merged, np.arange(rp.n_owned))
            # edges: disjoint, exact cover of the rank's edges
            emerged = np.sort(np.concatenate([ext, inte]))
            assert np.array_equal(emerged, np.arange(rp.pecell.values.shape[0]))
            # every exported row is boundary (remote increments land there)
            for idx in rp.exports.values():
                assert np.isin(idx, boundary).all()
            # every *owned* endpoint of an exterior edge is boundary, even
            # when no neighbor imports it — the race fixed by this split
            pecell = rp.pecell.values
            owned_ext_endpoints = pecell[ext].ravel()
            owned_ext_endpoints = owned_ext_endpoints[
                owned_ext_endpoints < rp.n_owned
            ]
            assert np.isin(owned_ext_endpoints, boundary).all()
            # interior edges touch no halo rows
            assert (pecell[inte] < rp.n_owned).all()

    def test_some_rank_has_unexported_boundary_endpoint(self, mesh):
        """The subtle case exists on real meshes: a cut edge's owned endpoint
        that no neighbor imports, which still must not update early."""
        from repro.dist.partition import cell_centroids, rcb_partition

        owner = rcb_partition(cell_centroids(mesh), 2)
        dplan = build_dist_plan(mesh, owner)
        extra = 0
        for rp in dplan.plans:
            split = split_boundary(rp)
            exported = (
                np.unique(np.concatenate(list(rp.exports.values())))
                if rp.exports
                else np.empty(0, np.int64)
            )
            extra += int(
                np.setdiff1d(split["boundary_cells"], exported).size
            )
        assert extra > 0
