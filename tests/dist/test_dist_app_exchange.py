"""Tests for halo exchanges and the SPMD distributed Airfoil."""

import numpy as np
import pytest

from repro.airfoil import ReferenceAirfoil, generate_mesh
from repro.airfoil.validation import max_rel_diff
from repro.dist.app import DistAirfoil
from repro.dist.exchange import HaloExchange
from repro.dist.partition import band_partition, cell_centroids, rcb_partition
from repro.dist.plan import build_dist_plan
from repro.util.validate import ValidationError


@pytest.fixture(scope="module")
def mesh():
    return generate_mesh(ni=24, nj=12)


@pytest.fixture(scope="module")
def dplan(mesh):
    return build_dist_plan(mesh, rcb_partition(cell_centroids(mesh), 4))


def rank_arrays(dplan, global_field):
    """Distribute a global (ncells, d) field into per-rank local arrays."""
    out = []
    for p in dplan.plans:
        local = np.zeros((p.n_owned + p.n_halo, global_field.shape[1]))
        local[: p.n_owned] = global_field[p.owned_cells]
        out.append(local)
    return out


class TestHaloUpdate:
    def test_halo_rows_match_owners(self, mesh, dplan):
        field = np.arange(mesh.cells.size, dtype=np.float64)[:, None] * 2.0
        arrays = rank_arrays(dplan, field)
        HaloExchange(dplan).update(arrays)
        for p, arr in zip(dplan.plans, arrays):
            np.testing.assert_array_equal(arr[p.n_owned :], field[p.halo_cells])

    def test_update_idempotent(self, mesh, dplan):
        field = np.random.default_rng(0).random((mesh.cells.size, 3))
        arrays = rank_arrays(dplan, field)
        ex = HaloExchange(dplan)
        ex.update(arrays)
        snapshot = [a.copy() for a in arrays]
        ex.update(arrays)
        for a, b in zip(arrays, snapshot):
            np.testing.assert_array_equal(a, b)

    def test_byte_accounting(self, mesh, dplan):
        field = np.zeros((mesh.cells.size, 4))
        arrays = rank_arrays(dplan, field)
        ex = HaloExchange(dplan)
        ex.update(arrays)
        expected = dplan.total_halo() * 4 * 8
        assert ex.bytes_updated == expected
        assert ex.update_count == 1

    def test_wrong_array_count_rejected(self, dplan):
        with pytest.raises(ValidationError):
            HaloExchange(dplan).update([np.zeros((1, 1))])

    def test_wrong_row_count_rejected(self, dplan):
        arrays = [np.zeros((1, 1)) for _ in dplan.plans]
        with pytest.raises(ValidationError):
            HaloExchange(dplan).update(arrays)


class TestHaloAccumulate:
    def test_contributions_reach_owner_and_halo_zeroed(self, mesh, dplan):
        arrays = rank_arrays(dplan, np.zeros((mesh.cells.size, 1)))
        # Put 1.0 in every halo row everywhere.
        for p, arr in zip(dplan.plans, arrays):
            arr[p.n_owned :] = 1.0
        HaloExchange(dplan).accumulate(arrays)
        # Every halo row zeroed; owners accumulated as many 1s as ranks
        # holding that cell in their halo.
        holders = np.zeros(mesh.cells.size)
        for p in dplan.plans:
            holders[p.halo_cells] += 1.0
        for p, arr in zip(dplan.plans, arrays):
            assert np.all(arr[p.n_owned :] == 0.0)
            np.testing.assert_array_equal(
                arr[: p.n_owned, 0], holders[p.owned_cells]
            )

    def test_update_then_accumulate_round_trip(self, mesh, dplan):
        rng = np.random.default_rng(1)
        field = rng.random((mesh.cells.size, 2))
        arrays = rank_arrays(dplan, field)
        ex = HaloExchange(dplan)
        ex.update(arrays)
        # accumulate adds each halo copy back: owner total = own + k copies.
        ex.accumulate(arrays)
        holders = np.zeros(mesh.cells.size)
        for p in dplan.plans:
            holders[p.halo_cells] += 1.0
        for p, arr in zip(dplan.plans, arrays):
            expected = field[p.owned_cells] * (1.0 + holders[p.owned_cells])[:, None]
            np.testing.assert_allclose(arr[: p.n_owned], expected)


class TestDistAirfoil:
    @pytest.fixture(scope="class")
    def reference(self, mesh):
        ref = ReferenceAirfoil(mesh)
        ref.run(3)
        return ref

    @pytest.mark.parametrize("ranks", [2, 3, 5])
    @pytest.mark.parametrize("partitioner", ["band", "rcb"])
    def test_matches_single_rank_solver(self, mesh, reference, ranks, partitioner):
        dist = DistAirfoil(mesh, ranks, partitioner=partitioner)
        out = dist.run(3)
        assert max_rel_diff(dist.gather_q(), reference.q) < 1e-12
        assert out["rms_total"] == pytest.approx(reference.rms, rel=1e-12)

    def test_gather_fields(self, mesh, reference):
        dist = DistAirfoil(mesh, 4)
        dist.run(3)
        assert max_rel_diff(dist.gather("adt"), reference.adt) < 1e-12
        assert max_rel_diff(dist.gather("qold"), reference.qold) < 1e-12

    def test_exchange_traffic_happens(self, mesh):
        dist = DistAirfoil(mesh, 4)
        dist.run(1)
        assert dist.exchange.bytes_updated > 0
        assert dist.exchange.bytes_accumulated > 0
        # Two updates (q, adt) and one accumulate per inner iteration.
        assert dist.exchange.update_count == 4
        assert dist.exchange.accumulate_count == 2

    def test_exchange_message_counters(self, mesh):
        dist = DistAirfoil(mesh, 4)
        # One message per directed owner->holder pair per exchange call.
        pairs = sum(len(p.imports) for p in dist.dplan.plans)
        dist.run(1)
        assert dist.exchange.messages_updated == 4 * pairs
        assert dist.exchange.messages_accumulated == 2 * pairs
        counters = dist.exchange.comm_counters()
        assert counters["messages_updated"] == dist.exchange.messages_updated
        assert counters["messages_accumulated"] == dist.exchange.messages_accumulated
        assert counters["bytes_updated"] == dist.exchange.bytes_updated
        assert counters["bytes_accumulated"] == dist.exchange.bytes_accumulated

    def test_comm_counters_render_in_timing_summary(self, mesh):
        from repro.obs.timing import TimingSummary

        dist = DistAirfoil(mesh, 2)
        dist.run(1)
        summary = TimingSummary(
            kernels={}, wall=0.0, comm=dist.exchange.comm_counters()
        )
        out = summary.render()
        assert "halo:" in out
        assert "update msg" in out and "accumulate msg" in out

    def test_unknown_partitioner_rejected(self, mesh):
        with pytest.raises(ValidationError):
            DistAirfoil(mesh, 2, partitioner="metis")

    def test_negative_niter_rejected(self, mesh):
        with pytest.raises(ValidationError, match="niter"):
            DistAirfoil(mesh, 2).run(-1)

    def test_rank_count_one_works(self, mesh, reference):
        dist = DistAirfoil(mesh, 1)
        dist.run(3)
        assert max_rel_diff(dist.gather_q(), reference.q) < 1e-12

    def test_more_ranks_than_cells_rejected(self, mesh):
        # A sparse owner labelling implies more ranks than cells exist.
        owner = np.zeros(mesh.cells.size, dtype=np.int64)
        owner[0] = mesh.cells.size  # rank ids 0..ncells -> ncells+1 ranks
        with pytest.raises(ValidationError, match="every rank must own"):
            build_dist_plan(mesh, owner)
        # The partitioners guard the same invariant at their own layer.
        with pytest.raises(ValidationError):
            band_partition(mesh.cells.size, mesh.cells.size + 1)
