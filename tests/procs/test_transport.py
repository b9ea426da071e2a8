"""Tests for the pipe-based halo transport (single-process loopback).

Both endpoints of every pipe live in this test process, so the nonblocking
halves must be interleaved manually (``start`` on both ranks, then ``wait``
on both) — which is exactly the calling convention the overlapped schedule
exercises. The bulk-synchronous wrappers are equivalence-tested end to end
by the driver tests, where real peer processes sit on the other end.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.airfoil import generate_mesh
from repro.dist.comm import CommModel, fit_comm_model
from repro.dist.exchange import HaloExchange
from repro.dist.partition import band_partition
from repro.dist.plan import build_dist_plan
from repro.procs.transport import HaloTransport, build_channels
from repro.util.validate import ValidationError


@pytest.fixture(scope="module")
def dplan():
    mesh = generate_mesh(ni=24, nj=12)
    return build_dist_plan(mesh, band_partition(mesh.cells.size, 2))


@pytest.fixture()
def transports(dplan):
    channels = build_channels(dplan, mp.get_context())
    ts = [
        HaloTransport(rp.rank, rp.exports, rp.imports, channels[rp.rank])
        for rp in dplan.plans
    ]
    yield ts
    for ch in channels:
        ch.close()


def rank_arrays(dplan, global_field):
    out = []
    for p in dplan.plans:
        local = np.zeros((p.n_owned + p.n_halo, global_field.shape[1]))
        local[: p.n_owned] = global_field[p.owned_cells]
        out.append(local)
    return out


class TestUpdate:
    def test_halo_rows_match_owners(self, dplan, transports):
        ncells = sum(p.n_owned for p in dplan.plans)
        field = np.arange(ncells, dtype=np.float64)[:, None] * 2.0
        arrays = rank_arrays(dplan, field)
        for t, a in zip(transports, arrays):
            t.update_start([a])
        for t, a, p in zip(transports, arrays, dplan.plans):
            t.update_wait([a])
            np.testing.assert_array_equal(a[p.n_owned :], field[p.halo_cells])

    def test_multi_field_packing(self, dplan, transports):
        """q (4 cols) and adt (1 col) travel as ONE message per neighbor."""
        ncells = sum(p.n_owned for p in dplan.plans)
        rng = np.random.default_rng(0)
        q_glob = rng.random((ncells, 4))
        adt_glob = rng.random((ncells, 1))
        qs = rank_arrays(dplan, q_glob)
        adts = rank_arrays(dplan, adt_glob)
        for t, q, adt in zip(transports, qs, adts):
            t.update_start([q, adt])
        for t, q, adt, p in zip(transports, qs, adts, dplan.plans):
            t.update_wait([q, adt])
            np.testing.assert_array_equal(q[p.n_owned :], q_glob[p.halo_cells])
            np.testing.assert_array_equal(adt[p.n_owned :], adt_glob[p.halo_cells])
        # one message per directed pair, 5 columns worth of bytes
        for t, p in zip(transports, dplan.plans):
            assert t.messages_updated == len(p.exports)
            expected = sum(len(idx) for idx in p.exports.values()) * 5 * 8
            assert t.bytes_updated == expected

    def test_matches_simulated_exchange_counters(self, dplan, transports):
        """Byte accounting agrees with the in-process HaloExchange."""
        ncells = sum(p.n_owned for p in dplan.plans)
        field = np.ones((ncells, 4))
        sim = HaloExchange(dplan)
        sim_arrays = rank_arrays(dplan, field)
        sim.update(sim_arrays)
        arrays = rank_arrays(dplan, field)
        for t, a in zip(transports, arrays):
            t.update_start([a])
        for t, a in zip(transports, arrays):
            t.update_wait([a])
        assert sum(t.bytes_updated for t in transports) == sim.bytes_updated
        assert (
            sum(t.messages_updated for t in transports) == sim.messages_updated
        )


class TestAccumulate:
    def test_contributions_reach_owner_and_halo_zeroed(self, dplan, transports):
        ncells = sum(p.n_owned for p in dplan.plans)
        arrays = rank_arrays(dplan, np.zeros((ncells, 1)))
        for p, a in zip(dplan.plans, arrays):
            a[p.n_owned :] = 1.0
        for t, a in zip(transports, arrays):
            t.accumulate_start([a])
        holders = np.zeros(ncells)
        for p in dplan.plans:
            holders[p.halo_cells] += 1.0
        for t, a, p in zip(transports, arrays, dplan.plans):
            t.accumulate_wait([a])
            assert np.all(a[p.n_owned :] == 0.0)
            np.testing.assert_array_equal(a[: p.n_owned, 0], holders[p.owned_cells])


class TestProtocol:
    def test_double_start_rejected(self, dplan, transports):
        a = [np.zeros((p.n_owned + p.n_halo, 1)) for p in dplan.plans]
        transports[0].update_start([a[0]])
        with pytest.raises(ValidationError, match="already in flight"):
            transports[0].update_start([a[0]])
        transports[1].update_start([a[1]])
        for t, arr in zip(transports, a):
            t.update_wait([arr])

    def test_wait_without_start_rejected(self, transports):
        with pytest.raises(ValidationError, match="no update exchange"):
            transports[0].update_wait([np.zeros((1, 1))])
        with pytest.raises(ValidationError, match="no accumulate exchange"):
            transports[0].accumulate_wait([np.zeros((1, 1))])

    def test_wrong_rank_channels_rejected(self, dplan):
        channels = build_channels(dplan, mp.get_context())
        try:
            rp = dplan.plans[0]
            with pytest.raises(ValidationError, match="belong to rank"):
                HaloTransport(1, rp.exports, rp.imports, channels[0])
        finally:
            for ch in channels:
                ch.close()

    def test_message_records_have_latency(self, dplan, transports):
        a = [np.zeros((p.n_owned + p.n_halo, 2)) for p in dplan.plans]
        for t, arr in zip(transports, a):
            t.update_start([arr])
        for t, arr in zip(transports, a):
            t.update_wait([arr])
        log = transports[0].message_log()
        assert len(log) == len(dplan.plans[0].imports)
        for nbytes, latency in log:
            assert nbytes > 0
            assert latency >= 0.0


class TestCommModelFit:
    def test_fit_recovers_alpha_beta(self):
        # t_us = 25 + n / 500  ->  latency 25 us, bandwidth 500 MB/s
        sizes = [1000, 2000, 4000, 8000, 16000]
        secs = [(25.0 + n / 500.0) * 1e-6 for n in sizes]
        model = fit_comm_model(sizes, secs)
        assert model.latency == pytest.approx(25.0, rel=1e-6)
        assert model.bandwidth == pytest.approx(500.0, rel=1e-6)

    def test_fit_single_size_degrades_to_latency_only(self):
        model = fit_comm_model([4096, 4096], [10e-6, 12e-6])
        assert model.latency == pytest.approx(11.0, rel=1e-6)
        assert model.bandwidth == CommModel().bandwidth

    def test_fit_with_negative_intercept_is_not_identifiable(self):
        # Time grows faster than linearly with size (larger messages queue
        # behind each other), so the fitted line crosses zero before n = 0.
        sizes = [100, 200, 400, 800, 1600]
        secs = [t * 1e-6 for t in (1.0, 3.0, 7.0, 20.0, 60.0)]
        assert fit_comm_model(sizes, secs) is None

    def test_fit_with_negative_slope_is_not_identifiable(self):
        sizes = [1000, 2000, 4000]
        secs = [30e-6, 20e-6, 10e-6]
        assert fit_comm_model(sizes, secs) is None

    def test_fit_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            fit_comm_model([], [])
        with pytest.raises(ValidationError):
            fit_comm_model([1, 2], [1e-6])
