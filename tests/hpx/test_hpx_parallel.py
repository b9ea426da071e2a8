"""Tests for repro.hpx.parallel.for_each."""

import pytest

from repro.hpx.chunking import AutoPartitioner, StaticChunkSize
from repro.hpx.future import Future
from repro.hpx.parallel import for_each
from repro.hpx.policies import par, par_task, seq


class TestForEach:
    def test_seq_applies_in_order(self, hpx_rt):
        log = []
        result = for_each(seq, range(5), log.append)
        assert result is None
        assert log == [0, 1, 2, 3, 4]

    def test_par_applies_all(self, hpx_rt):
        hits = [0] * 20
        for_each(par, range(20), lambda i: hits.__setitem__(i, hits[i] + 1))
        assert hits == [1] * 20

    def test_par_joins_before_returning(self, hpx_rt):
        done = []
        for_each(par, range(10), done.append)
        assert sorted(done) == list(range(10))  # complete at return: barrier

    def test_par_task_returns_future(self, hpx_rt):
        done = []
        fut = for_each(par_task, range(10), done.append)
        assert isinstance(fut, Future)
        fut.get()
        assert sorted(done) == list(range(10))

    def test_par_task_defers_work(self, hpx_rt):
        done = []
        fut = for_each(par_task, range(10), done.append)
        assert len(done) < 10  # not all executed before get()
        fut.get()
        assert len(done) == 10

    def test_with_static_chunker(self, hpx_rt):
        done = []
        for_each(par.with_(StaticChunkSize(3)), range(10), done.append)
        assert sorted(done) == list(range(10))

    def test_with_auto_partitioner(self, hpx_rt):
        done = []
        for_each(par.with_(AutoPartitioner()), range(500), done.append)
        assert len(done) == 500

    def test_over_list(self, hpx_rt):
        out = []
        for_each(par, ["a", "b", "c"], out.append)
        assert sorted(out) == ["a", "b", "c"]

    def test_empty_range(self, hpx_rt):
        for_each(par, range(0), lambda i: pytest.fail("must not run"))

    def test_body_exception_propagates(self, hpx_rt):
        def body(i):
            if i == 3:
                raise ValueError("bad element")

        with pytest.raises(ValueError, match="bad element"):
            for_each(par, range(5), body)

    def test_seq_task_flavor_returns_ready_future(self, hpx_rt):
        fut = for_each(par_task.with_(StaticChunkSize(2)), range(4), lambda i: None)
        assert fut.get() is None
