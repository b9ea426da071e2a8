"""Oracle for the threads runner's chunk body: one selection, one call.

A pool task executes its chunk as a single ``execute_loop`` over
``chunk.elements``. For a colored loop those elements come from several
same-color plan blocks, and the result must be *bit-identical* to running
the chunk's blocks one by one in ``chunk.blocks`` order: same-color blocks
increment disjoint rows and ``np.add.at`` applies increments in index
order, so every row gets the same increments in the same order.

Covered: every colored loop of the three apps — Airfoil ``res_calc`` and
``bres_calc``, heat's ``flux``, shallow water's ``sw_flux`` and
``sw_bflux`` — over every chunker family and worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends.threaded as threaded
from repro.airfoil import AirfoilApp, generate_mesh
from repro.apps.heat import HeatApp
from repro.apps.shallow_water import ShallowWaterApp
from repro.backends.base import execute_loop
from repro.backends.threaded import color_chunks, run_chunk
from repro.hpx.chunking import AutoPartitioner, GuessChunkSize, StaticChunkSize
from repro.op2 import runtime as op2_runtime
from repro.op2.plan import DEFAULT_BLOCK_SIZE, build_plan

MESHES = [(48, 24), (240, 120)]
#: (mesh, plan block size): the runner's default blocks on both meshes, and
#: small blocks so the boundary loops get several blocks per color too.
CASES = [((48, 24), DEFAULT_BLOCK_SIZE), ((48, 24), 16), ((240, 120), DEFAULT_BLOCK_SIZE)]
LOOPS = ["res_calc", "bres_calc", "flux", "sw_flux", "sw_bflux"]
CHUNKERS = {
    "guess": GuessChunkSize,
    "static2": lambda: StaticChunkSize(2),
    "auto": AutoPartitioner,
}
WORKERS = [1, 2, 3]


class _Capture:
    """Stands in for the OP2 runtime: ``op_par_loop`` returns the loop."""

    @staticmethod
    def par_loop(loop):
        return loop


@pytest.fixture(scope="module")
def meshes():
    return {shape: generate_mesh(*shape) for shape in MESHES}


def _loop_and_state(mesh, name, monkeypatch):
    """The named loop over perturbed state, so increments are not trivial."""
    rng = np.random.default_rng(7)
    if name in ("res_calc", "bres_calc"):
        app = AirfoilApp(mesh)
        app.p_q.data[:] *= 1.0 + 0.05 * rng.standard_normal(app.p_q.data.shape)
        app.p_adt.data[:] = rng.uniform(0.5, 1.5, app.p_adt.data.shape)
        app.p_res.data[:] = rng.standard_normal(app.p_res.data.shape)
        make = app.loop_res_calc if name == "res_calc" else app.loop_bres_calc
    elif name == "flux":
        app = HeatApp(mesh)
        app.t.data[:] = rng.uniform(0.0, 1.0, app.t.data.shape)
        app.flux.data[:] = rng.standard_normal(app.flux.data.shape)
        make = app.loop_flux
    else:
        app = ShallowWaterApp(mesh)
        app.u.data[:, 1:] = 0.1 * rng.standard_normal(app.u.data[:, 1:].shape)
        app.res.data[:] = rng.standard_normal(app.res.data.shape)
        make = app.loop_flux if name == "sw_flux" else app.loop_bflux
    with monkeypatch.context() as m:
        m.setattr(op2_runtime, "get_op2_runtime", lambda: _Capture)
        loop = make()
    written = {id(a.dat): a.dat for a in loop.args if not a.is_global and a.access.writes}
    return loop, list(written.values())


def _chunks(plan, chunker, workers):
    """Every chunk in run order; an auto prefix is timed at a fixed cost."""
    out = []

    def measure(_ci, chunk):
        out.append(chunk)
        return 1e-4

    for _ci, chunks in color_chunks(plan, chunker, workers, measure=measure):
        out.extend(chunks)
    return out


@pytest.mark.parametrize(
    "shape,block_size", CASES, ids=[f"{ni}x{nj}-b{bs}" for (ni, nj), bs in CASES]
)
@pytest.mark.parametrize("name", LOOPS)
def test_chunk_body_bit_matches_block_by_block(
    meshes, shape, block_size, name, monkeypatch
):
    loop, written = _loop_and_state(meshes[shape], name, monkeypatch)
    plan = build_plan(loop.set_, list(loop.args), block_size)
    assert plan.colored
    initial = [d.data.copy() for d in written]

    def run(body) -> list[np.ndarray]:
        for d, init in zip(written, initial):
            d.data[:] = init
        for chunk in chunks:
            body(chunk)
        return [d.data.copy() for d in written]

    def by_blocks(chunk) -> None:
        for b in chunk.blocks:
            execute_loop(loop, plan.block_elements(b), global_sink=[], bump_versions=False)

    for kind, make_chunker in CHUNKERS.items():
        for workers in WORKERS:
            chunks = _chunks(plan, make_chunker(), workers)
            got = run(lambda c: run_chunk(loop, c))
            want = run(by_blocks)
            for d, g, w in zip(written, got, want):
                assert np.array_equal(g, w), f"{name} {kind} w={workers}: {d.name}"
            assert not np.array_equal(want[0], initial[0])


@pytest.mark.parametrize("name", LOOPS)
def test_one_execute_loop_call_per_chunk(meshes, name, monkeypatch):
    loop, _ = _loop_and_state(meshes[(240, 120)], name, monkeypatch)
    plan = build_plan(loop.set_, list(loop.args))
    calls = []

    def counting(loop, elements=None, *args, **kwargs):
        calls.append(elements)
        return execute_loop(loop, elements, *args, **kwargs)

    monkeypatch.setattr(threaded, "execute_loop", counting)
    chunks = _chunks(plan, GuessChunkSize(), 2)
    for chunk in chunks:
        run_chunk(loop, chunk)
    assert len(calls) == len(chunks)
    # Colored whole-set chunks are views of the plan's class order.
    assert all(
        isinstance(e, np.ndarray) and e.base is plan.order for e in calls
    )
