"""Micro-benchmarks of the substrate components.

Not a paper figure — these keep the building blocks honest: the simulation
engine's event throughput, plan construction, block-dependence refinement,
the cooperative executor, and the futures/dataflow layer.
"""

import pytest

from benchmarks.conftest import PAPER_CONFIG
from repro.backends.blockdeps import block_dependencies, dependency_edge_count, hazard_dats
from repro.backends.costs import LoopCostModel
from repro.engine import airfoil_timestep
from repro.experiments.runner import run_backend
from repro.hpx.dataflow import dataflow, unwrapped
from repro.hpx.executor import TaskExecutor
from repro.hpx.runtime import HPXRuntime, set_runtime
from repro.op2.deps import DatDependencyTracker
from repro.op2.plan import build_plan
from repro.sim.engine import SimulationEngine
from repro.sim.task import TaskGraph


@pytest.fixture(scope="module")
def dataflow_run(paper_mesh):
    return run_backend("hpx_dataflow", PAPER_CONFIG, paper_mesh, validate=False)


def test_engine_event_throughput(benchmark):
    """Schedule 20k independent tasks on 32 threads."""
    g = TaskGraph()
    for i in range(20_000):
        g.add(f"t{i}", 1.0)
    engine = SimulationEngine(PAPER_CONFIG.machine, 32)
    result = benchmark.pedantic(
        lambda: engine.run(g, collect_trace=False), rounds=3, iterations=1
    )
    benchmark.extra_info["tasks"] = result.tasks_executed
    assert result.tasks_executed == 20_000


def test_plan_construction(benchmark, paper_mesh):
    """Blocking + conflict coloring for the res_calc loop shape."""
    from repro.op2 import OP_INC, OpDat, op_arg_dat

    res = OpDat("res", paper_mesh.cells, 4)
    args = [
        op_arg_dat(res, 0, paper_mesh.pecell, OP_INC),
        op_arg_dat(res, 1, paper_mesh.pecell, OP_INC),
    ]
    plan = benchmark.pedantic(
        lambda: build_plan(paper_mesh.edges, args, PAPER_CONFIG.block_size),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["nblocks"] = plan.nblocks
    benchmark.extra_info["ncolors"] = plan.ncolors
    # 240x192 paper mesh at block size 128: a changed colouring fails here.
    assert (plan.nblocks, plan.ncolors) == (719, 6)


def _timestep_hazard_pairs(records):
    """(producer, consumer, dat) for every hazard the scheduler's tracker names
    for the last timestep's loops, producers in the timestep before included."""
    per_step = len(airfoil_timestep())
    window = records[-2 * per_step :]
    tracker: DatDependencyTracker[int] = DatDependencyTracker(ordered_increments=True)
    by_id = {rec.loop_id: rec for rec in window}
    pairs = []
    for i, rec in enumerate(window):
        deps = tracker.dependencies(list(rec.loop.args), token=rec.loop_id)
        if i >= len(window) - per_step:
            pairs += [(by_id[d], rec, dat) for d in deps for dat in hazard_dats(by_id[d], rec)]
    return pairs


def test_blockdep_refinement(benchmark, dataflow_run):
    """Cold block-level dependences for every hazard pair of one timestep."""
    pairs = _timestep_hazard_pairs(list(dataflow_run.log.loops()))
    relations = benchmark.pedantic(
        lambda: [block_dependencies(p, c, dat) for p, c, dat in pairs],
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["pairs"] = len(pairs)
    benchmark.extra_info["edges"] = sum(dependency_edge_count(d) for d in relations)


def test_dataflow_emission(benchmark, dataflow_run):
    """Full task-graph emission for the dataflow backend at 32 threads."""
    cm = LoopCostModel(jitter=PAPER_CONFIG.cost_jitter)
    graph = benchmark.pedantic(
        lambda: dataflow_run.runtime.backend.emit(
            dataflow_run.log, PAPER_CONFIG.machine, 32, cm
        ),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["tasks"] = len(graph)


def test_executor_task_throughput(benchmark):
    """Spawn + drain 10k no-op tasks on the cooperative executor."""

    def run():
        ex = TaskExecutor(8)
        for _ in range(10_000):
            ex.post(lambda: None)
        ex.drain()
        return ex.stats.tasks_executed

    executed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert executed == 10_000


def test_dataflow_chain_overhead(benchmark):
    """1000-node dataflow dependency chain through the futures layer."""

    def run():
        rt = HPXRuntime(4)
        prev = set_runtime(rt)
        try:
            value = dataflow(lambda: 0)
            for _ in range(1000):
                value = dataflow(unwrapped(lambda v: v + 1), value)
            return value.get()
        finally:
            set_runtime(prev)

    assert benchmark.pedantic(run, rounds=3, iterations=1) == 1000
