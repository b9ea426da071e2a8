"""The six workloads and the names and units of every metric.

Mesh sizes and steps-per-sample are frozen here (``BENCHMARK.json`` has no
field for them); a change to either is a change to the benchmark and needs
a fresh baseline. ``BENCHMARK.json`` repeats the names, units and bounds;
``test_perf_harness.py`` checks the two agree.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

from repro.airfoil import FlowConstants

LOOPS = ("save_soln", "adt_calc", "res_calc", "bres_calc", "update")

#: max |q - q_ref| a sample may show and still count as correct.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    """One measured configuration on one fixed mesh."""

    name: str
    why: str
    #: "threads" (an op2 session, ``mode="threads"``) or "procs" (``run_procs``).
    kind: str
    #: backend registry name (threads) or halo schedule (procs).
    variant: str
    #: worker threads (threads) or rank processes (procs).
    width: int
    ni: int
    nj: int
    #: K: timesteps per sample, sized so that a sample lasts at least 0.3 s
    #: (0.5 s for procs) on the baseline host.
    steps: int
    #: what the interleaved baseline is: ``ReferenceAirfoil`` or the ``seq`` backend.
    baseline: str

    @property
    def ncells(self) -> int:
        return self.ni * self.nj

    def scaled(self, ni: int, nj: int, steps: int) -> "Workload":
        """The same configuration on another mesh (the smoke tests' tiny meshes)."""
        return replace(self, ni=ni, nj=nj, steps=steps)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "seq_large",
        "seq backend, 64.8k cells (past L2): kernel arithmetic and gather/scatter are all the work",
        "threads", "seq", 1, 360, 180, 3, "reference",
    ),
    Workload(
        "seq_small",
        "seq backend, 1,152 cells (cache-resident): per-call op_par_loop and plan-cache costs dominate",
        "threads", "seq", 1, 48, 24, 200, "reference",
    ),
    Workload(
        "forkjoin_2w",
        "openmp backend, 2 worker threads, 28.8k cells: pool dispatch and one join per colour",
        "threads", "openmp", 2, 240, 120, 4, "seq",
    ),
    Workload(
        "dataflow_2w",
        "hpx_dataflow backend, 2 worker threads, same mesh: per-call dependency derivation, no joins",
        "threads", "hpx_dataflow", 2, 240, 120, 4, "seq",
    ),
    Workload(
        "halo_blocking_2r",
        "run_procs, 2 rank processes, blocking halo exchange, 8x800 mesh with 32 kB messages",
        "procs", "blocking", 2, 8, 800, 110, "seq",
    ),
    Workload(
        "halo_overlapped_2r",
        "same mesh and ranks, start/wait exchange with interior compute in between",
        "procs", "overlapped", 2, 8, 800, 110, "seq",
    ),
)


def workload_by_name(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; have {[w.name for w in WORKLOADS]}")


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def effective_width(workload: Workload) -> int:
    """Never more than ``min(2, usable cores)`` worker threads or ranks."""
    return max(1, min(workload.width, 2, usable_cores()))


def constants_for(seed: int) -> FlowConstants:
    """``--seed`` perturbs only the flow: mach within +-2 %, alpha in [0, 3] degrees."""
    rng = random.Random(seed)
    base = FlowConstants()
    return FlowConstants(
        mach=base.mach * (1.0 + rng.uniform(-0.02, 0.02)),
        alpha_deg=rng.uniform(0.0, 3.0),
    )


END_TO_END_UNITS: dict[str, str] = {
    "cell_iters_per_s": "1/s",
    "vs_baseline": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_POOL_COUNTERS = ("tasks", "batches", "joins", "color_joins")

PER_LAYER_UNITS: dict[str, str] = {
    "airfoil.meshgen.build_ms": "ms",
    **{f"airfoil.kernels.{name}.ms": "ms" for name in LOOPS},
    "airfoil.kernels.step_ms": "ms",
    "airfoil.reference.step_ms": "ms",
    "backends.gather.step_ms": "ms",
    "backends.scatter.step_ms": "ms",
    "backends.gather.res_calc.ms": "ms",
    "backends.scatter.res_calc.ms": "ms",
    "backends.gather.bytes_per_step": "B",
    "backends.scatter.bytes_per_step": "B",
    "backends.execute_loop.step_ms": "ms",
    "backends.execute_loop.self_ms": "ms",
    "backends.alloc.mmap_churn_ratio": "ratio",
    "op2.plan.build_ms": "ms",
    "op2.plan.res_calc.build_ms": "ms",
    "op2.plan.res_calc.ncolors": "count",
    "op2.plan.res_calc.nblocks": "count",
    "op2.plancache.hit_us": "us",
    "op2.par_loop.overhead_us": "us",
    "backends.threaded.overhead_ms_per_step": "ms",
    "backends.blockdeps.build_ms": "ms",
    "backends.blockdeps.edges": "count",
    "backends.blockdeps.cache_hit_us": "us",
    "backends.scheduling.submit_ms_per_step": "ms",
    "backends.scheduling.drain_ms_per_step": "ms",
    "hpx.pool.run_batch.us_per_task": "us",
    "hpx.pool.submit_after.us_per_task": "us",
    **{
        f"hpx.pool.{shape}.{counter}_per_step": "count"
        for shape in ("forkjoin", "dataflow")
        for counter in _POOL_COUNTERS
    },
    "hpx.pool.forkjoin.speedup_2w_over_1w": "ratio",
    "hpx.pool.dataflow.speedup_2w_over_1w": "ratio",
    "engine.program.edges_us": "us",
    "engine.program.steps": "count",
    "engine.program.edge_count": "count",
    "dist.partition.ms": "ms",
    "dist.plan.build_ms": "ms",
    "dist.plan.halo_rows": "count",
    "dist.plan.halo_fraction": "ratio",
    "dist.inproc.step_ms": "ms",
    "procs.shm.create_ms": "ms",
    "procs.shm.bytes": "B",
    "procs.transport.update.start_us": "us",
    "procs.transport.update.wait_us": "us",
    "procs.transport.accumulate.start_us": "us",
    "procs.transport.accumulate.wait_us": "us",
    "procs.transport.loopback_mb_s": "MB/s",
    "procs.transport.msgs_per_step": "count",
    "procs.transport.bytes_per_step": "B",
    "procs.driver.overhead_s": "s",
    "procs.rank_imbalance": "ratio",
    "obs.timing_overhead_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "obs.invariant_violations": "count",
    "trace.overhead_ratio": "ratio",
    "ledger.step_ms": "ms",
    "ledger.seq_step_ms": "ms",
    "ledger.unattributed_share": "ratio",
    "ledger.over_seq_ms_per_step": "ms",
    "ledger.explained_ms_per_step": "ms",
    "ledger.residual_ms_per_step": "ms",
}
