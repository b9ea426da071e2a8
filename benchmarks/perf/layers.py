"""The traced run of one workload: per-layer metrics, measured from outside.

Every number here comes from a span the benchmark records around its own
call into a public function of one layer (``repro.airfoil``, ``backends``,
``op2``, ``hpx``, ``engine``, ``dist``, ``procs``, ``obs``), on the
workload's own mesh and flow constants. Nothing inside ``src/`` is
instrumented. The probes are the same for every workload, so the
per-layer table is (workload x layer): what each layer costs at that
workload's size and shape, whether or not the workload goes through it.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import tempfile
from contextlib import ExitStack, closing
from pathlib import Path

import numpy as np

from benchmarks.perf.measure import (
    ProcsRunner,
    ThreadsRunner,
    expected_state,
    make_runner,
    metric,
    reference_state,
    steady,
)
from benchmarks.perf.stats import median
from benchmarks.perf.tracing import Tracer
from benchmarks.perf.workloads import (
    LOOPS,
    PER_LAYER_UNITS,
    TOLERANCE,
    Workload,
    constants_for,
    effective_width,
    usable_cores,
)
from repro.airfoil import ReferenceAirfoil, generate_mesh
from repro.backends.base import execute_loop, gather_args, scatter_args
from repro.backends.blockdeps import (
    BlockDepCache,
    block_dependencies,
    dependency_edge_count,
    hazard_dats,
)
from repro.backends.threaded import bump_written_versions
from repro.dist.app import DistAirfoil, make_owner
from repro.dist.plan import build_dist_plan
from repro.engine import ExchangeStep, airfoil_timestep
from repro.hpx.threadpool import ThreadPoolEngine
from repro.op2 import OpDat, build_plan
from repro.op2.deps import DatDependencyTracker
from repro.procs import (
    HaloTransport,
    ShmRegistry,
    build_channels,
    default_spawn_method,
    leaked_segments,
)

#: seconds of seq-backend stepping each step-level probe is sized to.
PROBE_SECONDS = 0.5
#: repetitions of the millisecond-scale one-shot probes (plan build, partition...).
ONE_SHOT_REPS = 3
#: calls timed inside one span by the microsecond-scale probes.
MICRO_CALLS = 2000
#: no-op thunks per pool batch / chain, and how many batches are timed.
POOL_TASKS = 64
POOL_REPS = 20
#: the forked pinned-allocator child is killed when it has not answered by then.
CHILD_PROBE_TIMEOUT_S = 60.0


def walk(tracer: Tracer, app, rt, steps: int, label: str) -> float:
    """``app.run(rt, steps)`` spelled out, with a span around every call.

    Equivalent to it for the synchronous and dataflow walks: nine
    ``op_par_loop`` calls per timestep in program order, one ``rt.finish()``
    at the end. Spans: ``<label>.sample`` > ``<label>.step`` >
    ``op2.par_loop.<loop>``, and ``op2.finish`` under the sample. Returns
    the sample's seconds.
    """
    with tracer.span(f"{label}.sample", steps=steps) as whole:
        for _ in range(steps):
            with tracer.span(f"{label}.step"):
                for step in app.program:
                    tracer.call(
                        f"op2.par_loop.{step.name}", getattr(app, f"loop_{step.name}")
                    )
        tracer.call("op2.finish", rt.finish)
    return whole.duration


class TracedThreadsRunner(ThreadsRunner):
    """A session whose samples are ``walk``ed by the benchmark under ``label``."""

    def __init__(self, tracer: Tracer, label: str, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer
        self.label = label

    def sample(self) -> float:
        with self.active() as rt:
            return walk(self.tracer, self.app, rt, self.steps, self.label)


class TracedProcsRunner(ProcsRunner):
    """``run_procs`` is one call from outside, so one span covers the sample."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def sample(self) -> float:
        with self.tracer.span("procs.run_procs", steps=self.steps):
            return super().sample()


def _child_sum(tracer: Tracer, prefix: str, parents: list) -> float:
    """Median over ``parents`` of their summed ``prefix*`` child spans, in seconds."""
    totals = {s.sid: 0.0 for s in parents}
    for s in tracer.spans:
        if s.parent in totals and s.name.startswith(prefix):
            totals[s.parent] += s.duration
    return median(list(totals.values()))


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


def probe_seq(tracer: Tracer, mesh, constants, out: dict) -> tuple[float, int]:
    """airfoil kernels, backends gather/scatter/execute_loop, op2 par_loop and plans.

    Three kinds of timestep advance one seq session in turn, each a valid
    timestep, so the state stays physical and is checked at the end:
    *decomposed* (``gather_args`` / ``kernel.vectorized`` / ``scatter_args``
    called one by one), *execute_loop* (one call per loop) and *par_loop*
    (``app.loop_*()``, the full op2 path). Returns the seq step in seconds
    and the number of probe steps that budget allows.
    """
    with closing(ThreadsRunner(mesh, constants, "seq", 1, 1)) as seq:
        seq.warm()
        first = seq.sample()
        nsteps = int(min(50, max(3, PROBE_SECONDS / first)))
        with seq.active() as rt:
            records = {rec.loop.name: rec for rec in rt.log.loops()}
            loops = {name: records[name].loop for name in LOOPS}
            program = list(seq.app.program)
            decomposed, executed = [], []
            for _ in range(nsteps):
                tracer.call("seq.step", seq.app.run, rt, 1)
                with tracer.span("probe.decomposed_step") as sp:
                    decomposed.append(sp)
                    for step in program:
                        loop = loops[step.name]
                        n = loop.set_.size
                        with tracer.span(f"backends.gather.{step.name}"):
                            buffers, writebacks = gather_args(loop, slice(0, n), n)
                        with tracer.span(f"airfoil.kernels.{step.name}"):
                            loop.kernel.vectorized(*buffers)
                        with tracer.span(f"backends.scatter.{step.name}"):
                            scatter_args(writebacks)
                        bump_written_versions(loop)
                with tracer.span("probe.execute_loop_step") as sp:
                    executed.append(sp)
                    for step in program:
                        tracer.call(
                            f"backends.execute_loop.{step.name}",
                            execute_loop, loops[step.name],
                        )
                walk(tracer, seq.app, rt, 1, "probe.par_loop")
            steps_done = 2 + 4 * nsteps
            diff = float(np.max(np.abs(
                seq.state() - reference_state(mesh, constants, steps_done)
            )))
            if not diff <= TOLERANCE:
                raise AssertionError(
                    f"decomposed seq timesteps drifted from the reference: {diff:.3e}"
                )

            res_calc = loops["res_calc"]
            with tracer.span("op2.plancache.get", calls=MICRO_CALLS) as hit:
                for _ in range(MICRO_CALLS):
                    rt.plans.get(res_calc.set_, list(res_calc.args), rt.block_size)

            # One cold build per distinct plan-cache key (cells-direct,
            # edges via pecell, bedges via pbecell).
            shapes = {
                rt.plans.key(lp.set_, list(lp.args), rt.block_size): lp
                for lp in loops.values()
            }
            for _ in range(ONE_SHOT_REPS):
                with tracer.span("op2.plan.build_all"):
                    for lp in shapes.values():
                        with tracer.span(f"op2.plan.build.{lp.name}"):
                            plan = build_plan(lp.set_, list(lp.args), rt.block_size)
                        if lp.name == "res_calc":
                            res_plan = plan

    seq_step = tracer.median_s("seq.step")
    for name in LOOPS:
        out[f"airfoil.kernels.{name}.ms"] = _ms(tracer.median_s(f"airfoil.kernels.{name}"))
    kernels = _child_sum(tracer, "airfoil.kernels.", decomposed)
    gather = _child_sum(tracer, "backends.gather.", decomposed)
    scatter = _child_sum(tracer, "backends.scatter.", decomposed)
    exec_step = _child_sum(tracer, "backends.execute_loop.", executed)
    par_step = _child_sum(tracer, "op2.par_loop.", tracer.named("probe.par_loop.step"))
    out["airfoil.kernels.step_ms"] = _ms(kernels)
    out["backends.gather.step_ms"] = _ms(gather)
    out["backends.scatter.step_ms"] = _ms(scatter)
    out["backends.gather.res_calc.ms"] = _ms(tracer.median_s("backends.gather.res_calc"))
    out["backends.scatter.res_calc.ms"] = _ms(tracer.median_s("backends.scatter.res_calc"))
    out["backends.execute_loop.step_ms"] = _ms(exec_step)
    out["backends.execute_loop.self_ms"] = _ms(exec_step - kernels - gather - scatter)
    out["op2.par_loop.overhead_us"] = _us((par_step - exec_step) / len(program))
    out["op2.plancache.hit_us"] = _us(hit.duration / MICRO_CALLS)
    out["op2.plan.build_ms"] = _ms(tracer.median_s("op2.plan.build_all"))
    out["op2.plan.res_calc.build_ms"] = _ms(tracer.median_s("op2.plan.build.res_calc"))
    out["op2.plan.res_calc.ncolors"] = res_plan.ncolors
    out["op2.plan.res_calc.nblocks"] = res_plan.nblocks

    # Computed, not measured: bytes the kernels are handed and hand back,
    # from argument dims (cache misses and index traffic not counted).
    gathered = scattered = 0
    for step in program:
        loop = loops[step.name]
        for arg in loop.args:
            if not isinstance(arg.dat, OpDat):
                continue
            nbytes = loop.set_.size * arg.dat.dim * arg.dat.data.itemsize
            if arg.access.reads:
                gathered += nbytes
            if arg.access.writes:
                scattered += nbytes
    out["backends.gather.bytes_per_step"] = gathered
    out["backends.scatter.bytes_per_step"] = scattered

    out["ledger.seq_step_ms"] = _ms(seq_step)
    # kernels + gather + scatter + execute_loop.self + 9 x par_loop.overhead
    # is par_step by construction; what is left of the step is the app's own
    # loop (history read-out, rt.finish()).
    out["ledger.unattributed_share"] = 1.0 - par_step / seq_step
    return seq_step, nsteps


#: ``mallopt`` parameter numbers from glibc's <malloc.h>, and the values the
#: pinned state holds them at: blocks up to 32 MiB come from the heap and
#: the heap is never trimmed, so steady-state timesteps take no page faults.
M_TRIM_THRESHOLD, TRIM_PINNED = -1, 1024**3
M_MMAP_THRESHOLD, MMAP_PINNED = -3, 32 * 1024**2


def _pinned_seq_step(conn, mesh, constants, nsteps: int) -> None:
    """In a forked child: the median ``seq`` step with the allocator pinned."""
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_PINNED)
    libc.mallopt(M_TRIM_THRESHOLD, TRIM_PINNED)
    with closing(ThreadsRunner(mesh, constants, "seq", 1, 1)) as seq:
        seq.warm()
        seq.sample()
        conn.send(median([seq.sample() for _ in range(nsteps)]))


def probe_alloc_churn(
    tracer: Tracer, mesh, constants, nsteps: int, seq_step: float, out: dict
) -> None:
    """What the per-loop temporaries cost in page faults: default over pinned.

    Everything else is measured with glibc's allocator as a user gets it.
    Every ``op_par_loop`` allocates its gather buffers and kernel
    temporaries afresh; above the allocator's (adaptive) thresholds each is
    mapped, zero-filled by the kernel and unmapped again. Here the ``seq``
    step is timed once more with the thresholds pinned so that no block is:
    the ratio is what buffer reuse across timesteps would save, at most.
    ``mallopt`` cannot be undone, so the pinned state lives and dies in a
    forked child (no pool of this process is alive at this point, so the
    fork copies no running thread's locks). Reports 1.0 where there is no
    ``fork`` or no ``mallopt``.
    """
    if "fork" not in mp.get_all_start_methods() or not hasattr(ctypes.CDLL(None), "mallopt"):
        out["backends.alloc.mmap_churn_ratio"] = 1.0
        return
    ctx = mp.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_pinned_seq_step, args=(sender, mesh, constants, nsteps))
    with tracer.span("backends.alloc.pinned_child", steps=nsteps):
        child.start()
        sender.close()
        pinned_step = None
        try:
            if receiver.poll(CHILD_PROBE_TIMEOUT_S):
                pinned_step = receiver.recv()
        except EOFError:  # the child died before it answered
            pass
        finally:
            receiver.close()
            if pinned_step is None:
                child.kill()
            child.join()
    if pinned_step is None:
        raise RuntimeError("the pinned-allocator child died or hung")
    out["backends.alloc.mmap_churn_ratio"] = seq_step / pinned_step


def probe_reference(tracer: Tracer, mesh, constants, nsteps: int, out: dict) -> None:
    ref = ReferenceAirfoil(mesh, constants)
    ref.run(1)
    for _ in range(nsteps):
        tracer.call("airfoil.reference.step", ref.run, 1)
    out["airfoil.reference.step_ms"] = _ms(tracer.median_s("airfoil.reference.step"))


def probe_meshgen(tracer: Tracer, workload: Workload, out: dict) -> None:
    for _ in range(ONE_SHOT_REPS):
        tracer.call("airfoil.meshgen.build", generate_mesh, workload.ni, workload.nj)
    out["airfoil.meshgen.build_ms"] = _ms(tracer.median_s("airfoil.meshgen.build"))


def _threads_step(
    tracer: Tracer, mesh, constants, backend: str, workers: int, steps: int, reps: int
) -> tuple[str, dict[str, float], list]:
    """``reps`` walked samples of one session: span label, pool stats per step, loop records."""
    label = f"threads.{backend}.{workers}w"
    with closing(
        TracedThreadsRunner(tracer, label, mesh, constants, backend, workers, steps)
    ) as runner:
        runner.warm()
        runner.rt.thread_pool.stats.reset()
        for _ in range(reps):
            runner.sample()
        stats = runner.rt.pool_stats
        per_step = {
            "tasks": stats.tasks_submitted / (reps * steps),
            "batches": stats.batches / (reps * steps),
            "joins": stats.joins / (reps * steps),
            "color_joins": stats.color_joins / (reps * steps),
        }
        records = runner.rt.log.loops()
    return label, per_step, records


def probe_threads(
    tracer: Tracer, mesh, constants, steps: int, reps: int, seq_step: float, out: dict
) -> list:
    """backends.threaded, backends.scheduling and the hpx pool under both shapes."""
    wide = min(2, usable_cores())
    records = []
    for shape, backend in (("forkjoin", "openmp"), ("dataflow", "hpx_dataflow")):
        narrow, _, _ = _threads_step(tracer, mesh, constants, backend, 1, steps, reps)
        label, per_step, records = _threads_step(
            tracer, mesh, constants, backend, wide, steps, reps
        )
        one = tracer.median_s(f"{narrow}.sample") / steps
        two = tracer.median_s(f"{label}.sample") / steps
        for counter, value in per_step.items():
            out[f"hpx.pool.{shape}.{counter}_per_step"] = value
        out[f"hpx.pool.{shape}.speedup_2w_over_1w"] = one / two
        if backend == "openmp":
            out["backends.threaded.overhead_ms_per_step"] = _ms(one - seq_step)
    # ``label`` is now the 2-worker dataflow session: the orchestrator's time
    # inside the ``app.loop_*()`` calls, and its time in ``rt.finish()``.
    samples = tracer.named(f"{label}.sample")
    out["backends.scheduling.submit_ms_per_step"] = _ms(
        _child_sum(tracer, f"{label}.step", samples) / steps
    )
    out["backends.scheduling.drain_ms_per_step"] = _ms(
        _child_sum(tracer, "op2.finish", samples) / steps
    )
    return records


def probe_blockdeps(tracer: Tracer, records: list, out: dict) -> None:
    """Cold ``block_dependencies`` over the hazard pairs of one steady timestep.

    ``records`` are the dataflow session's loop records; the pairs are those
    the scheduler's own tracker (ordered increments) names for the nine
    loops of the last timestep, producers in the previous timestep included.
    """
    per_step = len(airfoil_timestep())
    window = records[-2 * per_step:]
    tracker: DatDependencyTracker[int] = DatDependencyTracker(ordered_increments=True)
    by_id = {rec.loop_id: rec for rec in window}
    pairs = []
    for i, rec in enumerate(window):
        deps = tracker.dependencies(list(rec.loop.args), token=rec.loop_id)
        if i >= len(window) - per_step:
            for dep in deps:
                for dat in hazard_dats(by_id[dep], rec):
                    pairs.append((by_id[dep], rec, dat))
    edges = 0
    for rep in range(2):
        with tracer.span("backends.blockdeps.build", pairs=len(pairs)):
            for producer, consumer, dat in pairs:
                deps = block_dependencies(producer, consumer, dat)
                if rep == 0:
                    edges += dependency_edge_count(deps)
    cache = BlockDepCache()
    producer, consumer, dat = pairs[0]
    cache.get(producer, consumer, dat)
    with tracer.span("backends.blockdeps.cache_hit", calls=MICRO_CALLS) as hit:
        for _ in range(MICRO_CALLS):
            cache.get(producer, consumer, dat)
    out["backends.blockdeps.build_ms"] = _ms(tracer.median_s("backends.blockdeps.build"))
    out["backends.blockdeps.edges"] = edges
    out["backends.blockdeps.cache_hit_us"] = _us(hit.duration / MICRO_CALLS)


def _noop() -> None:
    return None


def probe_pool(tracer: Tracer, out: dict) -> None:
    """Pool dispatch cost on no-op thunks: a fork-join batch and a dependency chain."""
    with ThreadPoolEngine(min(2, usable_cores())) as pool:
        pool.run_batch([_noop] * POOL_TASKS)
        for _ in range(POOL_REPS):
            tracer.call("hpx.pool.run_batch", pool.run_batch, [_noop] * POOL_TASKS)
            with tracer.span("hpx.pool.submit_after_chain"):
                task = pool.submit_after(_noop)
                for _ in range(POOL_TASKS - 1):
                    task = pool.submit_after(_noop, [task])
                pool.wait_for(task)
    out["hpx.pool.run_batch.us_per_task"] = _us(
        tracer.median_s("hpx.pool.run_batch") / POOL_TASKS
    )
    out["hpx.pool.submit_after.us_per_task"] = _us(
        tracer.median_s("hpx.pool.submit_after_chain") / POOL_TASKS
    )


def probe_engine(tracer: Tracer, out: dict) -> None:
    program = airfoil_timestep()
    for _ in range(POOL_REPS):
        edges = tracer.call("engine.program.edges", program.edges)
    out["engine.program.edges_us"] = _us(tracer.median_s("engine.program.edges"))
    out["engine.program.steps"] = len(program)
    out["engine.program.edge_count"] = sum(len(preds) for preds in edges)


def probe_dist(tracer: Tracer, mesh, constants, ranks: int, nsteps: int, out: dict):
    for _ in range(ONE_SHOT_REPS):
        owner = tracer.call("dist.partition", make_owner, mesh, ranks, "rcb")
        dplan = tracer.call("dist.plan.build", build_dist_plan, mesh, owner)
    app = DistAirfoil(mesh, ranks, constants=constants)
    app.run(1)
    for _ in range(nsteps):
        tracer.call("dist.inproc.step", app.run, 1)
    out["dist.partition.ms"] = _ms(tracer.median_s("dist.partition"))
    out["dist.plan.build_ms"] = _ms(tracer.median_s("dist.plan.build"))
    out["dist.plan.halo_rows"] = dplan.total_halo()
    out["dist.plan.halo_fraction"] = dplan.total_halo() / mesh.cells.size
    out["dist.inproc.step_ms"] = _ms(tracer.median_s("dist.inproc.step"))
    return dplan


def probe_transport(tracer: Tracer, dplan, nsteps: int, out: dict) -> None:
    """shm create, and the pipe transport looped back inside one process.

    Every rank's endpoint lives in this process: ``*_start`` on every rank
    posts the sends, then ``*_wait`` on every rank drains them, so no call
    ever blocks on a peer and pack / pipe / unpack are timed without the
    wait for the other rank's compute.
    """
    for _ in range(ONE_SHOT_REPS):
        with tracer.span("procs.shm.create"):
            registry = ShmRegistry(dplan)
        nbytes = sum(
            spec.nbytes for layout in registry.layouts for spec in layout.segments.values()
        )
        registry.close()
    out["procs.shm.create_ms"] = _ms(tracer.median_s("procs.shm.create"))
    out["procs.shm.bytes"] = nbytes

    channels = build_channels(dplan, mp.get_context(default_spawn_method()))
    try:
        ends, q_adt, res = [], [], []
        for rp in dplan.plans:
            ends.append(HaloTransport(rp.rank, rp.exports, rp.imports, channels[rp.rank]))
            rows = rp.n_owned + rp.n_halo
            q_adt.append([np.ones((rows, 4)), np.ones((rows, 1))])
            res.append([np.ones((rows, 4))])
        for _ in range(max(nsteps, ONE_SHOT_REPS)):
            with tracer.span("procs.transport.round"):
                for op, fields in (("update", q_adt), ("accumulate", res)):
                    for end, arrays in zip(ends, fields):
                        tracer.call(
                            f"procs.transport.{op}.start", getattr(end, f"{op}_start"), arrays
                        )
                    for end, arrays in zip(ends, fields):
                        tracer.call(
                            f"procs.transport.{op}.wait", getattr(end, f"{op}_wait"), arrays
                        )
        moved = sum(e.bytes_updated + e.bytes_accumulated for e in ends)
    finally:
        for ch in channels:
            ch.close()
    rounds = tracer.durations("procs.transport.round")
    for op in ("update", "accumulate"):
        for phase in ("start", "wait"):
            out[f"procs.transport.{op}.{phase}_us"] = _us(
                tracer.median_s(f"procs.transport.{op}.{phase}")
            )
    out["procs.transport.loopback_mb_s"] = moved / len(rounds) / median(rounds) / 1e6


def _invariant_violations(summary) -> int:
    """1 when a timing table breaks what its columns must satisfy, else 0.

    Summed task time cannot exceed workers x span, and a kernel that ran
    tasks cannot report zero task time (ROADMAP 5c, seen from outside).
    """
    task_total = sum(k.task_time for k in summary.kernels.values())
    over = task_total > summary.num_workers * summary.wall * (1.0 + 1e-9)
    silent = any(k.tasks > 0 and k.task_time == 0.0 for k in summary.kernels.values())
    return int(over or silent)


def probe_procs_run(tracer: Tracer, workload: Workload, mesh, constants, out: dict) -> float:
    """One real ``run_procs`` configuration: driver overhead, traffic, imbalance.

    Uses the workload's own schedule when it has one, else ``blocking``.
    Returns the procs step in seconds.
    """
    schedule = workload.variant if workload.kind == "procs" else "blocking"
    runner = ProcsRunner(mesh, constants, schedule, min(2, usable_cores()), workload.steps)
    walls = []
    imbalance = []
    for _ in range(ONE_SHOT_REPS):
        walls.append(tracer.call("procs.run_procs.probe", runner.sample))
        ranks = [rep.wall_seconds for rep in runner.result.reports.values()]
        imbalance.append(max(ranks) / min(ranks))
    comm = runner.result.comm
    leaked = leaked_segments(runner.result.shm_names)
    if leaked:
        raise AssertionError(f"run_procs leaked shared-memory segments: {leaked}")
    out["procs.driver.overhead_s"] = median(runner.overheads)
    out["procs.transport.msgs_per_step"] = (
        comm["messages_updated"] + comm["messages_accumulated"]
    ) / workload.steps
    out["procs.transport.bytes_per_step"] = (
        comm["bytes_updated"] + comm["bytes_accumulated"]
    ) / workload.steps
    out["procs.rank_imbalance"] = median(imbalance)
    return median(walls) / workload.steps


def probe_obs(
    tracer: Tracer, workload: Workload, mesh, constants, reps: int, out_dir: Path, out: dict
) -> None:
    """What ``timing=True`` / ``trace=True`` cost the workload's own configuration."""
    throughput = {}
    violations = 0
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        modes = {
            "off": {},
            "timing": {"timing": True},
            "trace": {"trace_dir": scratch} if workload.kind == "procs" else {"trace": True},
        }
        for mode, observe in modes.items():
            with closing(make_runner(workload, mesh, constants, **observe)) as runner:
                runner.warm()
                walls = [
                    tracer.call(f"obs.{mode}.sample", runner.sample) for _ in range(reps)
                ]
                throughput[mode] = 1.0 / median(walls)
                if mode != "off":
                    summary = (
                        runner.result.timing_summary()
                        if workload.kind == "procs"
                        else runner.rt.timing_summary()
                    )
                    violations += _invariant_violations(summary)
    out["obs.timing_overhead_ratio"] = throughput["timing"] / throughput["off"]
    out["obs.trace_overhead_ratio"] = throughput["trace"] / throughput["off"]
    out["obs.invariant_violations"] = violations


def traced_workload(tracer: Tracer, workload: Workload, mesh, constants, seconds: float):
    """Alternate span-wrapped and plain samples of the workload itself."""
    width = effective_width(workload)
    args = (mesh, constants, workload.variant, width, workload.steps)
    with ExitStack() as stack:
        if workload.kind == "procs":
            traced = TracedProcsRunner(tracer, *args)
        else:
            traced = TracedThreadsRunner(tracer, "workload", *args)
        stack.callback(traced.close)
        plain = make_runner(workload, mesh, constants)
        stack.callback(plain.close)
        traced.warm()
        plain.warm()
        return steady(
            traced, plain, expected_state(workload, plain, mesh, constants), seconds
        )


def run_traced(workload: Workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Measure every per-layer metric on ``workload``; returns the result record."""
    constants = constants_for(seed)
    tracer = Tracer(workload.name)
    mesh = generate_mesh(workload.ni, workload.nj)
    out: dict[str, float] = {}
    out_dir.mkdir(parents=True, exist_ok=True)

    with tracer.span("workload", workload=workload.name, seed=seed):
        with tracer.span("probe.workload"):
            series = traced_workload(tracer, workload, mesh, constants, seconds / 6)
        walls, plain_walls = series["wall_s"], series["baseline_wall_s"]
        if not walls:
            raise RuntimeError(f"no sample of the workload succeeded: {series['errors']}")
        with tracer.span("probe.airfoil+backends+op2"):
            probe_meshgen(tracer, workload, out)
            seq_step, nsteps = probe_seq(tracer, mesh, constants, out)
            probe_reference(tracer, mesh, constants, nsteps, out)
            probe_alloc_churn(tracer, mesh, constants, nsteps, seq_step, out)
        reps = ONE_SHOT_REPS
        # Steps per threads-probe sample: the workload's own K where half
        # the probe budget affords it.
        steps = min(workload.steps, max(1, nsteps // 2))
        with tracer.span("probe.threads+hpx"):
            records = probe_threads(tracer, mesh, constants, steps, reps, seq_step, out)
            probe_blockdeps(tracer, records, out)
            probe_pool(tracer, out)
        with tracer.span("probe.engine+dist+procs"):
            probe_engine(tracer, out)
            dplan = probe_dist(tracer, mesh, constants, 2, nsteps, out)
            probe_transport(tracer, dplan, nsteps, out)
            procs_step = probe_procs_run(tracer, workload, mesh, constants, out)
        with tracer.span("probe.obs"):
            probe_obs(tracer, workload, mesh, constants, reps, out_dir, out)

    out["trace.overhead_ratio"] = median(plain_walls) / median(walls)
    step = median(plain_walls) / workload.steps
    out["ledger.step_ms"] = _ms(step)
    out["ledger.over_seq_ms_per_step"] = _ms(step - seq_step)
    exchanges = [s for s in airfoil_timestep(dist=True) if isinstance(s, ExchangeStep)]
    transport_ms = sum(
        out[f"procs.transport.{s.op}.start_us"] + out[f"procs.transport.{s.op}.wait_us"]
        for s in exchanges
    ) / 1e3
    explained = {
        "seq": 0.0,
        "openmp": out["backends.threaded.overhead_ms_per_step"],
        "hpx_dataflow": out["backends.scheduling.submit_ms_per_step"],
        "blocking": transport_ms,
        "overlapped": transport_ms,
    }[workload.variant]
    out["ledger.explained_ms_per_step"] = explained
    out["ledger.residual_ms_per_step"] = out["ledger.over_seq_ms_per_step"] - explained

    trace_path = out_dir / f"trace-{workload.name}.json"
    events = tracer.write_chrome(trace_path)
    missing = sorted(set(PER_LAYER_UNITS) - set(out))
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": True,
        "attempted": series["attempted"],
        "failed": series["failed"],
        "max_abs_diff": series["max_abs_diff"],
        "errors": series["errors"] + [f"metric not measured: {m}" for m in missing],
        "leaked_segments": series["leaked_segments"],
        "metrics": {
            name: metric(name, out[name], PER_LAYER_UNITS)
            for name in PER_LAYER_UNITS
            if name in out
        },
        "procs_step_ms": _ms(procs_step),
        "spans": tracer.table(),
        "chrome_trace": {"file": trace_path.name, "events": events},
    }
    record["correct"] = bool(
        not missing and not series["failed"] and not series["leaked_segments"]
    )
    return record
