"""The untraced measurement of one workload: set-up, steady state, correctness.

A *runner* is one warm session on the workload's mesh. ``sample()`` advances
it by K timesteps and returns the wall seconds of those steps; ``state()`` is
the solution after the last sample. Samples of the workload and of its
baseline alternate in one process, so their ratio is taken under the same
machine weather. Closed loop, one client.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import threading
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Iterator

import numpy as np

from benchmarks.perf.stats import median, summarize
from benchmarks.perf.workloads import (
    END_TO_END_UNITS,
    TOLERANCE,
    Workload,
    constants_for,
    effective_width,
)
from repro.airfoil import AirfoilApp, FlowConstants, ReferenceAirfoil, generate_mesh
from repro.op2 import Op2Runtime, RuntimeConfig
from repro.procs import ProcsConfig, ProcsError, leaked_segments, run_procs

#: a hung ``run_procs`` sample is torn down by its driver after this long.
PROCS_SAMPLE_TIMEOUT_S = 30.0
#: fresh sessions timed for ``setup_s``: at least this many, and until
#: SETUP_MIN_SECONDS are spent so a millisecond set-up is not one noisy read.
SETUP_SESSIONS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_SESSIONS = 40


def binding_cores() -> list[int]:
    """The cores threads and ranks are bound to; empty where binding is a no-op."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cores = sorted(os.sched_getaffinity(0))
    return cores if len(cores) >= 2 else []


def bind_pool_workers(pool, workers: int, *, timeout: float = 30.0) -> None:
    """Bind worker i of ``pool`` to core i, as HPX binds its own workers.

    Unbound, two workers on two cores sit in one of two regimes about 2x
    apart (README, "Two regimes"): a run's median lands on either, which no
    bound the contract allows can hold. A stand-alone session ends up in
    the slow one after about a second and stays there; binding selects it
    from the first sample. Each worker binds *itself*: the batch cannot
    finish until ``workers`` distinct threads have met at the barrier, so a
    pool with fewer threads raises ``BrokenBarrierError`` instead of
    silently measuring the other regime. Where the platform cannot bind
    (no ``sched_setaffinity``, or a single usable core) nothing is bound.
    """
    cores = binding_cores()
    if not cores:
        return
    rendezvous = threading.Barrier(workers, timeout=timeout)

    def bind_self() -> None:
        os.sched_setaffinity(0, {cores[rendezvous.wait() % len(cores)]})

    pool.run_batch([bind_self] * workers)


@contextmanager
def ranks_bound_to_cores(ranks: int) -> Iterator[None]:
    """While a ``run_procs`` call is in flight, bind its rank processes one per core.

    Two ranks that talk over pipes are pulled onto one core by the kernel's
    wake-affine placement often enough that a run reads anywhere between
    the 2-core step and twice that (README, "Two regimes"); ``mpirun``
    binds ranks to cores by default. The ranks are this process's only
    children while the call runs, so a watcher thread binds each child as
    it appears (before the start barrier releases them), in pid order.
    Raises when the call ends with fewer than ``ranks`` children bound, so
    a run never silently measures the other regime. Where the platform
    cannot bind, nothing is bound.
    """
    cores = binding_cores()
    if not cores:
        yield
        return
    done = threading.Event()
    bound: set[int] = set()

    def watch() -> None:
        while len(bound) < ranks and not done.is_set():
            for child in sorted(mp.active_children(), key=lambda c: c.pid):
                if child.pid not in bound:
                    try:
                        os.sched_setaffinity(child.pid, {cores[len(bound) % len(cores)]})
                    except ProcessLookupError:  # exited between listing and binding
                        continue
                    bound.add(child.pid)
            done.wait(0.0005)

    watcher = threading.Thread(target=watch, name="bind-ranks")
    watcher.start()
    try:
        yield
    finally:
        done.set()
        watcher.join()
    if len(bound) < ranks:
        raise RuntimeError(f"bound {len(bound)} of {ranks} rank processes to cores")


class ThreadsRunner:
    """A warm ``mode="threads"`` op2 session driving ``AirfoilApp``.

    The active op2 runtime is process-global and the baseline is a second
    session in the same process, so the runner installs its own runtime
    around every call into the app and restores the previous one after.
    """

    def __init__(
        self,
        mesh,
        constants: FlowConstants,
        backend: str,
        workers: int,
        steps: int,
        *,
        timing: bool = False,
        trace: bool = False,
    ) -> None:
        self.steps = steps
        self.rt = Op2Runtime(
            backend=backend,
            num_threads=workers,
            config=RuntimeConfig(
                mode="threads", num_workers=workers, timing=timing, trace=trace
            ),
        )
        self.app = AirfoilApp(mesh, constants)

    @contextmanager
    def active(self) -> Iterator[Op2Runtime]:
        previous = self.rt.activate()
        try:
            yield self.rt
        finally:
            self.rt.deactivate(previous)

    def sample(self) -> float:
        with self.active():
            t0 = perf_counter()
            self.app.run(self.rt, self.steps)
            return perf_counter() - t0

    def warm(self) -> None:
        """Pool start, then the first timestep: plan build, colouring, dependency caches."""
        if self.rt.num_workers > 1:
            bind_pool_workers(self.rt.thread_pool, self.rt.num_workers)
        with self.active():
            self.app.run(self.rt, 1)

    def state(self) -> np.ndarray:
        return self.app.p_q.data

    def close(self) -> None:
        self.rt.close()


class ReferenceRunner:
    """``ReferenceAirfoil``: plain NumPy, no OP2 layer."""

    def __init__(self, mesh, constants: FlowConstants, steps: int) -> None:
        self.steps = steps
        self.ref = ReferenceAirfoil(mesh, constants)

    def sample(self) -> float:
        t0 = perf_counter()
        self.ref.run(self.steps)
        return perf_counter() - t0

    def warm(self) -> None:
        self.ref.run(1)

    def state(self) -> np.ndarray:
        return self.ref.q

    def close(self) -> None:
        pass


class ProcsRunner:
    """One sample is one ``run_procs(niter=K)``, always from the freestream.

    The sample wall is the slowest rank's timestep loop; everything else the
    call costs (partition, dist plan, shm create, fork, barrier, collect,
    teardown) is that sample's set-up and is kept in ``overheads``.
    """

    def __init__(
        self,
        mesh,
        constants: FlowConstants,
        schedule: str,
        ranks: int,
        steps: int,
        *,
        timing: bool = False,
        trace_dir: str | None = None,
    ) -> None:
        self.mesh = mesh
        self.steps = steps
        self.config = ProcsConfig(
            ranks=ranks,
            niter=steps,
            schedule=schedule,
            constants=constants,
            timing=timing,
            trace_dir=trace_dir,
            join_timeout=PROCS_SAMPLE_TIMEOUT_S,
        )
        self.overheads: list[float] = []
        self.result = None

    def sample(self) -> float:
        with ranks_bound_to_cores(self.config.ranks):
            t0 = perf_counter()
            self.result = run_procs(self.mesh, self.config)
            elapsed = perf_counter() - t0
        self.overheads.append(elapsed - self.result.wall_seconds)
        return self.result.wall_seconds

    def warm(self) -> None:
        pass

    def state(self) -> np.ndarray:
        return self.result.q

    def close(self) -> None:
        pass


def make_runner(workload: Workload, mesh, constants: FlowConstants, **observe):
    width = effective_width(workload)
    if workload.kind == "procs":
        return ProcsRunner(
            mesh, constants, workload.variant, width, workload.steps, **observe
        )
    return ThreadsRunner(
        mesh, constants, workload.variant, width, workload.steps, **observe
    )


def make_baseline(workload: Workload, mesh, constants: FlowConstants):
    if workload.baseline == "reference":
        return ReferenceRunner(mesh, constants, workload.steps)
    return ThreadsRunner(mesh, constants, "seq", 1, workload.steps)


def reference_state(mesh, constants: FlowConstants, steps: int) -> np.ndarray:
    ref = ReferenceAirfoil(mesh, constants)
    ref.run(steps)
    return ref.q


def expected_state(workload: Workload, baseline, mesh, constants: FlowConstants):
    """What the workload's state must equal after each sample, as a callable.

    Threads runners advance in lockstep with their baseline, so its state is
    the reference. A procs sample restarts from the freestream every time and
    is held against ``ReferenceAirfoil.run(K)``.
    """
    if workload.kind == "procs":
        q_ref = reference_state(mesh, constants, workload.steps)
        return lambda: q_ref
    return baseline.state


def steady(target, baseline, expected, seconds: float, *, min_pairs: int = 3) -> dict:
    """Alternate samples of ``target`` and ``baseline`` for ``seconds``.

    A sample fails when it raises or when ``target.state()`` differs from
    ``expected()`` by more than TOLERANCE. An exception ends the series: the
    session behind it cannot be trusted any more.
    """
    walls: list[float] = []
    base_walls: list[float] = []
    errors: list[str] = []
    leaked: list[str] = []
    attempted = failed = 0
    max_diff = 0.0
    deadline = perf_counter() + seconds
    while attempted < min_pairs or perf_counter() < deadline:
        attempted += 1
        try:
            # Which side runs first alternates, so neither always follows
            # the other's cache state.
            if attempted % 2:
                wall = target.sample()
                base = baseline.sample()
            else:
                base = baseline.sample()
                wall = target.sample()
        except Exception as exc:  # boundary: record, count, stop the series
            failed += 1
            errors.append(f"sample {attempted}: {type(exc).__name__}: {exc}")
            if isinstance(exc, ProcsError):
                leaked.extend(leaked_segments(exc.shm_names))
            break
        diff = float(np.max(np.abs(target.state() - expected())))
        max_diff = max(max_diff, diff)
        if not diff <= TOLERANCE:  # also catches NaN
            failed += 1
            errors.append(f"sample {attempted}: max |q - q_ref| = {diff:.3e}")
            continue
        walls.append(wall)
        base_walls.append(base)
    result = getattr(target, "result", None)
    if result is not None:
        leaked.extend(leaked_segments(result.shm_names))
    return {
        "attempted": attempted,
        "failed": failed,
        "max_abs_diff": max_diff,
        "errors": errors,
        "leaked_segments": leaked,
        "wall_s": walls,
        "baseline_wall_s": base_walls,
    }


def warm_up(runner) -> None:
    """First timestep, then one unmeasured sample, so both sides stay in lockstep."""
    runner.warm()
    runner.sample()


def one_setup(workload: Workload, constants: FlowConstants) -> float:
    """A fresh session up to and including its first timestep, in seconds."""
    t0 = perf_counter()
    mesh = generate_mesh(workload.ni, workload.nj)
    runner = make_runner(workload, mesh, constants)
    try:
        runner.warm()
        return perf_counter() - t0
    finally:
        runner.close()


def setup_series(workload: Workload, constants: FlowConstants) -> list[float]:
    times: list[float] = []
    start = perf_counter()
    while len(times) < SETUP_SESSIONS or (
        perf_counter() - start < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_SESSIONS
    ):
        times.append(one_setup(workload, constants))
    return times


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(name: str, value: float, units: dict[str, str]) -> dict:
    return {"value": float(value), "unit": units[name]}


def run_untraced(
    workload: Workload, seed: int, seconds: float, *, min_pairs: int = 3
) -> dict:
    """Measure every end-to-end metric of ``workload``; returns the result record."""
    constants = constants_for(seed)
    setups = [] if workload.kind == "procs" else setup_series(workload, constants)

    mesh = generate_mesh(workload.ni, workload.nj)
    with ExitStack() as stack:
        target = make_runner(workload, mesh, constants)
        stack.callback(target.close)
        warm_up(target)
        # Read before the baseline exists: the set-up sessions and the warm
        # session so far are all the workload's own memory.
        peak_rss = peak_rss_mib()
        baseline = make_baseline(workload, mesh, constants)
        stack.callback(baseline.close)
        warm_up(baseline)
        series = steady(
            target,
            baseline,
            expected_state(workload, baseline, mesh, constants),
            seconds,
            min_pairs=min_pairs,
        )
        if workload.kind == "procs":
            setups = list(target.overheads)

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": False,
        "config": {
            "kind": workload.kind,
            "variant": workload.variant,
            "width": effective_width(workload),
            "ni": workload.ni,
            "nj": workload.nj,
            "ncells": workload.ncells,
            "steps_per_sample": workload.steps,
            "baseline": workload.baseline,
            "mach": constants.mach,
            "alpha_deg": constants.alpha_deg,
        },
        "attempted": series["attempted"],
        "failed": series["failed"],
        "fail_ratio": series["failed"] / series["attempted"],
        "max_abs_diff": series["max_abs_diff"],
        "errors": series["errors"],
        "leaked_segments": series["leaked_segments"],
        "metrics": {},
        "samples": {},
    }
    walls, base_walls = series["wall_s"], series["baseline_wall_s"]
    if walls and setups:
        work = workload.ncells * workload.steps
        record["metrics"] = {
            "cell_iters_per_s": metric(
                "cell_iters_per_s", work / median(walls), END_TO_END_UNITS
            ),
            "vs_baseline": metric(
                "vs_baseline", median(base_walls) / median(walls), END_TO_END_UNITS
            ),
            "setup_s": metric("setup_s", median(setups), END_TO_END_UNITS),
            "peak_rss_mb": metric("peak_rss_mb", peak_rss, END_TO_END_UNITS),
        }
        record["samples"] = {
            "wall_s": summarize(walls),
            "baseline_wall_s": summarize(base_walls),
            "raw_wall_s": walls,
            "raw_baseline_wall_s": base_walls,
            "raw_setup_s": setups,
        }
    record["correct"] = bool(
        record["metrics"] and not series["failed"] and not series["leaked_segments"]
    )
    return record
