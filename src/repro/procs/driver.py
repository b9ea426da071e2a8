"""Parent-side orchestrator for the rank-per-process (``procs``) runtime.

:func:`run_procs` is the measured counterpart of driving
:class:`repro.dist.app.DistAirfoil` in a single process: it builds the same
:class:`~repro.dist.plan.DistPlan`, then *actually spawns* one OS process
per rank, backs every rank's dats with shared-memory segments
(:mod:`repro.procs.shm`), wires the halo pipes
(:mod:`repro.procs.transport`), releases all ranks through a barrier, and
collects per-rank reports over a queue. The global solution is assembled
straight out of the shared segments — no result arrays travel through the
queue.

Failure discipline: a rank that raises ships its formatted traceback to the
parent, which terminates the peers, tears down every shared segment, and
re-raises as :class:`ProcsError` with the original rank traceback embedded.
A rank that dies without a message (SIGKILL, interpreter abort) is detected
by exit-code polling and handled the same way. Either way
``leaked_segments(result_or_error.shm_names)`` is empty afterwards.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

import numpy as np

from repro.airfoil.constants import DEFAULT_CONSTANTS, FlowConstants
from repro.airfoil.meshgen import AirfoilMesh
from repro.dist.app import make_owner
from repro.dist.comm import CommModel, fit_comm_model
from repro.dist.plan import DistPlan, build_dist_plan
from repro.obs.timing import KernelTiming, TimingSummary
from repro.procs.shm import ShmRegistry
from repro.procs.transport import build_channels
from repro.procs.worker import SCHEDULES, RankReport, RankSpec, worker_main
from repro.util.validate import ValidationError


def default_spawn_method() -> str:
    """``fork`` where the platform offers it (fast), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ProcsConfig:
    """One measured multi-process run.

    ``threads_per_rank > 1`` makes every rank host its own thread pool —
    the hybrid ranks×threads configuration (blocking = MPI+OpenMP baseline,
    overlapped = dependency-scheduled interior compute under in-flight halo
    messages). ``spawn_method=None`` picks :func:`default_spawn_method`.
    ``trace_dir`` enables per-rank span recording; the driver merges the
    rank files into ``<trace_dir>/trace.json`` (one Chrome-trace lane per
    rank thread, keyed ``rank R / thread T``). ``fail_rank``/``fail_at_iter``
    inject a failure for teardown tests.
    """

    ranks: int = 2
    niter: int = 5
    schedule: str = "blocking"
    threads_per_rank: int = 1
    partitioner: str = "rcb"
    spawn_method: str | None = None
    constants: FlowConstants = DEFAULT_CONSTANTS
    trace_dir: str | Path | None = None
    timing: bool = False
    fail_rank: int | None = None
    fail_at_iter: int | None = None
    #: parent-side guard: seconds to wait for rank reports before declaring
    #: the run wedged and tearing it down.
    join_timeout: float = 120.0

    def validate(self) -> None:
        if self.ranks < 1:
            raise ValidationError(f"ranks must be >= 1, got {self.ranks}")
        if self.niter < 1:
            raise ValidationError(f"niter must be >= 1, got {self.niter}")
        if self.schedule not in SCHEDULES:
            raise ValidationError(
                f"unknown schedule {self.schedule!r}; use one of {SCHEDULES}"
            )
        if self.threads_per_rank < 1:
            raise ValidationError(
                f"threads_per_rank must be >= 1, got {self.threads_per_rank}"
            )
        if self.spawn_method is not None and (
            self.spawn_method not in mp.get_all_start_methods()
        ):
            raise ValidationError(
                f"start method {self.spawn_method!r} not available here "
                f"(have {mp.get_all_start_methods()})"
            )
        if (self.fail_rank is None) != (self.fail_at_iter is None):
            raise ValidationError(
                "fail_rank and fail_at_iter must be set together"
            )
        if self.fail_rank is not None and not (0 <= self.fail_rank < self.ranks):
            raise ValidationError(
                f"fail_rank {self.fail_rank} out of range for {self.ranks} ranks"
            )
        if self.join_timeout <= 0:
            raise ValidationError("join_timeout must be positive")


class ProcsError(RuntimeError):
    """A rank failed; carries the rank and its original traceback."""

    def __init__(self, rank: int, rank_traceback: str, shm_names: tuple[str, ...]):
        super().__init__(
            f"rank {rank} failed during procs run\n"
            f"--- rank {rank} traceback ---\n{rank_traceback}"
        )
        self.rank = rank
        self.rank_traceback = rank_traceback
        #: for leak auditing: every segment name the run allocated (all
        #: unlinked by the time this error is raised).
        self.shm_names = shm_names


@dataclass
class ProcsResult:
    """Everything a measured run produced."""

    q: np.ndarray
    rms_total: float
    iterations: int
    ranks: int
    schedule: str
    threads_per_rank: int
    #: slowest rank's timestep-loop wall time — the run's critical path.
    wall_seconds: float
    reports: dict[int, RankReport]
    #: merged halo-traffic counters across ranks.
    comm: dict[str, int]
    #: alpha-beta model fitted to the observed (nbytes, latency) messages;
    #: None when no halo messages flowed (single rank) or the fit is not
    #: identifiable (see :func:`~repro.dist.comm.fit_comm_model`).
    fitted_comm: CommModel | None
    trace_path: str | None
    shm_names: tuple[str, ...]

    def comm_fit_text(self) -> str | None:
        """The fitted comm model in words; None when no message flowed."""
        sizes = [nb for rep in self.reports.values() for nb, _ in rep.message_log]
        if not sizes:
            return None
        fc = self.fitted_comm
        if fc is None:
            return (
                f"not identifiable from {len(sizes)} messages "
                f"(sizes {min(sizes)}–{max(sizes)} B)"
            )
        return (
            f"latency {fc.latency:.3f} us, bandwidth {fc.bandwidth:.1f} MB/s "
            f"from {len(sizes)} messages"
        )

    def timing_summary(self) -> TimingSummary:
        """Aggregate per-kernel totals *across ranks* into one timing table.

        This is the distributed ``op_timing_output``: one row per kernel
        summed over every rank. Busy rows are keyed rank-major, thread-minor
        (rank ``r``'s thread ``t`` occupies row ``1 + r*T + t``; row 0 is
        the orchestrating parent, which does no kernel work), so hybrid runs
        attribute busy seconds per rank *thread*, not per rank.
        """
        merged: dict[str, KernelTiming] = {}
        busy: dict[int, float] = {}
        tpr = max(self.threads_per_rank, 1)
        # A hybrid rank records up to tpr + 1 rows (its main thread plus the
        # pool workers); the stride keeps rank row ranges disjoint.
        stride = tpr + 1 if tpr > 1 else 1
        for rank, rep in sorted(self.reports.items()):
            if rep.busy:
                for row, seconds in sorted(rep.busy.items()):
                    busy[1 + rank * stride + row] = seconds
            else:
                busy[1 + rank * stride] = sum(
                    kt.total for kt in rep.kernels.values()
                )
            for name, kt in rep.kernels.items():
                m = merged.get(name)
                if m is None:
                    merged[name] = m = KernelTiming(name)
                m.count += kt.count
                m.total += kt.total
                m.min = min(m.min, kt.min)
                m.max = max(m.max, kt.max)
                m.colors = max(m.colors, kt.colors)
                m.tasks += kt.tasks
                m.task_time += kt.task_time
                m.prefix_time += kt.prefix_time
                m.fold_time += kt.fold_time
        return TimingSummary(
            kernels=merged,
            wall=self.wall_seconds,
            busy=busy,
            num_workers=self.ranks * tpr,
            comm=dict(self.comm),
        )


def _assemble_q(dplan: DistPlan, registry: ShmRegistry, ncells: int) -> np.ndarray:
    """Copy every rank's owned q rows out of shared memory (pre-teardown)."""
    out = np.empty((ncells, 4))
    for rp in dplan.plans:
        out[rp.owned_cells] = registry.arrays(rp.rank)["q"][: rp.n_owned]
    return out


def run_procs(mesh: AirfoilMesh, config: ProcsConfig) -> ProcsResult:
    """Run the Airfoil timestep loop across ``config.ranks`` OS processes."""
    config.validate()
    owner = make_owner(mesh, config.ranks, config.partitioner)
    dplan = build_dist_plan(mesh, owner)
    ctx = mp.get_context(config.spawn_method or default_spawn_method())

    trace_dir: Path | None = None
    rank_files: dict[int, Path] = {}
    if config.trace_dir is not None:
        trace_dir = Path(config.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        rank_files = {r: trace_dir / f"rank{r}.json" for r in range(config.ranks)}

    registry = ShmRegistry(dplan)
    channels = build_channels(dplan, ctx)
    barrier = ctx.Barrier(config.ranks)
    results = ctx.Queue()
    epoch = perf_counter()
    procs: list[mp.process.BaseProcess] = []
    try:
        for rp in dplan.plans:
            spec = RankSpec(
                rank=rp.rank,
                plan=rp,
                layout=registry.layouts[rp.rank],
                constants=config.constants,
                niter=config.niter,
                schedule=config.schedule,
                epoch=epoch,
                threads_per_rank=config.threads_per_rank,
                trace=trace_dir is not None,
                timing=config.timing,
                trace_path=(
                    str(rank_files[rp.rank]) if trace_dir is not None else None
                ),
                fail_at_iter=(
                    config.fail_at_iter
                    if config.fail_rank == rp.rank
                    else None
                ),
            )
            p = ctx.Process(
                target=worker_main,
                args=(spec, channels[rp.rank], barrier, results),
                name=f"procs-rank{rp.rank}",
                daemon=True,
            )
            procs.append(p)
            p.start()

        reports = _collect(procs, results, config.ranks, config.join_timeout)
        if isinstance(reports, tuple):  # (failed_rank, traceback)
            rank, tb = reports
            raise ProcsError(rank, tb, registry.segment_names)

        for p in procs:
            p.join(timeout=10.0)

        q = _assemble_q(dplan, registry, mesh.cells.size)
        comm: dict[str, int] = {}
        nbytes: list[int] = []
        latencies: list[float] = []
        for rep in reports.values():
            for key, val in rep.comm.items():
                comm[key] = comm.get(key, 0) + val
            for nb, lat in rep.message_log:
                nbytes.append(nb)
                latencies.append(lat)
        fitted = fit_comm_model(nbytes, latencies) if nbytes else None

        trace_path: str | None = None
        if trace_dir is not None:
            from repro.obs.chrome import merge_rank_traces

            trace_path = str(trace_dir / "trace.json")
            merge_rank_traces(dict(rank_files), trace_path)

        return ProcsResult(
            q=q,
            rms_total=float(sum(rep.rms for rep in reports.values())),
            iterations=config.niter,
            ranks=config.ranks,
            schedule=config.schedule,
            threads_per_rank=config.threads_per_rank,
            wall_seconds=max(rep.wall_seconds for rep in reports.values()),
            reports=reports,
            comm=comm,
            fitted_comm=fitted,
            trace_path=trace_path,
            shm_names=registry.segment_names,
        )
    finally:
        # Teardown must be unconditional and complete on *every* exit path —
        # success, rank failure, driver-side exceptions and KeyboardInterrupt
        # alike — or shared-memory segments leak until reboot. Each stage is
        # isolated so a failure in one never skips the registry unlink.
        try:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=10.0)
                if p.is_alive():
                    # terminate() (SIGTERM) can be absorbed by a rank stuck
                    # in uninterruptible I/O; escalate rather than leak it.
                    p.kill()
                    p.join(timeout=10.0)
        finally:
            for ch in channels:
                try:
                    ch.close()
                except OSError:
                    pass
            try:
                results.close()
            except OSError:
                pass
            registry.close()


def _collect(
    procs: list,
    results,
    ranks: int,
    join_timeout: float,
) -> dict[int, RankReport] | tuple[int, str]:
    """Drain the results queue until every rank reported or one failed.

    Returns the report map on success, or ``(rank, traceback)`` on the
    first failure — including ranks that died without posting a message
    (detected via exit-code polling) and a whole-run timeout.
    """
    pending = set(range(ranks))
    reports: dict[int, RankReport] = {}
    deadline = monotonic() + join_timeout
    while pending:
        try:
            kind, rank, payload = results.get(timeout=0.25)
        except queue_mod.Empty:
            for r in sorted(pending):
                p = procs[r]
                if not p.is_alive() and p.exitcode != 0:
                    # One more drain: the report may still be in flight.
                    try:
                        kind, rank, payload = results.get(timeout=0.25)
                    except queue_mod.Empty:
                        return (
                            r,
                            f"rank {r} exited with code {p.exitcode} "
                            "without reporting (killed?)",
                        )
                    break
            else:
                if monotonic() > deadline:
                    stuck = ",".join(str(r) for r in sorted(pending))
                    return (
                        min(pending),
                        f"timed out after {join_timeout}s waiting for "
                        f"rank(s) {stuck}",
                    )
                continue
        if kind == "done":
            reports[rank] = payload
            pending.discard(rank)
        else:
            return (rank, payload)
    return reports
