"""Command-line interface: ``python -m repro <command>``.

Subcommands:

- ``info``      — version, backends, machine model summary;
- ``figures``   — regenerate the paper's figures (15–19) and the claim table;
- ``airfoil``   — run the Airfoil solver (backend/mesh/iterations flags);
- ``heat``      — run the heat-conduction application;
- ``translate`` — source-to-source translate an application file (or the
  bundled Airfoil source) for a chosen backend target;
- ``dist``      — distributed Airfoil: validate the SPMD run and compare the
  bulk-synchronous vs overlapped cluster schedules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.backends.registry import available_backends
    from repro.sim.machine import paper_machine

    m = paper_machine()
    print(f"repro {repro.__version__}")
    print(f"backends: {', '.join(available_backends())}")
    print(
        f"machine model: {m.num_cores} cores x {m.smt_ways} SMT "
        f"(eff {m.smt_efficiency}), barrier {m.barrier_model} "
        f"{m.barrier_base}+{m.barrier_per_thread}/thread us"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments import figures as F
    from repro.experiments.report import claim_check

    config = (
        ExperimentConfig(ni=120, nj=96, niter=2)
        if args.quick
        else ExperimentConfig(niter=3)
    )
    weak = ExperimentConfig(ni=120, nj=48, niter=config.niter)
    wanted = args.only or ["15", "16", "17", "18", "19"]
    built = {}
    builders = {
        "15": ("fig15", lambda: F.fig15_exec_time(config)),
        "16": ("fig16", lambda: F.fig16_foreach_chunking(config)),
        "17": ("fig17", lambda: F.fig17_async(config)),
        "18": ("fig18", lambda: F.fig18_dataflow(config)),
        "19": ("fig19", lambda: F.fig19_weak_scaling(weak)),
    }
    for key in wanted:
        if key not in builders:
            print(f"unknown figure {key!r}; choose from {sorted(builders)}")
            return 2
        name, build = builders[key]
        fig = build()
        built[name] = fig
        print(F.render_figure(fig, plot=args.plot))
        print()
    report = claim_check(**built)
    if report.checks:
        print(report.render())
        print(f"all claims hold: {report.all_hold}")
        return 0 if report.all_hold else 1
    return 0


def _obs_session_kwargs(args: argparse.Namespace) -> dict:
    """Session observability options: live recording only exists in threads
    mode; sim-mode traces are replayed post-hoc (:func:`_emit_observability`)."""
    if args.mode == "threads":
        return {"trace": args.trace is not None, "timing": args.timing}
    return {}


def _emit_observability(rt, args: argparse.Namespace) -> None:
    """Print the ``--timing`` table and write the ``--trace`` JSON.

    Threads mode reads the runtime's live recorder; sim mode replays the
    recorded loop log on the machine model at ``--threads`` so both modes
    produce Chrome traces that open in the same viewer.
    """
    if args.trace is None and not args.timing:
        return
    if args.mode == "threads":
        if args.timing:
            print("== per-kernel timing (op_timing_output) ==")
            print(rt.timing_summary().render())
        if args.trace is not None:
            n = rt.export_trace(args.trace)
            print(f"trace: wrote {n} events to {args.trace} (open in ui.perfetto.dev)")
        return
    from repro.backends.costs import LoopCostModel
    from repro.sim.chrometrace import export_chrome_trace
    from repro.sim.engine import SimulationEngine
    from repro.sim.machine import paper_machine
    from repro.util.tables import Table

    machine = paper_machine()
    graph = rt.backend.emit(rt.log, machine, args.threads, LoopCostModel())
    sim = SimulationEngine(machine, args.threads).run(graph, collect_trace=True)
    if args.timing:
        table = Table(["loop", "sim busy ms"])
        for name, us in sorted(sim.trace.time_by_loop().items()):
            table.add_row([name, us / 1000.0])
        print(f"== simulated per-loop busy time at {args.threads} threads ==")
        print(table.render())
    if args.trace is not None:
        n = export_chrome_trace(sim.trace, args.trace)
        print(f"trace: wrote {n} events to {args.trace} (open in ui.perfetto.dev)")


def _cmd_airfoil(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.airfoil import AirfoilApp, generate_mesh
    from repro.airfoil.metrics import compute_forces
    from repro.op2 import op2_session

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    print(mesh.summary())
    with op2_session(
        backend=args.backend,
        num_threads=args.threads,
        block_size=args.block_size,
        mode=args.mode,
        num_workers=args.workers,
        **_obs_session_kwargs(args),
    ) as rt:
        app = AirfoilApp(mesh)
        start = perf_counter()
        result = app.run(rt, args.iters)
        wall = perf_counter() - start
        forces = compute_forces(app, rt)
    print(
        f"{args.iters} iters on {args.backend}: "
        f"rms {result.final_rms(mesh.cells.size):.6f}, "
        f"c_d {forces.drag:+.5f}, c_l {forces.lift:+.5f}"
    )
    if args.mode == "threads":
        workers = args.workers if args.workers is not None else args.threads
        print(f"measured wall clock: {wall * 1000:.1f} ms on {workers} worker thread(s)")
        _print_pool_stats(rt)
    _emit_observability(rt, args)
    return 0


def _print_pool_stats(rt) -> None:
    """One-line pool scheduling summary (threads mode only).

    ``joins`` is where the orchestrator blocked on workers; ``color joins``
    the subset that is a per-color fork-join barrier — zero for the
    dependency-scheduled async/dataflow backends.
    """
    s = rt.pool_stats
    print(
        f"pool: {s.tasks_submitted} tasks, {s.batches} batches, "
        f"{s.joins} joins ({s.color_joins} color joins)"
    )


def _cmd_heat(args: argparse.Namespace) -> int:
    from repro.airfoil import generate_mesh
    from repro.apps.heat import HeatApp
    from repro.op2 import op2_session

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    with op2_session(
        backend=args.backend,
        num_threads=args.threads,
        mode=args.mode,
        num_workers=args.workers,
        **_obs_session_kwargs(args),
    ) as rt:
        app = HeatApp(mesh)
        result = app.run(rt, max_steps=args.steps, tol=args.tol, check_every=10)
    print(
        f"{result.steps} steps on {args.backend}: converged={result.converged}, "
        f"max |dT| {result.max_change:.3e}, energy {result.total_energy:.9f}"
    )
    if args.mode == "threads":
        _print_pool_stats(rt)
    _emit_observability(rt, args)
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.codegen import translate_source
    from repro.codegen.apps import AIRFOIL_SOURCE

    source = Path(args.input).read_text() if args.input else AIRFOIL_SOURCE
    text, loops = translate_source(source, args.target, static_chunk=args.chunk)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(loops)} loops, "
              f"{len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    if args.mode == "procs":
        return _cmd_dist_procs(args)
    import numpy as np

    from repro.airfoil import ReferenceAirfoil, generate_mesh
    from repro.dist.app import DistAirfoil
    from repro.dist.emission import DistScheduleConfig, emit_distributed
    from repro.sim.engine import simulate

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    dist = DistAirfoil(mesh, args.ranks, partitioner=args.partitioner)
    dist.run(args.iters)
    ref = ReferenceAirfoil(mesh)
    ref.run(args.iters)
    err = float(np.abs(dist.gather_q() - ref.q).max())
    print(f"{dist.dplan.describe()}; max |q - q_ref| = {err:.2e}")

    config = DistScheduleConfig(threads_per_node=args.threads, niter=2)
    machine = config.cluster_machine(args.ranks)
    tb = simulate(
        emit_distributed(dist.dplan, mesh, config, "blocking"),
        machine, machine.num_cores,
    ).makespan
    to = simulate(
        emit_distributed(dist.dplan, mesh, config, "overlapped"),
        machine, machine.num_cores,
    ).makespan
    print(
        f"cluster schedule: bulk-sync {tb / 1000:.3f} ms, "
        f"overlapped {to / 1000:.3f} ms (gain {tb / to - 1.0:+.1%})"
    )
    return 0


def _cmd_dist_procs(args: argparse.Namespace) -> int:
    """Measured SPMD run: one OS process per rank over shared-memory dats."""
    import numpy as np

    from repro.airfoil import ReferenceAirfoil, generate_mesh
    from repro.procs import ProcsConfig, run_procs
    from repro.util.tables import Table

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    ref = ReferenceAirfoil(mesh)
    ref.run(args.iters)
    schedules = (
        ["blocking", "overlapped"] if args.schedule == "both" else [args.schedule]
    )
    work = mesh.cells.size * args.iters
    table = Table(
        ["schedule", "wall ms", "cells*iters/s", "max |q-q_ref|", "halo KiB"]
    )
    layout = f"{args.ranks} ranks x {args.threads_per_rank} thread(s)/rank"
    status = 0
    last = None
    for schedule in schedules:
        trace_dir = args.trace_dir
        if trace_dir is not None and len(schedules) > 1:
            trace_dir = str(Path(trace_dir) / schedule)
        res = run_procs(
            mesh,
            ProcsConfig(
                ranks=args.ranks,
                niter=args.iters,
                schedule=schedule,
                threads_per_rank=args.threads_per_rank,
                partitioner=args.partitioner,
                spawn_method=args.spawn_method,
                trace_dir=trace_dir,
                timing=args.timing,
            ),
        )
        last = res
        err = float(np.abs(res.q - ref.q).max())
        halo_kib = (
            res.comm.get("bytes_updated", 0)
            + res.comm.get("bytes_accumulated", 0)
        ) / 1024
        table.add_row(
            [schedule, res.wall_seconds * 1e3, work / res.wall_seconds, err, halo_kib]
        )
        if err > 1e-12:
            status = 1
        if args.timing:
            print(f"== per-kernel timing ({schedule}, {layout}) ==")
            print(res.timing_summary().render())
        if res.trace_path is not None:
            print(f"trace: merged per-rank lanes into {res.trace_path}")
    print(f"procs: {layout} x {args.iters} iters on {mesh.summary()}")
    print(table.render())
    fit = None if last is None else last.comm_fit_text()
    if fit is not None:
        print(f"fitted comm model: {fit} ({len(last.reports)} ranks)")
    if status:
        print("VALIDATION FAILED: procs solution diverged from single-rank solver")
    return status


def _int_at_least(text: str, minimum: int) -> int:
    """Parse ``text`` as an int no smaller than ``minimum``, for argparse."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of every count flag: a value below 1 exits 2 with usage."""
    return _int_at_least(text, 1)


def _mesh_ni(text: str) -> int:
    """argparse type of ``--ni``: the O-mesh needs an even count >= 8."""
    value = _int_at_least(text, 8)
    if value % 2:
        raise argparse.ArgumentTypeError(f"must be even, got {value}")
    return value


def _mesh_nj(text: str) -> int:
    """argparse type of ``--nj``: the O-mesh needs at least 2 cell layers."""
    return _int_at_least(text, 2)


def _add_obs_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome-trace JSON of the run (view at ui.perfetto.dev)",
    )
    p.add_argument(
        "--timing", action="store_true",
        help="print a per-kernel timing table (OP2 op_timing_output style)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version, backends, machine model")

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--quick", action="store_true", help="smaller mesh (~5x faster)")
    p.add_argument("--plot", action="store_true", help="include ASCII plots")
    p.add_argument(
        "--only", nargs="*", metavar="N",
        help="subset of figures, e.g. --only 17 18",
    )

    p = sub.add_parser("airfoil", help="run the Airfoil solver")
    p.add_argument("--backend", default="hpx_dataflow")
    p.add_argument("--ni", type=_mesh_ni, default=120)
    p.add_argument("--nj", type=_mesh_nj, default=96)
    p.add_argument("--iters", type=_positive_int, default=20)
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--block-size", type=_positive_int, default=128)
    p.add_argument(
        "--mode", default="sim", choices=["sim", "threads"],
        help="sim: cooperative simulated execution; threads: real thread pool",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="OS threads for --mode threads (default: --threads)",
    )
    _add_obs_arguments(p)

    p = sub.add_parser("heat", help="run the heat application")
    p.add_argument("--backend", default="hpx_dataflow")
    p.add_argument("--ni", type=_mesh_ni, default=48)
    p.add_argument("--nj", type=_mesh_nj, default=24)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--threads", type=_positive_int, default=4)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument(
        "--mode", default="sim", choices=["sim", "threads"],
        help="sim: cooperative simulated execution; threads: real thread pool",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None,
        help="OS threads for --mode threads (default: --threads)",
    )
    _add_obs_arguments(p)

    p = sub.add_parser("translate", help="source-to-source translate")
    p.add_argument("--target", default="hpx_dataflow")
    p.add_argument("--input", help="application source (default: bundled Airfoil)")
    p.add_argument("--output", help="write generated module here (default: stdout)")
    p.add_argument("--chunk", type=_positive_int, default=1, help="static chunk size")

    p = sub.add_parser("dist", help="distributed Airfoil")
    p.add_argument("--ranks", type=_positive_int, default=4)
    p.add_argument("--ni", type=_mesh_ni, default=96)
    p.add_argument("--nj", type=_mesh_nj, default=48)
    p.add_argument("--iters", type=_positive_int, default=3)
    p.add_argument("--threads", type=_positive_int, default=8)
    p.add_argument("--partitioner", default="rcb", choices=["rcb", "band"])
    p.add_argument(
        "--mode", default="sim", choices=["sim", "procs"],
        help="sim: in-process SPMD + cluster schedule simulation; "
        "procs: measured rank-per-process run over shared memory",
    )
    p.add_argument(
        "--schedule", default="both", choices=["blocking", "overlapped", "both"],
        help="halo-exchange schedule(s) to run in --mode procs",
    )
    p.add_argument(
        "--threads-per-rank", type=_positive_int, default=1, metavar="T",
        help="pool threads inside each rank process (hybrid MPI+OpenMP "
        "analogue; blocking = fork-join, overlapped = dependency-scheduled)",
    )
    p.add_argument(
        "--spawn-method", default=None, choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (default: fork where available)",
    )
    p.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write per-rank spans and a merged Chrome trace here (procs mode)",
    )
    p.add_argument(
        "--timing", action="store_true",
        help="print per-kernel timing tables (procs mode)",
    )

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "figures": _cmd_figures,
    "airfoil": _cmd_airfoil,
    "heat": _cmd_heat,
    "translate": _cmd_translate,
    "dist": _cmd_dist,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
