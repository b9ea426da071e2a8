#!/usr/bin/env python3
"""Distributed Airfoil: partition, halo exchange, and the overlap win.

The paper stops at one node; its conclusion points at HPX's distributed
runtime. This example runs the genuinely SPMD Airfoil: the mesh is
partitioned over R ranks (recursive coordinate bisection), each rank runs
the unmodified kernels on its submesh, and halo exchanges carry q/adt to
neighbours and residual contributions back — validated against the
single-rank solver. It then simulates the two distributed schedules
(bulk-synchronous MPI style vs dataflow-overlapped) on a modeled cluster,
and finally runs the *measured* counterpart: the same partitioning executed
by real rank processes (``repro.procs``) over shared-memory dats with actual
pipe halo messages, under both schedules.

Run:  python examples/distributed_airfoil.py [--ranks 4] [--iters 5]
"""

import argparse

import numpy as np

from repro.airfoil import ReferenceAirfoil, generate_mesh
from repro.dist.app import DistAirfoil
from repro.dist.emission import DistScheduleConfig, emit_distributed
from repro.dist.partition import partition_quality
from repro.sim.engine import simulate
from repro.util.tables import Table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--iters", type=int, default=5)
    parser.add_argument("--ni", type=int, default=96)
    parser.add_argument("--nj", type=int, default=48)
    args = parser.parse_args()

    mesh = generate_mesh(ni=args.ni, nj=args.nj)
    print(f"mesh: {mesh.summary()}")

    dist = DistAirfoil(mesh, args.ranks, partitioner="rcb")
    quality = partition_quality(dist.dplan.owner, mesh.pecell.values)
    print(f"partition: {dist.dplan.describe()}")
    print(f"  imbalance {quality['imbalance']:.3f}, edge cut {quality['edge_cut']:.1%}\n")

    out = dist.run(args.iters)
    ref = ReferenceAirfoil(mesh)
    ref.run(args.iters)
    err = float(np.abs(dist.gather_q() - ref.q).max())
    print(f"ran {args.iters} iterations on {args.ranks} ranks")
    print(f"  rms {out['rms_total']:.6f} (single-rank {ref.rms:.6f}), "
          f"max |q - q_ref| = {err:.2e}")
    print(f"  halo traffic: {dist.exchange.bytes_updated / 1024:.1f} KiB updates, "
          f"{dist.exchange.bytes_accumulated / 1024:.1f} KiB accumulations\n")

    print("simulated cluster schedules (8 threads/node):")
    table = Table(["nodes", "bulk-sync ms", "overlapped ms", "gain"])
    for ranks in (2, 4, 8):
        d = DistAirfoil(mesh, ranks, partitioner="rcb")
        config = DistScheduleConfig(threads_per_node=8, niter=2)
        machine = config.cluster_machine(ranks)
        tb = simulate(
            emit_distributed(d.dplan, d.mesh, config, "blocking"),
            machine, machine.num_cores,
        ).makespan
        to = simulate(
            emit_distributed(d.dplan, d.mesh, config, "overlapped"),
            machine, machine.num_cores,
        ).makespan
        table.add_row([ranks, tb / 1000.0, to / 1000.0, f"{tb / to - 1.0:+.1%}"])
    print(table.render())
    print("\nthe overlapped (dataflow-style) schedule hides the wire under "
          "interior compute; its edge grows with node count.")

    from repro.procs import ProcsConfig, run_procs

    print(f"\nmeasured procs mode ({args.ranks} rank processes, shared-memory "
          "dats, pipe halo exchanges):")
    mtable = Table(["schedule", "wall ms", "max |q - q_ref|", "halo msgs"])
    fit = None
    for schedule in ("blocking", "overlapped"):
        res = run_procs(
            mesh,
            ProcsConfig(ranks=args.ranks, niter=args.iters, schedule=schedule),
        )
        err = float(np.abs(res.q - ref.q).max())
        msgs = (res.comm["messages_updated"] + res.comm["messages_accumulated"])
        mtable.add_row([schedule, res.wall_seconds * 1e3, f"{err:.2e}", msgs])
        fit = res.comm_fit_text()
    print(mtable.render())
    if fit is not None:
        print(f"  fitted comm model from observed messages: {fit}")


if __name__ == "__main__":
    main()
