"""repro: reproduction of "Using HPX and OP2 for Improving Parallel Scaling
Performance of Unstructured Grid Applications" (Khatami, Kaiser, Ramanujam,
ICPP 2016).

Subpackages:

- :mod:`repro.hpx` — an HPX-like asynchronous runtime (futures, dataflow,
  parallel algorithms, execution policies, chunkers).
- :mod:`repro.sim` — a discrete-event multicore machine simulator that
  replays task graphs under a calibrated cost model.
- :mod:`repro.op2` — the OP2 active library (sets, maps, dats, access
  descriptors, plans with conflict coloring, the op_par_loop API).
- :mod:`repro.backends` — the five loop-parallelization strategies compared
  by the paper (seq, openmp, foreach, hpx_async, hpx_dataflow).
- :mod:`repro.codegen` — the source-to-source translator that rewrites
  op_par_loop call sites for each backend.
- :mod:`repro.airfoil` — the Airfoil CFD application and mesh generator.
- :mod:`repro.engine` — the canonical Airfoil timestep program and the
  executors that run it inside one rank.
- :mod:`repro.obs` — per-kernel timing tables and Chrome-trace recording.
- :mod:`repro.dist` — mesh partitioning, halo plans and the in-process
  SPMD Airfoil.
- :mod:`repro.procs` — rank-per-process SPMD runs over shared-memory dats.
- :mod:`repro.apps` — the heat-conduction and shallow-water applications.
- :mod:`repro.util` — RNG seeding, tables, timers and validation errors.
- :mod:`repro.experiments` — the harness regenerating the paper's figures.
"""

__version__ = "1.0.0"
