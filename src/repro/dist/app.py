"""A genuinely SPMD distributed Airfoil solver.

Every rank holds only its submesh (owned cells + halo, its edges, renumbered
maps) and runs the unmodified Airfoil kernels through the standard OP2
gather/scatter machinery; halo exchanges move data between ranks at exactly
the points OP2's MPI backend would:

- ``update(q)``, ``update(adt)`` after ``adt_calc`` (res_calc reads both
  sides of every partition-crossing edge);
- ``accumulate(res)`` after ``res_calc``/``bres_calc`` (increments that
  landed in halo rows travel to their owners).

Owned and halo rows share one storage array per rank; two OpDat views (one
on the owned set for direct loops, one on the full local cell set for
indirect loops) give the kernels the right iteration spaces without copying.
The assembled global state matches the single-rank solver to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.airfoil.constants import DEFAULT_CONSTANTS, FlowConstants
from repro.airfoil.kernels import make_kernels
from repro.airfoil.meshgen import AirfoilMesh
from repro.backends.base import execute_loop
from repro.dist.exchange import HaloExchange
from repro.engine import airfoil_timestep
from repro.engine.program import ExchangeStep
from repro.dist.partition import band_partition, cell_centroids, rcb_partition
from repro.dist.plan import DistPlan, RankPlan, build_dist_plan
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_RW,
    OP_WRITE,
    OpDat,
    OpGlobal,
    op_arg_dat,
    op_arg_gbl,
)
from repro.op2.parloop import ParLoop
from repro.util.validate import ValidationError, check_positive


@dataclass
class RankState:
    """One rank's arrays, dat views and loop objects."""

    plan: RankPlan
    q: np.ndarray
    qold: np.ndarray
    res: np.ndarray
    adt: np.ndarray
    rms: OpGlobal
    loops: dict[str, ParLoop]


def make_owner(mesh: AirfoilMesh, ranks: int, partitioner: str) -> np.ndarray:
    """Cell->rank assignment for the named partitioner ('rcb' or 'band')."""
    if partitioner == "rcb":
        return rcb_partition(cell_centroids(mesh), ranks)
    if partitioner == "band":
        return band_partition(mesh.cells.size, ranks)
    raise ValidationError(
        f"unknown partitioner {partitioner!r}; use 'rcb' or 'band'"
    )


def build_rank_state(
    rp: RankPlan,
    kernels: dict,
    g_qinf: OpGlobal,
    freestream: np.ndarray,
    arrays: dict[str, np.ndarray] | None = None,
) -> RankState:
    """Build one rank's dat views and loop objects.

    ``arrays`` optionally supplies preallocated storage for the four cell
    fields (``q``/``res``/``adt`` over owned+halo rows, ``qold`` over owned
    rows) — the procs mode passes views over shared-memory segments here so
    the parent can assemble results without copying through a queue. The
    arrays are (re)initialized in place; omitted, fresh numpy storage is
    allocated.
    """
    n_local = rp.n_owned + rp.n_halo
    if arrays is None:
        arrays = {
            "q": np.empty((n_local, 4)),
            "qold": np.zeros((rp.n_owned, 4)),
            "res": np.zeros((n_local, 4)),
            "adt": np.zeros((n_local, 1)),
        }
    q, qold, res, adt = arrays["q"], arrays["qold"], arrays["res"], arrays["adt"]
    if q.shape != (n_local, 4) or qold.shape != (rp.n_owned, 4):
        raise ValidationError(
            f"rank {rp.rank} array shapes do not match its plan layout"
        )
    q[:] = freestream
    qold[:] = 0.0
    res[:] = 0.0
    adt[:] = 0.0
    x = OpDat("x", rp.nodes_set, 2, rp.x_local)
    bound = OpDat("bound", rp.bedges_set, 1, rp.bound_local, dtype=np.int64)
    rms = OpGlobal(f"rms.r{rp.rank}", 1)

    # Owned-set views (direct cell loops) share storage with the
    # full-local-set dats (indirect edge loops): q[:n_owned] is a
    # contiguous view, so writes through either dat are the same memory.
    q_owned = OpDat("q", rp.owned_set, 4, q[: rp.n_owned])
    q_cells = OpDat("q", rp.cells_set, 4, q)
    qold_owned = OpDat("qold", rp.owned_set, 4, qold)
    res_owned = OpDat("res", rp.owned_set, 4, res[: rp.n_owned])
    res_cells = OpDat("res", rp.cells_set, 4, res)
    adt_owned = OpDat("adt", rp.owned_set, 1, adt[: rp.n_owned])
    adt_cells = OpDat("adt", rp.cells_set, 1, adt)

    loops = {
        "save_soln": ParLoop(
            kernels["save_soln"],
            "save_soln",
            rp.owned_set,
            (
                op_arg_dat(q_owned, -1, OP_ID, OP_READ),
                op_arg_dat(qold_owned, -1, OP_ID, OP_WRITE),
            ),
        ),
        "adt_calc": ParLoop(
            kernels["adt_calc"],
            "adt_calc",
            rp.owned_set,
            (
                op_arg_dat(x, 0, rp.pcell, OP_READ),
                op_arg_dat(x, 1, rp.pcell, OP_READ),
                op_arg_dat(x, 2, rp.pcell, OP_READ),
                op_arg_dat(x, 3, rp.pcell, OP_READ),
                op_arg_dat(q_owned, -1, OP_ID, OP_READ),
                op_arg_dat(adt_owned, -1, OP_ID, OP_WRITE),
            ),
        ),
        "res_calc": ParLoop(
            kernels["res_calc"],
            "res_calc",
            rp.edges_set,
            (
                op_arg_dat(x, 0, rp.pedge, OP_READ),
                op_arg_dat(x, 1, rp.pedge, OP_READ),
                op_arg_dat(q_cells, 0, rp.pecell, OP_READ),
                op_arg_dat(q_cells, 1, rp.pecell, OP_READ),
                op_arg_dat(adt_cells, 0, rp.pecell, OP_READ),
                op_arg_dat(adt_cells, 1, rp.pecell, OP_READ),
                op_arg_dat(res_cells, 0, rp.pecell, OP_INC),
                op_arg_dat(res_cells, 1, rp.pecell, OP_INC),
            ),
        ),
        "bres_calc": ParLoop(
            kernels["bres_calc"],
            "bres_calc",
            rp.bedges_set,
            (
                op_arg_dat(x, 0, rp.pbedge, OP_READ),
                op_arg_dat(x, 1, rp.pbedge, OP_READ),
                op_arg_dat(q_cells, 0, rp.pbecell, OP_READ),
                op_arg_dat(adt_cells, 0, rp.pbecell, OP_READ),
                op_arg_dat(res_cells, 0, rp.pbecell, OP_INC),
                op_arg_dat(bound, -1, OP_ID, OP_READ),
                op_arg_gbl(g_qinf, OP_READ),
            ),
        ),
        "update": ParLoop(
            kernels["update"],
            "update",
            rp.owned_set,
            (
                op_arg_dat(qold_owned, -1, OP_ID, OP_READ),
                op_arg_dat(q_owned, -1, OP_ID, OP_WRITE),
                op_arg_dat(res_owned, -1, OP_ID, OP_RW),
                op_arg_dat(adt_owned, -1, OP_ID, OP_READ),
                op_arg_gbl(rms, OP_INC),
            ),
        ),
    }
    return RankState(plan=rp, q=q, qold=qold, res=res, adt=adt, rms=rms, loops=loops)


class DistAirfoil:
    """The Airfoil solver over ``ranks`` partitions."""

    #: the canonical timestep in its bulk-synchronous shape; stepping walks
    #: it rather than hand-coding the loop/exchange order. Class-level: the
    #: program is frozen data, identical for every instance.
    program = airfoil_timestep(dist=True)

    def __init__(
        self,
        mesh: AirfoilMesh,
        ranks: int,
        partitioner: str = "rcb",
        constants: FlowConstants = DEFAULT_CONSTANTS,
    ) -> None:
        self.mesh = mesh
        self.constants = constants
        owner = make_owner(mesh, ranks, partitioner)
        self.dplan: DistPlan = build_dist_plan(mesh, owner)
        self.exchange = HaloExchange(self.dplan)
        self.kernels = make_kernels(constants)
        freestream = constants.freestream()
        self.g_qinf = OpGlobal("qinf", 4, freestream)
        self.states: list[RankState] = [
            build_rank_state(rp, self.kernels, self.g_qinf, freestream)
            for rp in self.dplan.plans
        ]
        self.iterations = 0

    # -- SPMD stepping ----------------------------------------------------------

    def _all(self, loop_name: str) -> None:
        for state in self.states:
            execute_loop(state.loops[loop_name])

    def step(self) -> None:
        """One timestep: walk the blocking program across all ranks.

        Loop steps run on every rank; a blocking exchange step moves one
        field at a time through :class:`HaloExchange` (``update`` ships
        halo copies owner->holder, ``accumulate`` returns halo increments
        holder->owner).
        """
        for pstep in self.program:
            if isinstance(pstep, ExchangeStep):
                op = getattr(self.exchange, pstep.op)
                for name in pstep.fields:
                    op([getattr(s, name) for s in self.states])
            else:
                self._all(pstep.name)
        self.iterations += 1

    def run(self, niter: int) -> dict[str, float]:
        check_positive("niter", niter, strict=False)
        for _ in range(niter):
            self.step()
        return {
            "iterations": float(self.iterations),
            "rms_total": self.rms_total(),
            "q_norm": float(np.sqrt(np.sum(self.gather_q() ** 2))),
        }

    # -- assembly / inspection ---------------------------------------------------

    def rms_total(self) -> float:
        return float(sum(s.rms.value() for s in self.states))

    def gather_q(self) -> np.ndarray:
        """Assemble the global solution from the owned rows of every rank."""
        out = np.empty((self.mesh.cells.size, 4))
        for state in self.states:
            out[state.plan.owned_cells] = state.q[: state.plan.n_owned]
        return out

    def gather(self, field: str) -> np.ndarray:
        """Assemble any cell field ('q', 'res', 'adt', 'qold')."""
        dim = {"q": 4, "res": 4, "adt": 1, "qold": 4}[field]
        out = np.empty((self.mesh.cells.size, dim))
        for state in self.states:
            arr = getattr(state, field)
            out[state.plan.owned_cells] = arr[: state.plan.n_owned]
        return out
