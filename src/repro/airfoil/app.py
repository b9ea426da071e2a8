"""The Airfoil application driver (paper Fig 4 / Fig 10 / Fig 14).

One solver iteration is::

    save_soln                       # qold <- q
    repeat 2x (RK2-like):           #
        adt_calc                    # local timestep per cell
        res_calc                    # interior fluxes -> res
        bres_calc                   # boundary fluxes -> res
        update                      # q <- qold - res/adt, res <- 0, rms +=

The iteration itself lives in :func:`repro.engine.airfoil.airfoil_timestep`
— the one canonical loop-program definition — and this driver *walks* it.
Three walk variants mirror the paper:

- **sync** (seq / openmp / foreach backends): plain program order — every
  loop completes before the next starts (Fig 4);
- **async**: loops return futures; the ``rt.sync(...)`` points are derived
  from the program's footprint conflicts (with increments commuting), which
  lands them exactly where Fig 10's ``new_data.get()`` calls go — including
  the extra save_soln sync the ``qold`` dependence of update requires, the
  manual-placement hazard the paper itself points out;
- **dataflow**: no syncs at all; the modified OP2 API orders loops by their
  actual data dependencies, across timestep boundaries (Fig 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.airfoil.constants import DEFAULT_CONSTANTS, FlowConstants
from repro.airfoil.kernels import make_kernels
from repro.airfoil.meshgen import AirfoilMesh
from repro.engine import INNER_ITERS, airfoil_timestep
from repro.engine.program import LoopStep, steps_conflict
from repro.op2 import (
    OP_ID,
    OP_INC,
    OP_READ,
    OP_RW,
    OP_WRITE,
    OpDat,
    OpGlobal,
    Op2Runtime,
    op_arg_dat,
    op_arg_gbl,
    op_par_loop,
)
from repro.util.validate import check_positive

__all__ = ["AirfoilApp", "AirfoilResult", "INNER_ITERS"]


@dataclass
class AirfoilResult:
    """Final state of a run, for validation and reporting."""

    iterations: int
    rms_total: float
    q_norm: float
    rms_history: list[float] = field(default_factory=list)

    def final_rms(self, ncells: int) -> float:
        """Paper-style RMS residual (normalized by cell count)."""
        return float(np.sqrt(self.rms_total / ncells))


class AirfoilApp:
    """The Airfoil solver wired to the OP2 API."""

    def __init__(
        self, mesh: AirfoilMesh, constants: FlowConstants = DEFAULT_CONSTANTS
    ) -> None:
        self.mesh = mesh
        self.constants = constants
        self.kernels = make_kernels(constants)

        ncells = mesh.cells.size
        freestream = constants.freestream()
        self.p_x = mesh.x
        self.p_bound = mesh.bound
        self.p_q = OpDat("q", mesh.cells, 4, np.tile(freestream, (ncells, 1)))
        self.p_qold = OpDat("qold", mesh.cells, 4)
        self.p_res = OpDat("res", mesh.cells, 4)
        self.p_adt = OpDat("adt", mesh.cells, 1)
        self.g_rms = OpGlobal("rms", 1)
        self.g_qinf = OpGlobal("qinf", 4, freestream)

        #: the canonical timestep; all three walk variants consume it.
        self.program = airfoil_timestep()
        #: loops fired but not yet synced, for the async walk: the sync
        #: points are derived, not hand-placed.
        self._pending: list[tuple[LoopStep, object]] = []

    # -- the five loops -------------------------------------------------------

    def loop_save_soln(self):
        return op_par_loop(
            self.kernels["save_soln"],
            "save_soln",
            self.mesh.cells,
            op_arg_dat(self.p_q, -1, OP_ID, OP_READ),
            op_arg_dat(self.p_qold, -1, OP_ID, OP_WRITE),
        )

    def loop_adt_calc(self):
        return op_par_loop(
            self.kernels["adt_calc"],
            "adt_calc",
            self.mesh.cells,
            op_arg_dat(self.p_x, 0, self.mesh.pcell, OP_READ),
            op_arg_dat(self.p_x, 1, self.mesh.pcell, OP_READ),
            op_arg_dat(self.p_x, 2, self.mesh.pcell, OP_READ),
            op_arg_dat(self.p_x, 3, self.mesh.pcell, OP_READ),
            op_arg_dat(self.p_q, -1, OP_ID, OP_READ),
            op_arg_dat(self.p_adt, -1, OP_ID, OP_WRITE),
        )

    def loop_res_calc(self):
        return op_par_loop(
            self.kernels["res_calc"],
            "res_calc",
            self.mesh.edges,
            op_arg_dat(self.p_x, 0, self.mesh.pedge, OP_READ),
            op_arg_dat(self.p_x, 1, self.mesh.pedge, OP_READ),
            op_arg_dat(self.p_q, 0, self.mesh.pecell, OP_READ),
            op_arg_dat(self.p_q, 1, self.mesh.pecell, OP_READ),
            op_arg_dat(self.p_adt, 0, self.mesh.pecell, OP_READ),
            op_arg_dat(self.p_adt, 1, self.mesh.pecell, OP_READ),
            op_arg_dat(self.p_res, 0, self.mesh.pecell, OP_INC),
            op_arg_dat(self.p_res, 1, self.mesh.pecell, OP_INC),
        )

    def loop_bres_calc(self):
        return op_par_loop(
            self.kernels["bres_calc"],
            "bres_calc",
            self.mesh.bedges,
            op_arg_dat(self.p_x, 0, self.mesh.pbedge, OP_READ),
            op_arg_dat(self.p_x, 1, self.mesh.pbedge, OP_READ),
            op_arg_dat(self.p_q, 0, self.mesh.pbecell, OP_READ),
            op_arg_dat(self.p_adt, 0, self.mesh.pbecell, OP_READ),
            op_arg_dat(self.p_res, 0, self.mesh.pbecell, OP_INC),
            op_arg_dat(self.p_bound, -1, OP_ID, OP_READ),
            op_arg_gbl(self.g_qinf, OP_READ),
        )

    def loop_update(self):
        return op_par_loop(
            self.kernels["update"],
            "update",
            self.mesh.cells,
            op_arg_dat(self.p_qold, -1, OP_ID, OP_READ),
            op_arg_dat(self.p_q, -1, OP_ID, OP_WRITE),
            op_arg_dat(self.p_res, -1, OP_ID, OP_RW),
            op_arg_dat(self.p_adt, -1, OP_ID, OP_READ),
            op_arg_gbl(self.g_rms, OP_INC),
        )

    # -- program walks --------------------------------------------------------

    def _fire(self, step: LoopStep):
        """Launch one program step through its ``op_par_loop``."""
        return getattr(self, f"loop_{step.name}")()

    def _step_sync(self, rt: Op2Runtime) -> None:
        for step in self.program:
            self._fire(step)

    def _step_async(self, rt: Op2Runtime) -> None:
        # Before each launch, sync exactly the pending futures whose steps
        # conflict with it (increments commute: res_calc and bres_calc fly
        # together). On this program that derivation reproduces Fig 10's
        # hand placement: adt before res/bres, {save, res, bres} before
        # update, update before the next adt — carried across timestep
        # boundaries by the pending list.
        for step in self.program:
            due = [
                (s, f)
                for s, f in self._pending
                if steps_conflict(s, step, commute_incs=True)
            ]
            if due:
                rt.sync(*(f for _, f in due))
                self._pending = [p for p in self._pending if p not in due]
            self._pending.append((step, self._fire(step)))

    def _step_dataflow(self, rt: Op2Runtime) -> None:
        # No synchronization anywhere: the modified API tracks dependencies
        # automatically, including across timestep boundaries.
        for step in self.program:
            self._fire(step)

    def run(self, rt: Op2Runtime, niter: int) -> AirfoilResult:
        """Run ``niter`` timesteps on the given runtime's backend."""
        check_positive("niter", niter, strict=False)
        backend = rt.backend
        if backend.name == "hpx_dataflow":
            step = self._step_dataflow
        elif backend.asynchronous:
            step = self._step_async
        else:
            step = self._step_sync

        history: list[float] = []
        track_history = not backend.asynchronous
        for _ in range(niter):
            step(rt)
            if track_history:
                # rms accumulates monotonically; per-step increments give the
                # classic convergence trace without forcing async syncs.
                history.append(float(self.g_rms.value()))
        rt.finish()
        self._pending.clear()
        return AirfoilResult(
            iterations=niter,
            rms_total=float(self.g_rms.value()),
            q_norm=self.p_q.norm(),
            rms_history=history,
        )
