"""Backend interface and the shared gather/compute/scatter execution core.

Every backend ultimately runs kernels through :func:`execute_loop`:

1. **gather** — for each argument, materialize a per-element batch buffer:
   direct args view/copy rows of the dat, indirect args gather through the
   map column, reduction args get identity-initialized buffers;
2. **compute** — invoke the vectorized kernel on the batch (or the elemental
   kernel row by row);
3. **scatter** — write results back: assignment for WRITE/RW, duplicate-safe
   ``np.add.at`` for indirect increments, and associative combination for
   global reductions.

This factorization makes the numerical result of every backend identical by
construction; backends differ only in how the iteration space is cut up and
ordered — which is precisely the paper's experimental variable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.op2.access import Access
from repro.op2.args import Arg
from repro.op2.dat import OpGlobal
from repro.op2.exceptions import Op2Error
from repro.op2.parloop import ParLoop

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpx.future import Future
    from repro.op2.plan import Plan
    from repro.op2.runtime import Op2Runtime
    from repro.sim.machine import MachineConfig
    from repro.sim.task import TaskGraph
    from repro.op2.runtime import LoopLog


def _target_indices(arg: Arg, elements: np.ndarray | slice) -> np.ndarray | slice:
    """Row indices of ``arg.dat`` touched by ``elements`` of the loop set."""
    if arg.is_direct:
        return elements
    assert arg.map_ is not None
    return arg.map_.values[elements, arg.idx]


def gather_args(
    loop: ParLoop, elements: np.ndarray | slice, n: int
) -> tuple[list[np.ndarray], list[tuple[Arg, Any, np.ndarray]]]:
    """Build kernel input buffers; returns (buffers, scatter work list)."""
    buffers: list[np.ndarray] = []
    writebacks: list[tuple[Arg, Any, np.ndarray]] = []
    for arg in loop.args:
        if arg.is_global:
            gbl = arg.dat
            assert isinstance(gbl, OpGlobal)
            if arg.access is Access.READ:
                buf = gbl.data  # shared read-only constant
            elif arg.access is Access.INC:
                buf = np.zeros((n, gbl.dim), dtype=gbl.data.dtype)
            elif arg.access is Access.MIN:
                buf = np.full((n, gbl.dim), np.inf, dtype=gbl.data.dtype)
            elif arg.access is Access.MAX:
                buf = np.full((n, gbl.dim), -np.inf, dtype=gbl.data.dtype)
            else:  # pragma: no cover - blocked in op_arg_gbl
                raise Op2Error(f"unsupported global access {arg.access}")
            buffers.append(buf)
            if arg.access is not Access.READ:
                writebacks.append((arg, None, buf))
            continue

        dat = arg.dat
        tgt = _target_indices(arg, elements)
        if arg.access is Access.READ:
            buf = dat.data[tgt]  # view for direct slices, copy for gathers
        elif arg.access is Access.RW:
            buf = np.array(dat.data[tgt])  # private copy, scattered back
        elif arg.access is Access.WRITE:
            buf = np.empty((n, dat.dim), dtype=dat.data.dtype)
        elif arg.access is Access.INC:
            buf = np.zeros((n, dat.dim), dtype=dat.data.dtype)
        elif arg.access is Access.MIN:
            buf = np.full((n, dat.dim), np.inf, dtype=dat.data.dtype)
        elif arg.access is Access.MAX:
            buf = np.full((n, dat.dim), -np.inf, dtype=dat.data.dtype)
        else:  # pragma: no cover - exhaustive
            raise Op2Error(f"unsupported access {arg.access}")
        buffers.append(buf)
        if arg.access.writes:
            writebacks.append((arg, tgt, buf))
    return buffers, writebacks


def scatter_args(
    writebacks: list[tuple[Arg, Any, np.ndarray]],
    global_sink: list[tuple[Arg, np.ndarray]] | None = None,
) -> None:
    """Write kernel outputs back into dats/globals.

    When ``global_sink`` is given, global reductions are *not* applied to the
    shared ``OpGlobal`` storage; instead the batch-reduced partial is appended
    to the sink. Threaded execution uses this to keep concurrent tasks from
    racing on globals and to combine partials in a fixed (deterministic)
    order on the calling thread.
    """
    for arg, tgt, buf in writebacks:
        if arg.is_global:
            gbl = arg.dat
            assert isinstance(gbl, OpGlobal)
            if global_sink is not None:
                if arg.access is Access.INC:
                    global_sink.append((arg, buf.sum(axis=0)))
                elif arg.access is Access.MIN:
                    global_sink.append((arg, buf.min(axis=0)))
                elif arg.access is Access.MAX:
                    global_sink.append((arg, buf.max(axis=0)))
                continue
            if arg.access is Access.INC:
                gbl.data += buf.sum(axis=0)
            elif arg.access is Access.MIN:
                np.minimum(gbl.data, buf.min(axis=0), out=gbl.data)
            elif arg.access is Access.MAX:
                np.maximum(gbl.data, buf.max(axis=0), out=gbl.data)
            continue
        dat = arg.dat
        if arg.access in (Access.WRITE, Access.RW):
            dat.data[tgt] = buf
        elif arg.access is Access.INC:
            if arg.is_direct:
                dat.data[tgt] += buf  # direct: no duplicate targets possible
            else:
                np.add.at(dat.data, tgt, buf)
        elif arg.access is Access.MIN:
            if arg.is_direct:
                np.minimum(dat.data[tgt], buf, out=dat.data[tgt])
            else:
                np.minimum.at(dat.data, tgt, buf)
        elif arg.access is Access.MAX:
            if arg.is_direct:
                np.maximum(dat.data[tgt], buf, out=dat.data[tgt])
            else:
                np.maximum.at(dat.data, tgt, buf)


def apply_global_partials(partials: list[tuple[Arg, np.ndarray]]) -> None:
    """Fold deferred global-reduction partials into their ``OpGlobal``s.

    Partials are combined strictly in list order; threaded execution builds
    the list in task-submission order, which makes MIN/MAX/INC reductions
    deterministic regardless of worker scheduling.
    """
    for arg, part in partials:
        gbl = arg.dat
        assert isinstance(gbl, OpGlobal)
        if arg.access is Access.INC:
            gbl.data += part
        elif arg.access is Access.MIN:
            np.minimum(gbl.data, part, out=gbl.data)
        elif arg.access is Access.MAX:
            np.maximum(gbl.data, part, out=gbl.data)


def execute_loop(
    loop: ParLoop,
    elements: np.ndarray | slice | None = None,
    mode: str = "vectorized",
    *,
    global_sink: list[tuple[Arg, np.ndarray]] | None = None,
    bump_versions: bool = True,
) -> None:
    """Run ``loop`` over ``elements`` (default: the whole set).

    ``mode="vectorized"`` uses the kernel's numpy batch implementation;
    ``mode="elemental"`` applies the scalar kernel row by row (reference
    semantics; used by tests and tiny meshes).

    ``global_sink``/``bump_versions`` support threaded execution: global
    partials can be collected instead of applied (see :func:`scatter_args`)
    and dat version bumps deferred to the orchestrating thread.
    """
    if elements is None:
        elements = slice(0, loop.set_.size)
    if isinstance(elements, slice):
        n = len(range(*elements.indices(loop.set_.size)))
    else:
        n = len(elements)
    if n == 0:
        return
    buffers, writebacks = gather_args(loop, elements, n)

    if mode == "vectorized":
        if not loop.kernel.has_vectorized:
            raise Op2Error(
                f"kernel {loop.kernel.name!r} has no vectorized form; "
                f"use mode='elemental'"
            )
        loop.kernel.vectorized(*buffers)
    elif mode == "elemental":
        gbl_read = [a.is_global and a.access is Access.READ for a in loop.args]
        for k in range(n):
            row_args = [
                buf if is_const else buf[k]
                for buf, is_const in zip(buffers, gbl_read)
            ]
            loop.kernel.elemental(*row_args)
    else:
        raise Op2Error(f"unknown execution mode {mode!r}")

    scatter_args(writebacks, global_sink=global_sink)
    if bump_versions:
        bump_written_versions(loop)


def bump_written_versions(loop: ParLoop) -> None:
    """Bump the version of each *distinct* written dat exactly once.

    A dat passed through two args of one loop (e.g. ``res`` via two map
    columns) must not be double-bumped: dependence invalidation counts
    writes per loop, not per argument.
    """
    seen: set[int] = set()
    for arg in loop.args:
        if not arg.is_global and arg.access.writes and id(arg.dat) not in seen:
            seen.add(id(arg.dat))
            arg.dat.bump_version()


def execute_loop_by_plan(loop: ParLoop, plan: "Plan", mode: str = "vectorized") -> None:
    """Execute block by block in color order (validates plan machinery)."""
    for color_class in plan.classes:
        for b in color_class:
            execute_loop(loop, plan.block_elements(b), mode=mode)


class Backend(ABC):
    """One loop-parallelization strategy: execution + task-graph emission."""

    #: registry key; subclasses override.
    name: str = "abstract"
    #: True when run_loop returns futures the application may sync on.
    asynchronous: bool = False

    def on_attach(self, rt: "Op2Runtime") -> None:
        """Hook: called once when a runtime adopts this backend."""

    @abstractmethod
    def run_loop(
        self, rt: "Op2Runtime", loop: ParLoop, plan: "Plan", loop_id: int
    ) -> "Future | None":
        """Execute (or schedule) one loop; returns a future iff asynchronous."""

    def _thread_chunker(self, rt: "Op2Runtime"):
        """Decomposition policy for real-thread execution (threads mode).

        The default — an even split of each color class across workers —
        matches OpenMP's static schedule; backends with their own chunking
        story (for_each auto/static) override this.
        """
        from repro.hpx.chunking import GuessChunkSize

        return GuessChunkSize()

    def run_loop_threads(
        self, rt: "Op2Runtime", loop: ParLoop, plan: "Plan", loop_id: int
    ) -> "Future | None":
        """Execute one loop on the runtime's real thread pool.

        Color classes run as sequential fork-join batches; blocks of one
        color execute concurrently (they write disjoint rows by plan
        coloring). Synchronous backends return ``None``; the async flavors
        override this with dependency-released scheduling and return the
        loop's future.
        """
        from repro.backends.threaded import run_forkjoin

        run_forkjoin(rt.thread_pool, rt.obs, loop, plan, self._thread_chunker(rt))
        return None

    def finalize(self, rt: "Op2Runtime") -> None:
        """Complete outstanding asynchronous work (no-op for sync backends)."""

    def cancel(self, rt: "Op2Runtime") -> None:
        """Drop backend-side scheduling state after an aborted session.

        Called instead of :meth:`finalize` when the session body raised.
        Backends holding futures or dependency trackers override this so a
        runtime reused by a later session does not replay stale work.
        """

    @abstractmethod
    def emit(
        self,
        log: "LoopLog",
        machine: "MachineConfig",
        num_threads: int,
        cost_model: "Any",
    ) -> "TaskGraph":
        """Emit the simulator task graph for a recorded run at ``num_threads``."""
