"""Backend interface and the shared gather/compute/scatter execution core.

Every backend ultimately runs kernels through :func:`execute_loop`:

1. **gather** — for each argument, materialize a per-element batch buffer:
   direct args view/copy rows of the dat, indirect args gather through the
   map column, reduction args get identity-initialized buffers;
2. **compute** — invoke the vectorized kernel on the batch (or the elemental
   kernel row by row);
3. **scatter** — write results back: assignment for WRITE/RW, one
   duplicate-safe 1-D ``ufunc.at`` per component for increments (and
   MIN/MAX) through an index array, in-place combination over a slice, and
   ``ufunc.reduce`` folds for global reductions.

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


#: The combining ufunc of each reduction access: increments and global folds
#: (``ufunc.reduce`` is what ``.sum/.min/.max(axis=0)`` call) use one table.
_REDUCE = {Access.INC: np.add, Access.MIN: np.minimum, Access.MAX: np.maximum}


def _target_indices(arg: Arg, elements: np.ndarray | slice) -> np.ndarray | slice:
    """Row indices of ``arg.dat`` touched by ``elements`` of the loop set."""
    if arg.is_direct:
        return elements
    assert arg.map_ is not None
    if isinstance(elements, slice):
        return arg.map_.values[elements, arg.idx]
    return np.take(arg.map_.values[:, arg.idx], elements)


def _identity_buffer(access: Access, n: int, dim: int, dtype: Any) -> np.ndarray:
    """An ``(n, dim)`` buffer holding the identity of reduction ``access``."""
    if access is Access.INC:
        return np.zeros((n, dim), dtype=dtype)
    if access is Access.MIN:
        return np.full((n, dim), np.inf, dtype=dtype)
    if access is Access.MAX:
        return np.full((n, dim), -np.inf, dtype=dtype)
    raise Op2Error(f"unsupported access {access}")  # pragma: no cover


def gather_args(
    loop: ParLoop, elements: np.ndarray | slice, n: int
) -> tuple[list[np.ndarray], list[tuple[Arg, Any, np.ndarray]]]:
    """Build kernel input buffers; returns (buffers, scatter work list).

    A gather through an index array is one ``np.take`` along rows; a slice
    keeps its view (READ) or copy (RW).
    """
    buffers: list[np.ndarray] = []
    writebacks: list[tuple[Arg, Any, np.ndarray]] = []
    for arg in loop.args:
        if arg.is_global:
            gbl = arg.dat
            assert isinstance(gbl, OpGlobal)
            if arg.access is Access.READ:
                buf = gbl.data  # shared read-only constant
            else:  # op_arg_gbl admits only READ and the reductions
                buf = _identity_buffer(arg.access, n, gbl.dim, gbl.data.dtype)
                writebacks.append((arg, None, buf))
            buffers.append(buf)
            continue

        dat = arg.dat
        tgt = _target_indices(arg, elements)
        if arg.access in (Access.READ, Access.RW):
            if isinstance(tgt, slice):
                buf = dat.data[tgt]  # a view; RW scatters back a private copy
                if arg.access is Access.RW:
                    buf = buf.copy()
            else:
                buf = np.take(dat.data, tgt, axis=0)
        elif arg.access is Access.WRITE:
            buf = np.empty((n, dat.dim), dtype=dat.data.dtype)
        else:
            buf = _identity_buffer(arg.access, n, dat.dim, dat.data.dtype)
        buffers.append(buf)
        if arg.access.writes:
            writebacks.append((arg, tgt, buf))
    return buffers, writebacks


def scatter_args(
    writebacks: list[tuple[Arg, Any, np.ndarray]],
    global_sink: list[tuple[Arg, np.ndarray]] | None = None,
) -> None:
    """Write kernel outputs back into dats/globals.

    A reduction into an index array is one 1-D ``ufunc.at`` per component
    on the strided column ``dat.data[:, k]``: it applies each row's
    increments in element order, exactly as a 2-D ``ufunc.at`` would, so
    duplicate targets accumulate bit-identically. An array of direct rows
    takes the same path (its rows are distinct); a slice combines in place.

    When ``global_sink`` is given, global reductions are *not* applied to the
    shared ``OpGlobal`` storage; instead the batch-reduced partial is appended
    to the sink. Threaded execution uses this to keep concurrent tasks from
    racing on globals and to combine partials in a fixed (deterministic)
    order on the calling thread.
    """
    for arg, tgt, buf in writebacks:
        ufunc = _REDUCE.get(arg.access)
        if arg.is_global:
            part = ufunc.reduce(buf, axis=0)
            if global_sink is not None:
                global_sink.append((arg, part))
            else:
                ufunc(arg.dat.data, part, out=arg.dat.data)
            continue
        data = arg.dat.data
        if ufunc is None:  # WRITE / RW
            data[tgt] = buf
        elif isinstance(tgt, slice):
            view = data[tgt]
            ufunc(view, buf, out=view)
        else:
            for k in range(data.shape[1]):
                ufunc.at(data[:, k], tgt, buf[:, k])


def apply_global_partials(partials: list[tuple[Arg, np.ndarray]]) -> None:
    """Fold deferred global-reduction partials into their ``OpGlobal``s.

    Partials are combined strictly in list order; threaded execution builds
    the list in task-submission order, which makes MIN/MAX/INC reductions
    deterministic regardless of worker scheduling.
    """
    for arg, part in partials:
        gbl = arg.dat
        assert isinstance(gbl, OpGlobal)
        _REDUCE[arg.access](gbl.data, part, out=gbl.data)


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
