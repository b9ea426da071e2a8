"""The HPX runtime façade: executor ownership and ``async_``.

A :class:`HPXRuntime` owns a :class:`~repro.hpx.executor.TaskExecutor`
configured for a number of (logical) OS threads. A module-level current
runtime makes the ``hpx.async_(...)`` / ``hpx.for_each(...)`` free functions
ergonomic, mirroring how HPX applications use a process-global runtime.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.hpx.executor import TaskExecutor
from repro.hpx.future import Future
from repro.util.validate import check_positive


class HPXRuntime:
    """Owns the task executor and exposes runtime-wide configuration."""

    def __init__(self, num_threads: int = 4) -> None:
        check_positive("num_threads", num_threads)
        self.num_threads = int(num_threads)
        self.executor = TaskExecutor(self.num_threads)

    def async_(self, fn: Callable[..., Any], *args: Any, name: str = "") -> Future:
        """``hpx::async``: schedule ``fn(*args)``, return its future (Fig 8)."""
        return self.executor.submit(fn, *args, name=name)

    def run(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` to completion on the runtime and drain stragglers."""
        result = self.async_(fn, *args).get()
        self.executor.drain()
        return result

    @property
    def stats(self):
        return self.executor.stats

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HPXRuntime threads={self.num_threads}>"


_current: HPXRuntime | None = None


def get_runtime() -> HPXRuntime:
    """Return the current runtime, creating a default 4-thread one lazily."""
    global _current
    if _current is None:
        _current = HPXRuntime()
    return _current


def set_runtime(runtime: HPXRuntime | None) -> HPXRuntime | None:
    """Install ``runtime`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = runtime
    return previous


def async_(fn: Callable[..., Any], *args: Any, name: str = "") -> Future:
    """Free-function ``hpx::async`` against the current runtime."""
    return get_runtime().async_(fn, *args, name=name)
