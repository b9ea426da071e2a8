"""The parallel algorithm ``for_each``.

It mirrors the ``hpx::parallel`` algorithm over integer ranges (the form OP2's
generated loops use — Fig 6 of the paper iterates over ``irange(0, nblocks)``).

Policy semantics:

- ``seq``: run inline on the caller, return ``None``.
- ``par``: decompose via the policy's chunker, run chunks as executor tasks,
  join before returning (fork-join; the end-of-loop barrier the paper blames
  for lost scalability). An :class:`~repro.hpx.chunking.AutoPartitioner`
  prefix chunk is executed inline *before* the parallel chunks are spawned,
  matching HPX's measurement pass.
- ``par(task)``: same decomposition, but return a
  :class:`~repro.hpx.future.Future` that becomes ready when every chunk has
  run — the caller proceeds immediately (paper §III-A2).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.hpx.chunking import Chunk, validate_cover
from repro.hpx.future import Future, make_ready_future, when_all
from repro.hpx.policies import ExecutionPolicy
from repro.hpx.runtime import get_runtime


def _run_chunk(body: Callable[[int], None], chunk: Chunk) -> None:
    for i in range(chunk.start, chunk.stop):
        body(i)


def for_each(
    policy: ExecutionPolicy,
    iterable: range | list | tuple,
    body: Callable[[Any], None],
) -> Future | None:
    """``hpx::parallel::for_each`` over a sized sequence."""
    items = iterable if isinstance(iterable, (list, tuple, range)) else list(iterable)

    def apply(i: int) -> None:
        body(items[i])

    n = len(items)
    runtime = get_runtime()
    executor = runtime.executor

    if not policy.parallel:
        for i in range(n):
            apply(i)
        return make_ready_future(None, executor) if policy.task else None

    chunker = policy.effective_chunker()
    chunks = chunker.chunks(n, runtime.num_threads)
    validate_cover(chunks, n)

    # Execute any measurement prefix inline, as HPX's auto partitioner does.
    parallel_chunks: list[Chunk] = []
    for chunk in chunks:
        if chunk.serial_prefix:
            _run_chunk(apply, chunk)
        else:
            parallel_chunks.append(chunk)

    futures = [
        executor.submit(_run_chunk, apply, chunk, name=f"chunk[{chunk.start}:{chunk.stop}]")
        for chunk in parallel_chunks
    ]
    joined = when_all(futures, executor).then(lambda _: None, name="for_each.join")

    if policy.task:
        return joined
    joined.get()  # fork-join barrier: wait for every chunk
    return None
