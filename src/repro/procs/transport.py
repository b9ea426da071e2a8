"""Inter-rank halo message transport over ``multiprocessing`` pipes.

The measured counterpart of :class:`repro.dist.exchange.HaloExchange`: the
same import/export lists, but each message is real bytes crossing a real OS
pipe between two rank processes. Two calling conventions over the same
channels:

- :meth:`HaloTransport.update_blocking` / :meth:`accumulate_blocking` —
  bulk-synchronous: post every send, then sit in the receives (the
  MPI+OpenMP baseline's ``MPI_Waitall`` shape);
- the :meth:`update_start`/:meth:`update_wait` (and accumulate) pairs —
  the nonblocking halves: ``*_start`` packs and posts the sends and
  returns immediately, so boundary-first schedules run interior compute
  while the bytes are in flight; ``*_wait`` drains the matching receives
  and unpacks.

Every received message is recorded as a ``(nbytes, seconds)`` observation —
send timestamp to completed receive on a cross-process monotonic clock —
which :func:`repro.dist.comm.fit_comm_model` turns back into a calibrated
alpha-beta :class:`~repro.dist.comm.CommModel`.

Wire format: an 8-byte little-endian float64 send timestamp followed by the
row-major float64 payload. Multiple fields exchanged together (q + adt) are
packed column-wise into one message per neighbor — one latency, not two.

Caveat: ``Connection.send_bytes`` blocks once the kernel socket buffer
fills (~64 KiB-200 KiB). Halo messages are a thin mesh surface, orders of
magnitude below that; a workload with megabyte halos would need a sender
thread here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from time import monotonic
from typing import Sequence

import numpy as np

from repro.dist.plan import DistPlan
from repro.util.validate import ValidationError

#: send timestamp (monotonic seconds; system-wide on the platforms the
#: procs mode supports, so receive-side latency is meaningful).
_HEADER = struct.Struct("<d")


@dataclass
class RankChannels:
    """One rank's pipe endpoints, built by :func:`build_channels`.

    ``export_conns[s]`` talks to neighbor ``s`` holding our cells in its
    halo: we send updates on it and receive accumulations from it.
    ``import_conns[r]`` talks to the owner ``r`` of our halo cells: we
    receive updates on it and send accumulations to it.
    """

    rank: int
    export_conns: dict[int, object] = field(default_factory=dict)
    import_conns: dict[int, object] = field(default_factory=dict)

    def close(self) -> None:
        for conn in list(self.export_conns.values()) + list(
            self.import_conns.values()
        ):
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass


def build_channels(dplan: DistPlan, ctx) -> list[RankChannels]:
    """One duplex pipe per directed owner->holder halo relationship.

    ``ctx`` is a ``multiprocessing`` context; the connections are passed to
    the rank processes at spawn (pipe inheritance works under both fork and
    spawn start methods).
    """
    channels = [RankChannels(rank=r) for r in range(dplan.ranks)]
    for holder, rp in enumerate(dplan.plans):
        for owner in sorted(rp.imports):
            owner_end, holder_end = ctx.Pipe(duplex=True)
            channels[owner].export_conns[holder] = owner_end
            channels[holder].import_conns[owner] = holder_end
    return channels


@dataclass(frozen=True)
class MessageRecord:
    """One received message: calibration's raw observation."""

    kind: str  # "update" | "accumulate"
    peer: int
    nbytes: int
    latency: float  # seconds, peer's send() to our completed recv


class HaloTransport:
    """One rank's halo-exchange endpoint over its :class:`RankChannels`.

    ``exports``/``imports`` are the rank plan's local index lists: exports
    index the owned region (rows we serve to each neighbor, in the
    neighbor's import order), imports index the halo region (rows each
    owner fills for us).
    """

    def __init__(
        self,
        rank: int,
        exports: dict[int, np.ndarray],
        imports: dict[int, np.ndarray],
        channels: RankChannels,
    ) -> None:
        if channels.rank != rank:
            raise ValidationError(
                f"channels belong to rank {channels.rank}, not {rank}"
            )
        self.rank = rank
        self.exports = {int(s): np.asarray(idx) for s, idx in exports.items()}
        self.imports = {int(r): np.asarray(idx) for r, idx in imports.items()}
        self.channels = channels
        self.bytes_updated = 0
        self.bytes_accumulated = 0
        self.messages_updated = 0
        self.messages_accumulated = 0
        self.records: list[MessageRecord] = []
        self._inflight: set[str] = set()

    # -- packing ------------------------------------------------------------

    @staticmethod
    def _pack(fields: Sequence[np.ndarray], rows: np.ndarray) -> bytes:
        """Column-concatenate the ``rows`` of every field into one payload."""
        total_dim = sum(f.shape[1] for f in fields)
        buf = np.empty((len(rows), total_dim), dtype=np.float64)
        col = 0
        for f in fields:
            buf[:, col : col + f.shape[1]] = np.take(f, rows, axis=0)
            col += f.shape[1]
        return _HEADER.pack(monotonic()) + buf.tobytes()

    @staticmethod
    def _unpack(
        payload: bytes, fields: Sequence[np.ndarray], nrows: int
    ) -> tuple[np.ndarray, float, int]:
        """Split one payload back into (rows matrix, latency, nbytes)."""
        (sent,) = _HEADER.unpack_from(payload)
        latency = max(0.0, monotonic() - sent)
        nbytes = len(payload) - _HEADER.size
        total_dim = sum(f.shape[1] for f in fields)
        buf = np.frombuffer(
            payload, dtype=np.float64, offset=_HEADER.size
        ).reshape(nrows, total_dim)
        return buf, latency, nbytes

    def _mark(self, kind: str, starting: bool) -> None:
        if starting:
            if kind in self._inflight:
                raise ValidationError(
                    f"{kind} exchange already in flight on rank {self.rank}"
                )
            self._inflight.add(kind)
        else:
            if kind not in self._inflight:
                raise ValidationError(
                    f"no {kind} exchange in flight on rank {self.rank}"
                )
            self._inflight.discard(kind)

    # -- owner -> halo updates ----------------------------------------------

    def update_start(self, fields: Sequence[np.ndarray]) -> None:
        """Post the owned export rows to every halo holder; returns at once."""
        self._mark("update", starting=True)
        for s in sorted(self.exports):
            payload = self._pack(fields, self.exports[s])
            self.channels.export_conns[s].send_bytes(payload)
            self.bytes_updated += len(payload) - _HEADER.size
            self.messages_updated += 1

    def update_wait(self, fields: Sequence[np.ndarray]) -> None:
        """Drain the matching receives: fill our halo rows from each owner."""
        self._mark("update", starting=False)
        for r in sorted(self.imports):
            rows = self.imports[r]
            payload = self.channels.import_conns[r].recv_bytes()
            buf, latency, nbytes = self._unpack(payload, fields, len(rows))
            col = 0
            for f in fields:
                f[rows] = buf[:, col : col + f.shape[1]]
                col += f.shape[1]
            self.records.append(MessageRecord("update", r, nbytes, latency))

    def update_blocking(self, fields: Sequence[np.ndarray]) -> None:
        """Bulk-synchronous owner->halo refresh (send all, then wait all)."""
        self.update_start(fields)
        self.update_wait(fields)

    # -- halo -> owner accumulation ------------------------------------------

    def accumulate_start(self, fields: Sequence[np.ndarray]) -> None:
        """Ship our halo partial sums to their owners and zero the halo rows."""
        self._mark("accumulate", starting=True)
        for r in sorted(self.imports):
            rows = self.imports[r]
            payload = self._pack(fields, rows)
            self.channels.import_conns[r].send_bytes(payload)
            self.bytes_accumulated += len(payload) - _HEADER.size
            self.messages_accumulated += 1
            for f in fields:
                f[rows] = 0.0

    def accumulate_wait(self, fields: Sequence[np.ndarray]) -> None:
        """Receive every neighbor's partial sums into our owned export rows."""
        self._mark("accumulate", starting=False)
        for s in sorted(self.exports):
            rows = self.exports[s]
            payload = self.channels.export_conns[s].recv_bytes()
            buf, latency, nbytes = self._unpack(payload, fields, len(rows))
            col = 0
            for f in fields:
                f[rows] += buf[:, col : col + f.shape[1]]
                col += f.shape[1]
            self.records.append(MessageRecord("accumulate", s, nbytes, latency))

    def accumulate_blocking(self, fields: Sequence[np.ndarray]) -> None:
        """Bulk-synchronous halo->owner accumulation."""
        self.accumulate_start(fields)
        self.accumulate_wait(fields)

    # -- accounting ----------------------------------------------------------

    def comm_counters(self) -> dict[str, int]:
        """Counters in the shape of ``HaloExchange.comm_counters``."""
        return {
            "messages_updated": self.messages_updated,
            "messages_accumulated": self.messages_accumulated,
            "bytes_updated": self.bytes_updated,
            "bytes_accumulated": self.bytes_accumulated,
        }

    def message_log(self, limit: int = 4096) -> list[tuple[int, float]]:
        """The (nbytes, latency) pairs calibration consumes, bounded."""
        return [(rec.nbytes, rec.latency) for rec in self.records[:limit]]
