"""Inter-node communication cost model.

Standard alpha-beta (Hockney) model: a message of ``n`` bytes between two
nodes costs ``latency + n / bandwidth`` microseconds. Defaults approximate a
commodity cluster interconnect of the paper's era (QDR InfiniBand-ish:
~1.5 us latency, ~3 GB/s effective per link).

:func:`fit_comm_model` closes the loop with the measured procs mode: the
per-message (bytes, seconds) records of the real pipe transport are
least-squares fitted back onto the alpha-beta form, so simulated schedules
can be re-costed with this host's actual wire behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.validate import ValidationError, check_positive


@dataclass(frozen=True)
class CommModel:
    """Alpha-beta message cost, times in microseconds."""

    #: per-message latency (us).
    latency: float = 1.5
    #: effective bandwidth (bytes per us; 3000 B/us = 3 GB/s).
    bandwidth: float = 3000.0
    #: per-message CPU cost of packing/unpacking on the endpoints (us),
    #: plus a per-byte gather/scatter cost.
    pack_base: float = 0.3
    pack_per_byte: float = 0.0005

    def __post_init__(self) -> None:
        check_positive("latency", self.latency, strict=False)
        check_positive("bandwidth", self.bandwidth)
        check_positive("pack_base", self.pack_base, strict=False)
        check_positive("pack_per_byte", self.pack_per_byte, strict=False)

    def wire_cost(self, nbytes: int) -> float:
        """Time on the wire for one message."""
        return self.latency + nbytes / self.bandwidth

    def pack_cost(self, nbytes: int) -> float:
        """Endpoint CPU time to pack (or unpack) one message."""
        return self.pack_base + nbytes * self.pack_per_byte


def fit_comm_model(
    nbytes: Sequence[int], seconds: Sequence[float]
) -> CommModel | None:
    """Least-squares alpha-beta fit of measured per-message latencies.

    ``nbytes[i]``/``seconds[i]`` describe one observed message (size, time
    from send to completed receive). The fit is ``t_us = alpha + n / beta``;
    pack costs keep their defaults (the measured time already includes the
    endpoints, so a calibrated model is an upper envelope for the wire).

    With fewer than two distinct message sizes the slope is unidentifiable,
    so the mean observed time becomes the latency and the default bandwidth
    is kept. A fit whose intercept or slope is not positive — sizes that
    never left the latency floor, or timing noise larger than the size
    effect — describes no wire at all and returns ``None``.
    """
    if len(nbytes) != len(seconds) or not nbytes:
        raise ValidationError(
            "need one (nbytes, seconds) pair per observed message"
        )
    import numpy as np

    n = np.asarray(nbytes, dtype=np.float64)
    t_us = np.asarray(seconds, dtype=np.float64) * 1e6
    if len(np.unique(n)) < 2:
        return CommModel(
            latency=max(float(t_us.mean()), 1e-3),
            bandwidth=CommModel().bandwidth,
        )
    slope, intercept = np.polyfit(n, t_us, 1)
    if slope <= 0.0 or intercept <= 0.0:
        return None
    return CommModel(latency=float(intercept), bandwidth=float(1.0 / slope))
