"""Integer-array helpers for the whole-array plan and dependency passes."""

from __future__ import annotations

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_dtype(bound: int) -> np.dtype:
    """The narrower of int32/int64 that holds every value in ``[0, bound)``."""
    return np.dtype(np.int32) if bound <= _INT32_MAX else np.dtype(np.int64)


def sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return its distinct values, ascending.

    ``np.unique`` minus its defensive copy: the passes own their key arrays,
    so besides the result the only allocation is the keep-mask.
    """
    keys.sort()
    if keys.size < 2:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]
