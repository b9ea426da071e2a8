"""Shared utilities: seeded RNG, table rendering, timing, validation helpers."""

from repro.util.rng import seeded_rng, derive_seed
from repro.util.tables import Table, ascii_plot
from repro.util.timing import WallTimer
from repro.util.validate import (
    check_positive,
    check_in_range,
    ReproError,
    ValidationError,
)

__all__ = [
    "seeded_rng",
    "derive_seed",
    "Table",
    "ascii_plot",
    "WallTimer",
    "check_positive",
    "check_in_range",
    "ReproError",
    "ValidationError",
]
