"""Sign / log-magnitude storage for mode vectors whose entries live far
below the double-precision range (magnitudes like exp(-beta*N^2))."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")

# Reserved indices for the planar (x, y) block when it rides along with the
# mode coordinates.  Sobolev weights treat them as weight-one directions.
PLANAR_X = -1
PLANAR_Y = -2

__all__ = [
    "NEG_INF",
    "PLANAR_X",
    "PLANAR_Y",
    "LogModeVector",
]


@dataclass(frozen=True)
class LogModeVector:
    """Sparse point: index -> (sign, natural-log magnitude).

    Index 0 is unused; positive indices are eigenmode coordinates, the
    reserved negative indices carry the planar block.
    """

    entries: dict[int, tuple[int, float]] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, (s, l) in self.entries.items():
            if s == 0 or l == NEG_INF:
                continue
            clean[int(idx)] = (int(s), float(l))
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_dense(cls, values, first_index: int = 1) -> "LogModeVector":
        entries = {}
        for k, v in enumerate(np.asarray(values, dtype=float)):
            if v == 0.0:
                continue
            entries[first_index + k] = (1 if v > 0 else -1, math.log(abs(v)))
        return cls(entries)

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def scaled(self, log_factor: float) -> "LogModeVector":
        return LogModeVector({i: (s, l + log_factor) for i, (s, l) in self.entries.items()})
