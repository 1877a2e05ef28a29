"""Sign / log-magnitude arithmetic for mode vectors whose entries live far
below the double-precision range (magnitudes like exp(-beta*N^2))."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NEG_INF = float("-inf")

# log of the smallest positive normal double; dense conversion below this
# raises instead of silently flushing to zero.
MIN_NORMAL_LOG = math.log(2.0**-1022)

# Reserved indices for the planar (x, y) block when it rides along with the
# mode coordinates.  Sobolev weights treat them as weight-one directions.
PLANAR_X = -1
PLANAR_Y = -2

__all__ = [
    "NEG_INF",
    "MIN_NORMAL_LOG",
    "PLANAR_X",
    "PLANAR_Y",
    "UnderflowError",
    "log_add_signed",
    "logsumexp",
    "LogModeVector",
]


class UnderflowError(ArithmeticError):
    """Dense conversion would flush a stored magnitude to zero."""


def log_add_signed(s1: int, l1: float, s2: int, l2: float) -> tuple[int, float]:
    """s1*e^l1 + s2*e^l2 as (sign, log"magnitude").  Exact zero -> (0, -inf)."""
    if s1 == 0 or l1 == NEG_INF:
        return (s2, l2) if s2 != 0 else (0, NEG_INF)
    if s2 == 0 or l2 == NEG_INF:
        return s1, l1
    m = l1 if l1 >= l2 else l2
    r = s1 * math.exp(l1 - m) + s2 * math.exp(l2 - m)
    if r == 0.0:
        return 0, NEG_INF
    return (1 if r > 0.0 else -1), m + math.log(abs(r))


def logsumexp(logs) -> float:
    """log(sum exp(l_i)) over nonnegative terms, tolerant of -inf entries."""
    arr = np.asarray(logs, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = np.max(arr)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(arr - m))))


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

    def sign(self, index: int) -> int:
        return self.entries.get(index, (0, NEG_INF))[0]

    def logmag(self, index: int) -> float:
        return self.entries.get(index, (0, NEG_INF))[1]

    def indices(self) -> list[int]:
        return sorted(self.entries)

    def to_dense(self, n_max: int, first_index: int = 1, strict: bool = True):
        """Dense array over indices first_index..first_index+n_max-1.

        Entries below the normal double range raise UnderflowError when
        strict, otherwise they are flushed and reported in the second
        return value.
        """
        out = np.zeros(n_max)
        underflowed = []
        for idx, (s, l) in self.entries.items():
            k = idx - first_index
            if not 0 <= k < n_max:
                continue
            if l < MIN_NORMAL_LOG:
                underflowed.append(idx)
                if strict:
                    raise UnderflowError(
                        f"entry at index {idx} has log-magnitude {l:.3f} below "
                        f"the normal double range ({MIN_NORMAL_LOG:.3f})"
                    )
                continue
            out[k] = s * math.exp(l)
        if strict:
            return out
        return out, underflowed

    def scaled(self, log_factor: float) -> "LogModeVector":
        return LogModeVector({i: (s, l + log_factor) for i, (s, l) in self.entries.items()})

    def subtract(self, other: "LogModeVector") -> "LogModeVector":
        out: dict[int, tuple[int, float]] = {}
        for idx in set(self.entries) | set(other.entries):
            s1, l1 = self.entries.get(idx, (0, NEG_INF))
            s2, l2 = other.entries.get(idx, (0, NEG_INF))
            s, l = log_add_signed(s1, l1, -s2, l2)
            if s != 0:
                out[idx] = (s, l)
        return LogModeVector(out)

    def norm_log(self, weight_log=None) -> float:
        """log of the weighted l2 norm; weight_log(index) returns the log of
        the squared-coordinate weight (Sobolev: s*log(lambda_n), planar 0)."""
        terms = []
        for idx, (_, l) in self.entries.items():
            w = 0.0 if weight_log is None else weight_log(idx)
            terms.append(w + 2.0 * l)
        return 0.5 * logsumexp(terms)
