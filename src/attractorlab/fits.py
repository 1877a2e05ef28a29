"""The least-squares slope and trend test of the dimension and log-doubling
estimators."""

from __future__ import annotations

import numpy as np

__all__ = ["line_fit", "local_slopes", "monotone_increase"]


def line_fit(x, y) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    return float(coef[0])


def local_slopes(x, y) -> np.ndarray:
    """Finite-difference slopes between consecutive samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.diff(y) / np.diff(x)


def monotone_increase(values) -> bool:
    """True when the last half of the sequence increases monotonically, up
    to steps of -1e-9 relative (a divergence certificate; limsups are not
    computable)."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return False
    start = max(0, int(np.floor(len(v) * 0.5)) - 1)
    tail = v[start:]
    scale = np.maximum(np.abs(tail[:-1]), 1.0)
    return bool(np.all(np.diff(tail) > -1e-9 * scale) and tail[-1] > tail[0])
