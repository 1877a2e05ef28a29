"""Shared least-squares and trend-test helpers used by the geometry estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LineFit", "line_fit", "local_slopes", "monotone_increase"]


@dataclass(frozen=True)
class LineFit:
    slope: float
    r_squared: float


def line_fit(x, y) -> LineFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return LineFit(float(coef[0]), r2)


def local_slopes(x, y) -> np.ndarray:
    """Finite-difference slopes between consecutive samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.diff(y) / np.diff(x)


def monotone_increase(values, window_fraction: float = 0.5) -> bool:
    """True when the last `window_fraction` of the sequence increases
    monotonically, up to steps of -1e-9 relative (a divergence certificate;
    limsups are not computable)."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        return False
    start = max(0, int(np.floor(len(v) * (1.0 - window_fraction))) - 1)
    tail = v[start:]
    scale = np.maximum(np.abs(tail[:-1]), 1.0)
    return bool(np.all(np.diff(tail) > -1e-9 * scale) and tail[-1] > tail[0])
