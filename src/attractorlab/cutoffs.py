"""C-infinity smooth steps and bump functions, and the odd smoothed
square-wave drive with its half-period window integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CutoffError",
    "SmoothStep",
    "BumpFunction",
    "mollifier_bump",
    "PeriodicDrive",
    "CUTOFF_LEVEL",
]

# Unit-step evaluations outside [GUARD, 1-GUARD] are exact endpoint values;
# inside the guard band the step is within exp(-1e8) of them anyway.
_GUARD = 1e-8
# The share of the drive amplitude at which the diagonal step theta2 reaches 1
# and the rotation bump theta1 starts (`floquet.make_periodic_operator`).
CUTOFF_LEVEL = 0.25
# Trapezoid nodes on the unit transition; 1025 already give the same bits
# for the bench drive's cut-offs, 513 do not.
_RAMP_NODES = 2**12 + 1


class CutoffError(ValueError):
    """Degenerate interval or drive parameters."""


def _unit_step(u) -> np.ndarray:
    """The normalized mollifier step h(u) = phi(u) / (phi(u) + phi(1-u)),
    phi(u) = exp(-1/u), in the closed form 1 / (exp(1/(u-1) + 1/u) + 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0 - _GUARD] = 1.0
    interior = (u > _GUARD) & (u < 1.0 - _GUARD)
    if not np.any(interior):
        return out
    x = u[interior]
    with np.errstate(over="ignore"):
        out[interior] = 1.0 / (np.exp(1.0 / (x - 1.0) + 1.0 / x) + 1.0)
    return out


def _unit_step_inverse(level: float) -> float:
    """The u in (0, 1) with h(u) = level, for a level in (0, 1).  Inside the
    guard band h(u) = level exactly when 1/(u - 1) + 1/u = c, c = ln(1/level
    - 1), that is when c u^2 - (c + 2) u + 1 = 0.  Its root in (0, 1) is
    u = 2 / (c + 2 + sqrt(c^2 + 4)), the smaller root ((c + 2) - sqrt(c^2 +
    4)) / (2c) with its numerator rationalized.  sqrt(c^2 + 4) > |c|, so the
    denominator is positive and does not cancel, for every level in (0, 1);
    level 1/2 gives c = 0 and u = 1/2."""
    c = math.log(1.0 / level - 1.0)
    return 2.0 / (c + 2.0 + math.sqrt(c * c + 4.0))


@dataclass(frozen=True)
class SmoothStep:
    """C-infinity step: exactly 0 for x <= lo, exactly 1 for x >= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise CutoffError("smooth step needs hi > lo")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def value(self, x):
        return _unit_step((np.asarray(x, dtype=float) - self.lo) / self.width)


def _ramp_mean(g) -> float:
    """Integral of g(h(u)) over the unit transition u in [0, 1], h the unit
    step, by the trapezoidal rule on a fixed grid.  For a smooth g every
    derivative of g(h(u)) vanishes at both ends, so the rule converges
    faster than any power of the node spacing (Trefethen & Weideman, SIAM
    Review 2014)."""
    u = np.linspace(0.0, 1.0, _RAMP_NODES)
    return float(np.trapezoid(g(_unit_step(u)), u))


@dataclass(frozen=True)
class BumpFunction:
    """Product of a rising and a falling smooth step: 0 outside [support_lo,
    support_hi], exactly 1 on [plateau_lo, plateau_hi], in [0, 1] everywhere."""

    support_lo: float
    plateau_lo: float
    plateau_hi: float
    support_hi: float
    _up: SmoothStep = field(init=False, repr=False)
    _down: SmoothStep = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.support_lo < self.plateau_lo <= self.plateau_hi < self.support_hi):
            raise CutoffError("need support_lo < plateau_lo <= plateau_hi < support_hi")
        object.__setattr__(self, "_up", SmoothStep(self.support_lo, self.plateau_lo))
        object.__setattr__(self, "_down", SmoothStep(-self.support_hi, -self.plateau_hi))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self._up.value(x) * self._down.value(-x)


def mollifier_bump(a: float, b: float, plateau_lo: float, plateau_hi: float) -> BumpFunction:
    """Smooth bump on [a, b] with plateau [plateau_lo, plateau_hi], built from
    normalized-mollifier step transitions."""
    return BumpFunction(a, plateau_lo, plateau_hi, b)


@dataclass(frozen=True)
class PeriodicDrive:
    """Odd 2*tau-periodic smoothed square wave x(t): x < 0 on (0, tau) with
    minimum -amplitude at tau/2, reflection symmetry x(tau - t) = x(t), and
    |x| >= amplitude/2 on at least plateau_fraction of each half-period.

    Over [0, tau], -x is amplitude * h(t/w) on the rising transition [0, w],
    w = transition_width, exactly amplitude on the plateau [w, tau - w], and
    the mirror image on [tau - w, tau].  plateau_fraction > 1/2 keeps
    w < tau/2, so the two transitions never overlap and
    `half_period_integral` is exact up to its one quadrature.
    """

    amplitude: float
    half_period: float
    plateau_fraction: float
    _step: SmoothStep = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.5 < self.plateau_fraction < 1.0:
            raise CutoffError("plateau_fraction must lie in (0.5, 1)")
        if self.amplitude <= 0 or self.half_period <= 0:
            raise CutoffError("amplitude and half_period must be positive")
        object.__setattr__(self, "_step", SmoothStep(0.0, self.transition_width))

    @property
    def transition_width(self) -> float:
        return (1.0 - self.plateau_fraction) * self.half_period

    def _shape(self, t):
        # 0 -> 1 -> 0 profile on [0, tau], symmetric about tau/2
        return self._step.value(t) * self._step.value(self.half_period - t)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        tau = self.half_period
        tt = np.mod(t, 2.0 * tau)
        neg = tt <= tau
        out = np.where(neg, self._shape(tt), -self._shape(2.0 * tau - tt))
        return -self.amplitude * out

    def half_period_integral(self, f) -> float:
        """Integral of f(-x(t)) over t in [0, tau] for a vectorized f:
        (tau - 2w) f(amplitude) from the plateau plus 2w times the mean of
        f(amplitude * h) over one unit transition (`_ramp_mean`)."""
        amp, w = self.amplitude, self.transition_width
        plateau = (self.half_period - 2.0 * w) * float(f(amp))
        return plateau + 2.0 * w * _ramp_mean(lambda h: f(amp * h))

    def plateau_entry_time(self) -> float:
        """First t > 0 with -x(t) = CUTOFF_LEVEL * amplitude: from there on
        the minus half's diagonal step is 1 and its rotation may act.

        On [0, w], w = transition_width, -x(t) = amplitude * h(t/w) *
        h((tau - t)/w), and the falling factor is exactly 1 there, since
        (tau - t)/w >= tau/w - 1 > 1 when w < tau/2.  The rising factor
        increases from 0 to 1, so the root is t = u w with h(u) =
        CUTOFF_LEVEL, u from `_unit_step_inverse`.  That u (about 0.372)
        lies well inside the guard band, where `_unit_step` is the closed
        form the inverse solves."""
        return _unit_step_inverse(CUTOFF_LEVEL) * self.transition_width
