"""C-infinity smooth steps and bump functions with derivatives up to order
12, and the odd smoothed square-wave drive with its half-period window
integrals."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CutoffError",
    "SmoothStep",
    "smooth_step",
    "BumpFunction",
    "mollifier_bump",
    "PeriodicDrive",
    "periodic_drive",
]

# Unit-step evaluations outside [GUARD, 1-GUARD] are exact endpoint values;
# inside the guard band every derivative is below 1e-200 anyway.
_GUARD = 1e-8
_MAX_ORDER = 12
# Trapezoid nodes on the unit transition; 1025 already give the same bits
# for the bench drive's cut-offs, 513 do not.
_RAMP_NODES = 2**12 + 1


class CutoffError(ValueError):
    """Degenerate interval, derivative order or drive parameters."""


def _check_order(order: int) -> None:
    if not 0 <= order <= _MAX_ORDER:
        raise CutoffError(f"derivative order must lie in 0..{_MAX_ORDER}, got {order}")


def _phi_jet(x: np.ndarray, order: int) -> list[np.ndarray]:
    """Taylor coefficients of phi(x + d) = exp(-1/(x + d)) in d up to d^order:
    the jet of -1/x is r^(j+1) with r = -1/x, and e = exp(g) obeys
    e_k = (1/k) sum_j j g_j e_(k-j)."""
    r = -1.0 / x
    g = [r ** (j + 1) for j in range(order + 1)]
    e = [np.exp(r)]
    for k in range(1, order + 1):
        e.append(sum(j * g[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


def _unit_step(u, order: int = 0) -> np.ndarray:
    """order-th derivative of the normalized mollifier step
    h(u) = phi(u) / (phi(u) + phi(1-u)), phi(u) = exp(-1/u).

    Order 0 is the closed form 1 / (exp(1/(u-1) + 1/u) + 1); higher orders
    come from truncated Taylor arithmetic on phi(u) and phi(1-u) and the
    quotient recurrence, times order!."""
    _check_order(order)
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    if order == 0:
        out[u >= 1.0 - _GUARD] = 1.0
    interior = (u > _GUARD) & (u < 1.0 - _GUARD)
    if not np.any(interior):
        return out
    x = u[interior]
    if order == 0:
        with np.errstate(over="ignore"):
            out[interior] = 1.0 / (np.exp(1.0 / (x - 1.0) + 1.0 / x) + 1.0)
        return out
    a = _phi_jet(x, order)
    b = [(-1.0) ** k * c for k, c in enumerate(_phi_jet(1.0 - x, order))]
    d = [p + q for p, q in zip(a, b)]  # d_0 >= exp(-2): one of u, 1-u is >= 1/2
    h = [a[0] / d[0]]
    for k in range(1, order + 1):
        h.append((a[k] - sum(d[j] * h[k - j] for j in range(1, k + 1))) / d[0])
    out[interior] = h[order] * math.factorial(order)
    return out


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

    def derivative(self, x, order: int = 1):
        u = (np.asarray(x, dtype=float) - self.lo) / self.width
        return _unit_step(u, order) / self.width**order

    def __call__(self, x):
        return self.value(x)


def smooth_step(lo: float, hi: float) -> SmoothStep:
    return SmoothStep(lo, hi)


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

    def derivative(self, x, order: int = 1):
        _check_order(order)
        if order == 0:
            return self.value(x)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        # Leibniz over the two step factors; the falling factor carries (-1)^j.
        for j in range(order + 1):
            a = self._up.derivative(x, j)
            b = self._down.derivative(-x, order - j)
            out += math.comb(order, j) * a * ((-1.0) ** (order - j)) * b
        return out

    def __call__(self, x):
        return self.value(x)


def mollifier_bump(a: float, b: float, plateau_lo: float, plateau_hi: float) -> BumpFunction:
    """Smooth bump on [a, b] with plateau [plateau_lo, plateau_hi], built from
    normalized-mollifier step transitions; derivatives up to order 12 are
    evaluable everywhere."""
    if not (a < plateau_lo <= plateau_hi < b):
        raise CutoffError("need a < plateau_lo <= plateau_hi < b")
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

    def _shape_derivative(self, t):
        up = self._step.value(t)
        dn = self._step.value(self.half_period - t)
        dup = self._step.derivative(t)
        ddn = self._step.derivative(self.half_period - t)
        return dup * dn - up * ddn

    def value(self, t):
        t = np.asarray(t, dtype=float)
        tau = self.half_period
        tt = np.mod(t, 2.0 * tau)
        neg = tt <= tau
        out = np.where(neg, self._shape(tt), -self._shape(2.0 * tau - tt))
        return -self.amplitude * out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        tau = self.half_period
        tt = np.mod(t, 2.0 * tau)
        neg = tt <= tau
        out = np.where(
            neg, self._shape_derivative(tt), self._shape_derivative(2.0 * tau - tt)
        )
        return -self.amplitude * out

    def __call__(self, t):
        return self.value(t)

    def half_period_integral(self, f) -> float:
        """Integral of f(-x(t)) over t in [0, tau] for a vectorized f:
        (tau - 2w) f(amplitude) from the plateau plus 2w times the mean of
        f(amplitude * h) over one unit transition (`_ramp_mean`)."""
        amp, w = self.amplitude, self.transition_width
        plateau = (self.half_period - 2.0 * w) * float(f(amp))
        return plateau + 2.0 * w * _ramp_mean(lambda h: f(amp * h))

    def plateau_entry_time(self, level_fraction: float = 0.25, tol: float = 1e-12) -> float:
        """First t > 0 with -x(t) = level_fraction * amplitude (bisection)."""
        target = level_fraction * self.amplitude
        lo, hi = 0.0, 0.5 * self.half_period
        f = lambda t: -float(self.value(t)) - target
        if f(hi) < 0:
            raise CutoffError("drive never reaches the requested level")
        while hi - lo > tol * self.half_period:
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def periodic_drive(amplitude: float, tau: float, plateau_fraction: float = 0.75) -> PeriodicDrive:
    return PeriodicDrive(amplitude, tau, plateau_fraction)
