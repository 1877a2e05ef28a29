"""C-infinity bump functions, cut-off families with certified derivative
bounds, the odd square-wave drive, and the planar limit-cycle field."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fits import monotone_increase

__all__ = [
    "CutoffError",
    "SmoothStep",
    "smooth_step",
    "BumpFunction",
    "mollifier_bump",
    "BoundLaw",
    "CutoffFamily",
    "build_cutoff_family",
    "PeriodicDrive",
    "periodic_drive",
    "planar_rhs",
]

# Unit-step evaluations outside [GUARD, 1-GUARD] are exact endpoint values;
# inside the guard band every derivative is below 1e-200 anyway.
_GUARD = 1e-8
_MAX_ORDER = 12


class CutoffError(ValueError):
    """Degenerate interval or overlapping supports."""


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

    @property
    def support(self) -> tuple[float, float]:
        return (self.support_lo, self.support_hi)

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
class BoundLaw:
    """Declared derivative-growth law for a cut-off family.

    kind "inverse_width": sup|psi_n^(k)| <= C_k * |I_n|^(-k);
    kind "dyadic":        sup|psi_n^(R)| <= M_R * 2^(2*R*level_n).
    """

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in ("inverse_width", "dyadic"):
            raise CutoffError(f"unknown bound law {self.kind!r}")
        if not 0 < self.order <= _MAX_ORDER:
            raise CutoffError("bound-law order out of range")


@dataclass(frozen=True)
class CutoffFamily:
    """Disjointly supported bumps psi_n with anchors s_n: psi_n(s_m) is
    exactly the Kronecker delta."""

    intervals: tuple[tuple[float, float], ...]
    anchors: tuple[float, ...]
    members: tuple[BumpFunction, ...]
    bound_law: BoundLaw
    levels: tuple[int, ...]

    def member_value(self, n: int, x):
        return self.members[n].value(x)

    def kronecker_matrix(self) -> np.ndarray:
        anchors = np.asarray(self.anchors)
        return np.array([m.value(anchors) for m in self.members])

    def interval_lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.intervals])

    def check_bounds(self, samples_per_interval: int = 4096) -> dict:
        """Sample sup |psi_n^(k)| on each support and report the empirical
        law constants; flags a violation when the constants trend upward
        (the law demands an n-independent constant)."""
        k = self.bound_law.order
        sups = []
        for m in self.members:
            xs = np.linspace(m.support_lo, m.support_hi, samples_per_interval)
            sups.append(float(np.max(np.abs(m.derivative(xs, k)))))
        sups = np.asarray(sups)
        if self.bound_law.kind == "inverse_width":
            constants = sups * self.interval_lengths() ** k
        else:
            constants = sups / np.exp2(2.0 * k * np.asarray(self.levels, dtype=float))
        return {
            "order": k,
            "kind": self.bound_law.kind,
            "sampled_sup": sups,
            "constants": constants,
            "constant": float(np.max(constants)),
            "violated": bool(len(constants) >= 4 and monotone_increase(constants)),
        }


def build_cutoff_family(
    intervals,
    anchors,
    bound_law: BoundLaw,
    levels=None,
    plateau_margin: float = 0.5,
) -> CutoffFamily:
    """Family of bumps over pairwise-disjoint intervals, each exactly 1 at its
    own anchor and exactly 0 on every other member's interval."""
    intervals = [tuple(map(float, iv)) for iv in intervals]
    anchors = [float(a) for a in anchors]
    if len(intervals) != len(anchors):
        raise CutoffError("need one anchor per interval")
    order = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    for i, j in zip(order, order[1:]):
        if intervals[i][1] > intervals[j][0]:
            raise CutoffError(
                f"intervals {intervals[i]} and {intervals[j]} overlap"
            )
    members = []
    for (lo, hi), anchor in zip(intervals, anchors):
        if not lo < anchor < hi:
            raise CutoffError(f"anchor {anchor} not interior to ({lo}, {hi})")
        p_lo = lo + plateau_margin * (anchor - lo)
        p_hi = hi - plateau_margin * (hi - anchor)
        members.append(BumpFunction(lo, p_lo, p_hi, hi))
    levels = tuple(range(1, len(members) + 1)) if levels is None else tuple(levels)
    return CutoffFamily(tuple(intervals), tuple(anchors), tuple(members), bound_law, levels)


@dataclass(frozen=True)
class PeriodicDrive:
    """Odd 2*tau-periodic smoothed square wave x(t): x < 0 on (0, tau) with
    minimum -amplitude at tau/2, reflection symmetry x(tau - t) = x(t), and
    |x| >= amplitude/2 on at least plateau_fraction of each half-period."""

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


def planar_rhs(x: float, y: float) -> tuple[float, float]:
    """Planar field with the unit circle as attracting set and the radial
    dynamics R' = -R (R^2 - 1)."""
    r2 = x * x + y * y
    return (-x * (r2 - 1.0), -y * (r2 - 1.0))
