"""Time-periodic rotation operator whose Poincare map is a weighted shift:
calibration, numeric propagation, exact log-space iterate norms, and the
closing law and ratio certificate built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cutoffs import BumpFunction, PeriodicDrive, SmoothStep, mollifier_bump, smooth_step
from .integrators import _safe_norm, lawson_rk4
# adaptive_simpson is not called here, but the layer tracer in
# perfbench/layers.py wraps this module binding; drop it with simulate's.
from .quadrature import adaptive_simpson  # noqa: F401
from .spectral import Spectrum, cube_width

__all__ = [
    "FloquetError",
    "calibrate_epsilon",
    "PeriodicOperator",
    "make_periodic_operator",
    "WeightedShift",
    "poincare_predicted",
    "NumericPoincare",
    "poincare_numeric",
    "shift_match_report",
    "IterateNorms",
    "iterate_norm",
    "ClosingLaw",
    "closing_law",
    "ratio_bounds_check",
]


class FloquetError(RuntimeError):
    """Calibration or propagation failure."""


def calibrate_epsilon(drive: PeriodicDrive, theta1: BumpFunction) -> float:
    """The rotation coupling epsilon = pi / (2 * integral of theta1(-x(t))
    over a half-period), so the phase equation sweeps exactly a quarter turn
    over the active window of each half-period.

    The integral is `drive.half_period_integral`: an exact plateau term plus
    a fixed trapezoid rule over the drive's unit transition.
    """
    integral = drive.half_period_integral(theta1.value)
    if integral <= 0.0:
        raise FloquetError("rotation window has zero measure; cannot calibrate")
    return math.pi / (2.0 * integral)


@dataclass(frozen=True)
class PeriodicOperator:
    """Block-rotation coupling Phi(x(t)) over n_modes modes.

    When x < 0 it couples pairs (2n-1, 2n), when x > 0 pairs (2n, 2n+1);
    mode 1 carries a calibrated diagonal in the positive window so that its
    effective decay rate over the window is exactly lambda_1 / 2, matching
    the predicted shift multiplier closed forms at finite smooth
    transitions.
    """

    spectrum: Spectrum
    drive: PeriodicDrive
    theta1: BumpFunction
    theta2: SmoothStep
    epsilon: float
    anchor_scale: float
    n_modes: int

    @property
    def half_period(self) -> float:
        return self.drive.half_period

    @property
    def period(self) -> float:
        return 2.0 * self.drive.half_period

    @cached_property
    def lam(self) -> np.ndarray:
        return self.spectrum.values[: self.n_modes]

    @cached_property
    def _templates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Constant matrices so Phi(t) is a 4-term scalar combination:
        Phi = theta2(-x) Dm + eps theta1(-x) Rm + theta2(x) Dp + eps theta1(x) Rp."""
        lam = self.lam
        n = self.n_modes
        dm = np.zeros((n, n))
        rm = np.zeros((n, n))
        dp = np.zeros((n, n))
        rp = np.zeros((n, n))
        for j in range(n // 2):
            a, b = 2 * j, 2 * j + 1
            d = 0.5 * (lam[a] - lam[b])
            dm[a, a] += d
            dm[b, b] -= d
            rm[a, b] += 1.0
            rm[b, a] -= 1.0
        dp[0, 0] += 0.5 * lam[0] * self.anchor_scale
        for j in range((n - 1) // 2):
            a, b = 2 * j + 1, 2 * j + 2
            d = 0.5 * (lam[a] - lam[b])
            dp[a, a] += d
            dp[b, b] -= d
            rp[a, b] += 1.0
            rp[b, a] -= 1.0
        return dm, rm, dp, rp

    def _coefficients(self, t):
        x = self.drive.value(t)
        tm = self.theta2.value(-x)
        tp = self.theta2.value(x)
        r1m = self.epsilon * self.theta1.value(-x)
        r1p = self.epsilon * self.theta1.value(x)
        return tm, r1m, tp, r1p

    def tabulated_rhs(self, t0: float, t1: float, steps: int, columns: int = 1):
        """rhs(t, u) = Phi(t) u with the drive coefficients pre-evaluated on
        the Lawson stage grid (t0 + k h/2); evaluation off the grid raises.

        With `columns` > 1, [t0, t1] is cut into that many equal windows of
        `steps` steps each, and rhs(t, U) steps column j of U through window
        j: t is the array of column times, and each stage applies one
        coefficient row with an entry per column.  The rows are strided
        views of one table on the whole grid, np.linspace(t0, t1, 2 columns
        steps + 1), so column j reads the very coefficients that a
        one-column rhs on [t0, t1] with columns * steps steps reads in
        window j."""
        dm, rm, dp, rp = self._templates
        stages = 2 * steps
        grid = np.linspace(t0, t1, columns * stages + 1)
        coeffs = self._coefficients(grid)
        half = (t1 - t0) / (columns * stages)
        if columns == 1:
            tm, r1m, tp, r1p = coeffs

            def rhs(t, u):
                k = int(round((t - t0) / half))
                return tm[k] * (dm @ u) + r1m[k] * (rm @ u) + tp[k] * (dp @ u) + r1p[k] * (rp @ u)

            return rhs
        # row k, column j is entry j * stages + k of the table: a view, no copy
        tm, r1m, tp, r1p = (np.lib.stride_tricks.sliding_window_view(c, stages + 1)[::stages].T
                            for c in coeffs)

        def column_rhs(t, u):
            k = int(round((t[0] - t0) / half))
            return tm[k] * (dm @ u) + r1m[k] * (rm @ u) + tp[k] * (dp @ u) + r1p[k] * (rp @ u)

        return column_rhs


def make_periodic_operator(
    spectrum: Spectrum,
    drive: PeriodicDrive,
    n_modes: int | None = None,
    epsilon: float | None = None,
) -> PeriodicOperator:
    """Assemble the operator with default cut-offs tied to the drive
    amplitude; epsilon defaults to the calibrated quarter-turn value (pass 0
    for the rotation-free control).  The anchor scale is tau over the
    half-period integral of theta2(-x(t)), taken by
    `drive.half_period_integral` like epsilon's."""
    amp = drive.amplitude
    theta1 = mollifier_bump(amp / 4.0, 2.0 * amp, amp / 2.0, 1.5 * amp)
    theta2 = smooth_step(0.0, amp / 4.0)
    if epsilon is None:
        epsilon = calibrate_epsilon(drive, theta1)
    i2 = drive.half_period_integral(theta2.value)
    if i2 <= 0.0:
        raise FloquetError("diagonal window has zero measure")
    n_modes = spectrum.n_max if n_modes is None else n_modes
    if n_modes > spectrum.n_max:
        raise FloquetError("operator truncation exceeds the stored spectrum")
    return PeriodicOperator(spectrum, drive, theta1, theta2, epsilon,
                            drive.half_period / i2, n_modes)


@dataclass(frozen=True)
class WeightedShift:
    """Exact Poincare map: an index permutation plus natural-log multipliers.

    Pattern: e_{2n-1} -> e_{2n+1}, e_{2n} -> e_{2n-2} (n > 1), e_2 -> e_1,
    all with positive coefficients.
    """

    spectrum: Spectrum
    half_period: float
    image_index: dict[int, int]
    log_multiplier: dict[int, float]

    @property
    def modes(self) -> list[int]:
        return sorted(self.image_index)

    def image(self, mode: int) -> int:
        return self.image_index[mode]

    def log_mult(self, mode: int) -> float:
        return self.log_multiplier[mode]


def poincare_predicted(spec: Spectrum, half_period: float) -> WeightedShift:
    """Closed-form weighted shift of the full-period map.

    Multipliers: mode (2n-1) carries exp(-T (lam_{2n-1} + 2 lam_{2n} +
    lam_{2n+1}) / 2); mode 2 carries exp(-T (2 lam_1 + lam_2) / 2); mode 2n
    (n > 1) carries exp(-T (lam_{2n-2} + 2 lam_{2n-1} + lam_{2n}) / 2).
    """
    if spec.n_max < 3:
        raise FloquetError("need at least three modes for the shift pattern")
    T = half_period
    image: dict[int, int] = {}
    logmult: dict[int, float] = {}
    for mode in range(1, spec.n_max + 1):
        if mode % 2 == 1:
            if mode + 2 > spec.n_max and spec.family == "explicit":
                continue
            image[mode] = mode + 2
            logmult[mode] = -T * (spec.lam(mode) + 2.0 * spec.lam(mode + 1)
                                  + spec.lam(mode + 2)) / 2.0
        elif mode == 2:
            image[mode] = 1
            logmult[mode] = -T * (2.0 * spec.lam(1) + spec.lam(2)) / 2.0
        else:
            image[mode] = mode - 2
            logmult[mode] = -T * (spec.lam(mode - 2) + 2.0 * spec.lam(mode - 1) + spec.lam(mode)) / 2.0
    return WeightedShift(spec, T, image, logmult)


@dataclass(frozen=True)
class NumericPoincare:
    """One-period propagator columns U(2T, 0) e_m for m = 1..n_columns,
    integrated over an internally extended truncation so no requested column
    is clipped by an orphaned rotation partner."""

    matrix: np.ndarray
    n_columns: int
    steps: int


# Relative change of the propagator under a step doubling that ends the refinement.
PROPAGATOR_TOL = 1e-10


def poincare_numeric(op: PeriodicOperator, n_trunc: int) -> NumericPoincare:
    guard = 1 if n_trunc % 2 == 0 else 2
    n_int = n_trunc + guard
    spectrum = op.spectrum if n_int <= op.spectrum.n_max else op.spectrum.truncated(n_int)
    inner = replace(op, spectrum=spectrum, n_modes=n_int)
    lam = inner.lam
    period = inner.period
    steps = 512
    prev = lawson_rk4(lam, inner.tabulated_rhs(0.0, period, steps),
                      np.eye(n_int), 0.0, period, steps)
    while steps <= (1 << 20):
        steps *= 2
        cur = lawson_rk4(lam, inner.tabulated_rhs(0.0, period, steps),
                         np.eye(n_int), 0.0, period, steps)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= PROPAGATOR_TOL * scale:
            return NumericPoincare(cur[:, :n_trunc], n_trunc, steps)
        prev = cur
    raise FloquetError(f"no propagator convergence to tol={PROPAGATOR_TOL:g}")


def shift_match_report(numeric: NumericPoincare, predicted: WeightedShift) -> dict:
    """Column-by-column comparison of the propagated matrix against the
    closed-form shift: relative log-multiplier error and off-pattern mass."""
    max_log_rel = 0.0
    max_off = 0.0
    positive = True
    for mode in range(1, numeric.n_columns + 1):
        col = numeric.matrix[:, mode - 1]
        target = predicted.image(mode)
        expected = predicted.log_mult(mode)
        got = col[target - 1]
        if got == 0.0:
            return {"pattern_ok": False, "max_log_rel_err": math.inf, "max_off_pattern": math.inf}
        log_rel = abs(math.log(abs(got)) - expected) / abs(expected) if expected else abs(
            math.log(abs(got))
        )
        rest = col.copy()
        rest[target - 1] = 0.0
        off = float(np.max(np.abs(rest))) / _safe_norm(col)
        max_log_rel = max(max_log_rel, log_rel)
        max_off = max(max_off, off)
        positive = positive and bool(got > 0)
    return {
        "pattern_ok": positive,
        "max_log_rel_err": max_log_rel,
        "max_off_pattern": max_off,
    }


@dataclass(frozen=True)
class IterateNorms:
    """Exact logs of the iterate norms along the shift orbit (no underflow):
    lognorms[k] is log ||P^k e_mode|| for k = 0..count."""

    mode: int
    count: int
    lognorms: tuple[float, ...]
    orbit: tuple[int, ...]

    @property
    def lognorm(self) -> float:
        return self.lognorms[-1]


def iterate_norm(shift: WeightedShift, mode: int, count: int) -> IterateNorms:
    """Telescoped multiplier sums of up to `count` applications of the shift
    to e_mode, recorded as the running totals of one orbit walk."""
    if count < 0:
        raise FloquetError("iterate count must be nonnegative")
    total = 0.0
    totals = [total]
    orbit = [mode]
    cur = mode
    for step in range(count):
        if cur not in shift.image_index:
            raise FloquetError(
                f"orbit exits the stored truncation at step {step + 1} (mode {cur})"
            )
        total += shift.log_multiplier[cur]
        totals.append(total)
        cur = shift.image_index[cur]
        orbit.append(cur)
    return IterateNorms(mode, count, tuple(totals), tuple(orbit))


# Periods of mode 1's shift orbit that `closing_law` walks.
WALK_PERIODS = 1000


@dataclass(frozen=True)
class ClosingLaw:
    """How y_k = -log ||P^k e_1|| grows along mode 1's shift orbit, read at
    the tail of the walk: y_k ~ k^p, lambda(orbit_k) ~ y_k^gamma_star, and
    beta is half the tail second difference of y.  For lambda_n ~ c n^kappa,
    p = 1 + kappa and gamma_star = kappa / (1 + kappa)."""

    p: float
    gamma_star: float
    beta: float

    @property
    def superexponential(self) -> bool:
        """The regime predicate: the distance closes faster than any
        exponential, y_k growing faster than linearly in k."""
        return self.p > 1.0


def closing_law(spec: Spectrum, half_period: float) -> ClosingLaw:
    """The closing law from one walk of mode 1's predicted shift orbit.

    A family spectrum extends to 2 WALK_PERIODS + 3 modes, so the walk runs
    WALK_PERIODS periods.  An explicit spectrum cannot extend: mode 2k - 1
    maps to 2k + 1 only while 2k + 1 <= n_max, so its walk stops there.
    p is the log-log slope of y between the walk's last two periods, and
    gamma_star the slope of log lambda(orbit_k) against log y_k over the
    same step: the least gamma for which ||A d|| <= C d (log(C0 / d))^gamma
    holds along the orbit.
    """
    if spec.family != "explicit":
        spec = spec.truncated(2 * WALK_PERIODS + 3)
    periods = min(WALK_PERIODS, (spec.n_max - 1) // 2)
    if periods < 2:
        raise FloquetError(f"the closing law needs two periods of mode 1's orbit; "
                           f"the truncation holds {periods}")
    walk = iterate_norm(poincare_predicted(spec, half_period), 1, periods)
    y0, y1, y2 = (-v for v in walk.lognorms[-3:])
    lam0, lam1 = (spec.lam(m) for m in walk.orbit[-2:])
    # at the tail both differences are exact (Sterbenz: the values lie within
    # a factor 2), so log1p keeps the small logs accurate
    growth = math.log1p((y2 - y1) / y1)
    return ClosingLaw(growth / math.log1p(1.0 / (periods - 1)),
                      math.log1p((lam1 - lam0) / lam0) / growth,
                      0.5 * (y2 - 2.0 * y1 + y0))


def ratio_bounds_check(shift: WeightedShift, n: int) -> dict:
    """Exact log-space verification that after N = 2n + ceil(sqrt(n)) periods
    the first mode's iterate is quadratically smaller than any of the band
    e_{2s}, s in [n, n + ceil(sqrt(n))], while the band itself spreads by at
    most n^(3/2)."""
    if n < 1:
        raise FloquetError("level must be positive")
    k = cube_width(n)
    count = 2 * n + k
    base = iterate_norm(shift, 1, count).lognorm
    band = {s: iterate_norm(shift, 2 * s, count).lognorm for s in range(n, n + k + 1)}
    gaps = [base - v for v in band.values()]  # log(||P^N e_1|| / ||P^N e_2s||)
    spread = max(band.values()) - min(band.values())
    beta = -max(gaps) / n**2
    gamma = spread / n**1.5 if spread > 0 else 0.0
    return {
        "beta": beta,
        "gamma": gamma,
        "first_mode_lognorm": base,
        "band_lognorms": band,
        "passes": beta > 0.0,
    }
