"""Time-periodic rotation operator whose Poincare map is a weighted shift:
calibration, numeric propagation, exact log-space iterate norms, and the
closing law and ratio certificate built on them.

The numeric map is the product of two half-period maps.  Only one coupling
acts in each half-period, as `separation_certificate` checks exactly from
the cut-off parameters, so each half's map is block-diagonal in 2x2 blocks;
two colour columns recover every step's blocks in one batched Lawson step
of the half's two O(n) terms, and the blocks multiply in a pairwise tree.
`period_advance` applies the two halves' blocks to state columns in O(n)
each, and `simulate` runs its periods through it.  `poincare_numeric`
scatters them into dense matrices by step doubling: it is the test oracle
of the closed form in `phases`, which `floquet` runs, and stays in the
package because the benchmark's layer tracer wraps it."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cutoffs import CUTOFF_LEVEL, BumpFunction, PeriodicDrive, SmoothStep, mollifier_bump
from .integrators import lawson_rk4
# adaptive_simpson is not called here, but the layer tracer in
# perfbench/layers.py wraps this module binding; drop it with simulate's.
from .quadrature import adaptive_simpson  # noqa: F401
from .spectral import Spectrum, cube_width, site_pairs

__all__ = [
    "FloquetError",
    "calibrate_epsilon",
    "PeriodicOperator",
    "make_periodic_operator",
    "separation_certificate",
    "half_pairs",
    "WeightedShift",
    "poincare_predicted",
    "NumericPoincare",
    "poincare_numeric",
    "period_advance",
    "truncated_operator",
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
    """Block-rotation coupling Phi(x(t)) over n_modes modes,

        Phi = theta2(-x) D- + eps theta1(-x) R- + theta2(x) D+ + eps theta1(x) R+.

    When x < 0 it couples pairs (2n-1, 2n), when x > 0 pairs (2n, 2n+1)
    (`site_pairs`).  Each site's D is diagonal, +-half the pair's gap, and
    each R is the 2x2 rotation generator on its pairs, so both act on a
    state in O(n).  Mode 1 carries a calibrated diagonal in the positive
    window so that its effective decay rate over the window is exactly
    lambda_1 / 2, matching the predicted shift multiplier closed forms at
    finite smooth transitions.
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

    @property
    def coupling_norm_max(self) -> float:
        """sup over t of the operator norm of Phi(t).  A pair's block of Phi
        is -(theta2 d) sigma_z + r J with d its half-gap, whose norm is
        theta2 |d| + r, and r > 0 only where theta2 = 1 (`phases`):
        so the ramps peak at |d| and the rotation at |d| + eps, on the
        bump's plateau.  Mode 1's anchor diagonal peaks at lam_1
        anchor_scale / 2."""
        half_gap = 0.5 * float(np.max(np.abs(np.diff(self.lam))))
        return max(half_gap + self.epsilon, 0.5 * float(self.lam[0]) * self.anchor_scale)

    def _coefficients(self, t, plus: bool):
        """One half's rows theta2(+-x) and eps theta1(+-x) at the times t,
        + on the plus half."""
        x = self.drive.value(t)
        if not plus:
            x = -x
        return self.theta2.value(x), self.epsilon * self.theta1.value(x)

    def tabulated_rhs(self, plus: bool, t0: float, t1: float, columns: int):
        """rhs(t, U) = Phi(t) U on one half-period's window [t0, t1] for
        `columns` columns, column j taking one Lawson step over [t0 + j h,
        t0 + (j + 1) h].  One `_coefficients` call gives the half's rows on
        np.linspace(t0, t1, 2 columns + 1); column 0's time gives the stage
        k = round((t[0] - t0) / (h / 2)), whose entry 2 j + k column j uses.

        The half's diagonal (mode 1's anchor on the plus half) times U plus
        its rotation's signed gather sign * U[partner], O(n cols) each, is
        bitwise the dense sum tm D- U + r1m R- U + tp D+ U + r1p R+ U: the
        other half's rows are exactly 0 here (`separation_certificate`), a
        dense row with one nonzero entry sums to exactly that product, a
        zero-coefficient term only adds a signed zero, and zeros come out
        +0, as the dense sum gives them for a nondecreasing spectrum and
        nonnegative coefficients."""
        n = self.n_modes
        lam = self.lam
        half = (t1 - t0) / (2 * columns)
        diag_row, rot_row = (np.lib.stride_tricks.sliding_window_view(c, 3)[::2].T
                             for c in self._coefficients(np.linspace(t0, t1, 2 * columns + 1),
                                                         plus))
        a, b = site_pairs(n, "plus" if plus else "minus")
        half_gap = 0.5 * (lam[a] - lam[b])
        diag = np.zeros((n, 1))
        diag[a, 0], diag[b, 0] = half_gap, -half_gap
        if plus:
            diag[0, 0] = 0.5 * lam[0] * self.anchor_scale  # mode 1's anchor
        # a lone mode's rotation row has sign 0
        sign = np.zeros((n, 1))
        sign[a], sign[b] = 1.0, -1.0
        partner = np.arange(n)
        partner[a], partner[b] = b, a

        def column_rhs(t, u):
            k = round((t.item(0) - t0) / half)
            out = diag * u
            out *= diag_row[k]
            term = u[partner]
            term *= sign
            term *= rot_row[k]
            out += term
            out += 0.0  # a zero sum reads +0, as the dense sum's does
            return out

        return column_rhs


def make_periodic_operator(
    spectrum: Spectrum,
    drive: PeriodicDrive,
    n_modes: int | None = None,
    epsilon: float | None = None,
) -> PeriodicOperator:
    """Assemble the operator over n_modes <= spectrum.n_max modes (default
    all) with default cut-offs tied to the drive amplitude; epsilon defaults
    to the calibrated quarter-turn value (pass 0 for the rotation-free
    control).  The anchor scale is tau over the half-period integral of
    theta2(-x(t)), taken by `drive.half_period_integral` like epsilon's."""
    amp = drive.amplitude
    level = CUTOFF_LEVEL * amp
    theta1 = mollifier_bump(level, 2.0 * amp, amp / 2.0, 1.5 * amp)
    theta2 = SmoothStep(0.0, level)
    if epsilon is None:
        epsilon = calibrate_epsilon(drive, theta1)
    i2 = drive.half_period_integral(theta2.value)
    if i2 <= 0.0:
        raise FloquetError("diagonal window has zero measure")
    return PeriodicOperator(spectrum, drive, theta1, theta2, epsilon, drive.half_period / i2,
                            spectrum.n_max if n_modes is None else n_modes)


@dataclass(frozen=True)
class WeightedShift:
    """Exact Poincare map: an index permutation plus natural-log multipliers,
    as arrays indexed by mode 1..n_max (entry 0 is unused).

    Pattern: e_{2n-1} -> e_{2n+1}, e_{2n} -> e_{2n-2} (n > 1), e_2 -> e_1,
    all with positive coefficients.  `image` is 0 where the truncation
    holds no image, and may name a mode past n_max.
    """

    image: np.ndarray
    log_multiplier: np.ndarray


def poincare_predicted(spec: Spectrum, half_period: float) -> WeightedShift:
    """Closed-form weighted shift of the full-period map.

    Multipliers: mode (2n-1) carries exp(-T (lam_{2n-1} + 2 lam_{2n} +
    lam_{2n+1}) / 2); mode 2 carries exp(-T (2 lam_1 + lam_2) / 2); mode 2n
    (n > 1) carries exp(-T (lam_{2n-2} + 2 lam_{2n-1} + lam_{2n}) / 2).
    A family spectrum extends two modes past n_max for the last odd modes;
    an explicit one cannot, so those get no image.
    """
    n = spec.n_max
    if n < 3:
        raise FloquetError("need at least three modes for the shift pattern")
    T = half_period
    explicit = spec.family == "explicit"
    # lam[k] is lambda_k
    lam = np.concatenate(([0.0], spec.values if explicit else spec.truncated(n + 2).values))
    image = np.zeros(n + 1, dtype=np.intp)
    logmult = np.zeros(n + 1)
    odd = np.arange(1, n - 1 if explicit else n + 1, 2)
    image[odd] = odd + 2
    logmult[odd] = -T * (lam[odd] + 2.0 * lam[odd + 1] + lam[odd + 2]) / 2.0
    image[2] = 1
    logmult[2] = -T * (2.0 * lam[1] + lam[2]) / 2.0
    even = np.arange(4, n + 1, 2)
    image[even] = even - 2
    logmult[even] = -T * (lam[even - 2] + 2.0 * lam[even - 1] + lam[even]) / 2.0
    return WeightedShift(image, logmult)


@dataclass(frozen=True)
class NumericPoincare:
    """One-period propagator columns U(2T, 0) e_m for m = 1..n_trunc,
    integrated over an internally extended truncation so no requested column
    is clipped by an orphaned rotation partner.

    The matrix is P M, the plus half-period map after the minus one, each
    the ordered product of its steps' 2x2 blocks; `steps` counts the Lawson
    steps of the whole period, half of them in each half-period."""

    matrix: np.ndarray
    steps: int


# Relative change of the propagator under a step doubling that ends the refinement.
PROPAGATOR_TOL = 1e-10
# Most steps of one half-period whose 2x2 blocks are held at once.
BLOCK_CHUNK = 2048


def _pair_up(x: np.ndarray, product) -> np.ndarray:
    """One level of the pairwise tree: product(x[2i + 1], x[2i]) for each
    pair, and an unpaired last entry carried up a level as it is."""
    paired = product(x[1::2], x[:-1:2])
    return np.concatenate((paired, x[-1:])) if len(x) % 2 else paired


def _ordered_product(g: np.ndarray) -> np.ndarray:
    """g[-1] @ ... @ g[1] @ g[0] over stacked 2x2 blocks, by pairwise
    products: a tree of depth ceil(log2 len(g)).  A level of odd length
    carries its last block up unpaired, so any count works, and a power of
    two pairs every entry at every level.

    While every block lies within 1/2 of the identity, the tree multiplies
    deviations, (I + a)(I + b) = I + (a + b + a b), so a step's small
    deviation keeps its own relative precision instead of rounding against
    the identity's 1; from the first level past that it multiplies blocks.
    """
    eye = np.eye(2)
    e = g - eye
    levels = 0
    while len(e) > 1 and float(np.max(np.abs(e))) <= 0.5:
        e = _pair_up(e, lambda a, b: a + b + np.matmul(a, b))
        levels += 1
    if levels:
        g = e + eye
    while len(g) > 1:
        g = _pair_up(g, np.matmul)
    return g[0]


def separation_certificate(op: PeriodicOperator) -> None:
    """Certify exactly that each half-period's coupling vanishes on the
    other half: theta2's lo and theta1's support_lo are at least 0, or
    FloquetError names the first that is not.  drive.value is <= 0 (-0.0
    included) on [0, T] and >= 0 on [T, 2T], so the other half's cut-offs
    see arguments <= 0, where a step with lo >= 0, and a bump rising from
    support_lo >= 0, is exactly 0: at every grid point of a half."""
    step, bump = op.theta2, op.theta1
    if not step.lo >= 0.0:
        raise FloquetError(f"theta2's lo {step.lo!r} is below 0, so each half's diagonal step "
                           "acts on the other half too")
    if not bump.support_lo >= 0.0:
        raise FloquetError(f"theta1's support_lo {bump.support_lo!r} is below 0, so the two "
                           "halves' supports are not disjoint")


def half_pairs(n: int, plus: bool) -> np.ndarray:
    """One half's 2x2 blocks over n modes as a (2, n_blocks) array of
    0-based modes: the half's `site_pairs`, then each lone mode with the
    dummy position n as its partner."""
    first, second = site_pairs(n, "plus" if plus else "minus")
    lone = np.flatnonzero(np.bincount(np.concatenate((first, second)), minlength=n) == 0)
    return np.stack([np.concatenate((first, lone)),
                     np.concatenate((second, np.full_like(lone, n)))])


def _half_period_blocks(op: PeriodicOperator, plus: bool,
                        steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The map of one half-period at `steps` Lawson steps as (pairs,
    blocks): [0, T] (minus) or [T, 2T] (plus, mode 1 alone with its anchor
    diagonal), `pairs` from `half_pairs`, blocks[b] the 2x2 map on block
    b's modes, the ordered product of the half's steps.

    `separation_certificate` makes every step's map block-diagonal in the
    half's pairs, so two colour vectors recover all its blocks: colour 0
    sums e_a over the first mode a of each block, colour 1 e_b over the
    second, and a block's column a (b) is the colour-0 (colour-1) image on
    rows a and b; every step holds the dummy mode n fixed.  Each colour
    runs as one `lawson_rk4` step of a state with one column per step, in
    chunks of at most BLOCK_CHUNK steps.
    """
    separation_certificate(op)
    n = op.n_modes
    pairs = half_pairs(n, plus)
    colours = np.zeros((2, n + 1))
    colours[0, pairs[0]] = 1.0
    colours[1, pairs[1]] = 1.0
    start = op.half_period if plus else 0.0
    chunks = []
    for i0 in range(0, steps, BLOCK_CHUNK):
        i1 = min(i0 + BLOCK_CHUNK, steps)
        c0 = start + op.half_period * i0 / steps
        c1 = start + op.half_period * i1 / steps
        m = i1 - i0
        rhs = op.tabulated_rhs(plus, c0, c1, m)
        bounds = np.linspace(c0, c1, m + 1)
        images = np.empty((2, n + 1, m))
        images[:, n] = colours[:, n, None]
        for k in range(2):
            images[k, :n] = lawson_rk4(op.lam, rhs, np.broadcast_to(colours[k, :n, None], (n, m)),
                                       bounds[:-1], bounds[1:], 1)
        # step j's block b is images[c, pairs[r, b], j] at row r, column c
        chunks.append(_ordered_product(images[:, pairs].transpose(3, 2, 1, 0)))
    return pairs, _ordered_product(np.stack(chunks))


def _apply_blocks(pairs: np.ndarray, blocks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A half-period map given as `_half_period_blocks`' (pairs, blocks),
    applied to the columns of the (n, cols) state u: each block's two rows
    are two gathered products and a sum, O(n cols), with no n x n array.
    The dummy mode n enters as a zero row."""
    n = len(u)
    padded = np.zeros((n + 1, u.shape[1]))
    padded[:n] = u
    a, b = padded[pairs[0]], padded[pairs[1]]
    g = blocks[..., None]
    out = np.empty_like(padded)
    out[pairs[0]] = g[:, 0, 0] * a + g[:, 0, 1] * b
    out[pairs[1]] = g[:, 1, 0] * a + g[:, 1, 1] * b
    return out[:n]


def period_advance(op: PeriodicOperator, steps_per_period: int):
    """advance(starts): each column of the (n_modes, cols) `starts` one
    period [0, 2T] later, as P M at steps_per_period / 2 Lawson steps per
    half.  Both halves' blocks are built once, here; the drive is periodic,
    so they serve every period."""
    minus = _half_period_blocks(op, False, steps_per_period // 2)
    plus = _half_period_blocks(op, True, steps_per_period // 2)
    return lambda starts: _apply_blocks(*plus, _apply_blocks(*minus, starts))


def truncated_operator(op: PeriodicOperator, n_trunc: int) -> PeriodicOperator:
    """The operator over n_trunc plus one or two guard modes, so that every
    column 1..n_trunc keeps its rotation partner in both halves; a family
    spectrum extends when it stores fewer modes."""
    n_int = n_trunc + (1 if n_trunc % 2 == 0 else 2)
    spectrum = op.spectrum if n_int <= op.spectrum.n_max else op.spectrum.truncated(n_int)
    return replace(op, spectrum=spectrum, n_modes=n_int)


def poincare_numeric(op: PeriodicOperator, n_trunc: int) -> NumericPoincare:
    """The numeric one-period map P M, refined by step doubling from 512
    steps until a doubling moves it by at most PROPAGATOR_TOL of its
    largest entry.  It is the oracle of `phases.poincare_columns`' closed
    form, and no command calls it; it stays in the package because the
    benchmark's layer tracer wraps it.

    The two couplings never act together (`separation_certificate`, whose
    FloquetError names the failed inequality), so each half-period map M,
    P is block-diagonal in 2x2 blocks, and `_half_period_blocks` reads
    every step's blocks from two colour columns (Curtis, Powell & Reid, J.
    Inst. Math. Appl. 1974) and multiplies them in a pairwise tree.  Only
    this map scatters the blocks into dense n x n matrices, so its small
    entries underflow at depth.
    """
    inner = truncated_operator(op, n_trunc)
    n_int = inner.n_modes

    def half_map(plus, steps):
        pairs, blocks = _half_period_blocks(inner, plus, steps)
        mat = np.zeros((n_int + 1, n_int + 1))
        mat[pairs[:, None, :], pairs[None, :, :]] = blocks.transpose(1, 2, 0)
        return mat[:n_int, :n_int]

    def period_map(steps):
        minus = half_map(False, steps // 2)
        return half_map(True, steps // 2) @ minus

    steps = 512
    prev = period_map(steps)
    while steps <= (1 << 20):
        steps *= 2
        cur = period_map(steps)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= PROPAGATOR_TOL * scale:
            return NumericPoincare(cur[:, :n_trunc], steps)
        prev = cur
    raise FloquetError(f"no propagator convergence to tol={PROPAGATOR_TOL:g}")


@dataclass(frozen=True)
class IterateNorms:
    """Exact logs of the iterate norms along the shift orbit (no underflow):
    lognorms[k] is log ||P^k e_mode|| at orbit[k], for k = 0..count."""

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
    image = shift.image.tolist()
    orbit = [mode]
    for step in range(count):
        cur = orbit[-1]
        nxt = image[cur] if 0 < cur < len(image) else 0
        if nxt == 0:
            raise FloquetError(
                f"orbit exits the stored truncation at step {step + 1} (mode {cur})"
            )
        orbit.append(nxt)
    totals = np.cumsum(np.concatenate(([0.0], shift.log_multiplier[orbit[:-1]])))
    return IterateNorms(tuple(totals.tolist()), tuple(orbit))


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
    """Exact log-space iterate norms after N = 2n + ceil(sqrt(n)) periods:
    the first mode's and those of the band e_{2s}, s in [n, n +
    ceil(sqrt(n))], with the quadratic separation rate beta = -max(log
    ||P^N e_1|| - log ||P^N e_2s||) / n^2 that the kick needs positive."""
    if n < 1:
        raise FloquetError("level must be positive")
    k = cube_width(n)
    count = 2 * n + k
    base = iterate_norm(shift, 1, count).lognorm
    band = {s: iterate_norm(shift, 2 * s, count).lognorm for s in range(n, n + k + 1)}
    gaps = [base - v for v in band.values()]  # log(||P^N e_1|| / ||P^N e_2s||)
    return {
        "beta": -max(gaps) / n**2,
        "first_mode_lognorm": base,
        "band_lognorms": band,
    }
