"""Time-periodic rotation operator whose Poincare map is a weighted shift:
calibration, numeric propagation, exact log-space iterate norms, and the
closing law and ratio certificate built on them.

The numeric map is the product of two half-period maps.  Only one coupling
acts in each half-period, so each half's map is block-diagonal in 2x2
blocks; two colour columns recover every step's blocks in one batched
Lawson step, and the blocks multiply in a pairwise tree.  A guard checks on
the coefficient table that the other half's coefficients are exactly zero,
since overlapping cut-offs would otherwise mix the colours silently; the
guard and the rhs read one `StageTable` per chunk.  `poincare_numeric`
scatters the two halves' blocks into dense matrices; `period_advance`
applies them to state columns in O(n) each, and `simulate` runs its periods
through it.

Phi itself is applied through its pairs: each of its four terms is a
diagonal or a signed gather over `site_pairs`, O(n) per state column, and a
stage skips the terms whose coefficient row is zero, bitwise as the dense
sum of four n x n products would give it."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .cutoffs import BumpFunction, PeriodicDrive, SmoothStep, mollifier_bump
from .integrators import _safe_norm, lawson_rk4
# adaptive_simpson is not called here, but the layer tracer in
# perfbench/layers.py wraps this module binding; drop it with simulate's.
from .quadrature import adaptive_simpson  # noqa: F401
from .spectral import Spectrum, cube_width, site_pairs

__all__ = [
    "FloquetError",
    "calibrate_epsilon",
    "PeriodicOperator",
    "make_periodic_operator",
    "WeightedShift",
    "poincare_predicted",
    "NumericPoincare",
    "poincare_numeric",
    "period_advance",
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
class StageTable:
    """Phi's coefficients on a Lawson stage grid: [t0, t1] is cut into
    `columns` equal windows of `steps` steps each, and coeffs holds the rows
    (tm, r1m, tp, r1p) on np.linspace(t0, t1, 2 columns steps + 1), so
    column j's window covers entries 2 j steps .. 2 (j + 1) steps."""

    t0: float
    t1: float
    steps: int
    columns: int
    coeffs: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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

    def _coefficients(self, t):
        x = self.drive.value(t)
        tm = self.theta2.value(-x)
        tp = self.theta2.value(x)
        r1m = self.epsilon * self.theta1.value(-x)
        r1p = self.epsilon * self.theta1.value(x)
        return tm, r1m, tp, r1p

    def stage_table(self, t0: float, t1: float, steps: int, columns: int) -> StageTable:
        """The coefficient rows on the stage grid of `columns` windows of
        `steps` Lawson steps over [t0, t1]: one `_coefficients` call."""
        grid = np.linspace(t0, t1, columns * 2 * steps + 1)
        return StageTable(t0, t1, steps, columns, self._coefficients(grid))

    def tabulated_rhs(self, table: StageTable):
        """rhs(t, U) = Phi(t) U for a matrix state whose columns run through
        the table's consecutive windows, column j through window j.

        t is the array of column times; column 0's gives the stage, k =
        round((t[0] - t0) / (h / 2)), and stage k applies coefficient row k,
        with an entry per column.  The rows are strided views of the table:
        row k, column j is entry 2 j steps + k.

        Each term costs O(n cols): a diagonal is a column vector times U, a
        rotation the signed gather sign * U[partner] over its pairs.  A term
        whose coefficient row is zero in every column at stage k is skipped;
        in each half-period two of the four rows are.  The result is bitwise
        the dense sum tm D- U + r1m R- U + tp D+ U + r1p R+ U in that order:
        a dense row with one nonzero entry sums to exactly that product,
        multiplying by +-1 or 0 is exact, and a skipped term only adds a
        signed zero.  Zero entries come out +0, as the dense sum gives them
        for a nondecreasing spectrum and nonnegative coefficients."""
        n = self.n_modes
        lam = self.lam
        stages = 2 * table.steps
        t0 = table.t0
        half = (table.t1 - t0) / (table.columns * stages)
        rows = [np.lib.stride_tricks.sliding_window_view(c, stages + 1)[::stages].T
                for c in table.coeffs]
        # the live terms of each stage: term i is live at stage k when its
        # row is nonzero in some column, and `plans` holds one index tuple per
        # pattern of the four bits
        live = [np.any(r != 0.0, axis=1) for r in rows]
        codes = (live[0] + 2 * live[1] + 4 * live[2] + 8 * live[3]).tolist()
        plans = [tuple(i for i in range(4) if code >> i & 1) for code in range(16)]
        # D- u, R- u, D+ u and R+ u are scale * u[partner], partner None for
        # the diagonals; a lone mode's rotation row has sign 0
        scales, partners = [], []
        for site in ("minus", "plus"):
            a, b = site_pairs(n, site)
            half_gap = 0.5 * (lam[a] - lam[b])
            diag = np.zeros((n, 1))
            diag[a, 0] += half_gap
            diag[b, 0] -= half_gap
            sign = np.zeros((n, 1))
            sign[a], sign[b] = 1.0, -1.0
            partner = np.arange(n)
            partner[a], partner[b] = b, a
            scales += [diag, sign]
            partners += [None, partner]
        scales[2][0, 0] = 0.5 * lam[0] * self.anchor_scale  # mode 1's anchor, on D+

        def column_rhs(t, u):
            k = round((t.item(0) - t0) / half)
            out = None
            for i in plans[codes[k]]:
                if partners[i] is None:
                    term = scales[i] * u
                else:
                    term = u[partners[i]]
                    term *= scales[i]
                term *= rows[i][k]
                if out is None:
                    out = term
                else:
                    out += term
            if out is None:
                return np.zeros(u.shape)
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
    theta1 = mollifier_bump(amp / 4.0, 2.0 * amp, amp / 2.0, 1.5 * amp)
    theta2 = SmoothStep(0.0, amp / 4.0)
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
    """One-period propagator columns U(2T, 0) e_m for m = 1..n_columns,
    integrated over an internally extended truncation so no requested column
    is clipped by an orphaned rotation partner.

    The matrix is P M, the plus half-period map after the minus one, each
    the ordered product of its steps' 2x2 blocks; `steps` counts the Lawson
    steps of the whole period, half of them in each half-period."""

    matrix: np.ndarray
    n_columns: int
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


def _half_period_blocks(op: PeriodicOperator, plus: bool,
                        steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The map of one half-period at `steps` Lawson steps as (pairs,
    blocks): [0, T] (minus, pairs (2j-1, 2j)) or [T, 2T] (plus, pairs (2j,
    2j+1), mode 1 alone with its anchor diagonal).  Column b of the (2,
    n_blocks) `pairs` names block b's two mode positions, position n being
    the dummy partner of a lone mode; blocks[b] is the 2x2 map on them, the
    ordered product of the half's steps.

    Every step's map is block-diagonal in the half's pairs, so two colour
    vectors recover all its blocks: colour 0 sums e_a over the first mode a
    of each block, colour 1 e_b over the second mode b, and a block's
    column a (b) is the colour-0 (colour-1) image read on rows a and b.  A
    mode that stands alone goes into colour 0 with position n as its
    partner, a dummy mode every step holds fixed.  Each colour runs as one
    `lawson_rk4` step of a state with one column per step, each column on
    its own window, in chunks of at most BLOCK_CHUNK steps.  The colours are
    only valid when the other half's coefficients are exactly zero at every
    stage, so that is checked on the same coefficient table first.
    """
    n = op.n_modes
    half, other = ("plus", "minus") if plus else ("minus", "plus")
    first, second = site_pairs(n, half)
    lone = np.flatnonzero(np.bincount(np.concatenate((first, second)), minlength=n) == 0)
    pairs = np.stack([np.concatenate((first, lone)),
                      np.concatenate((second, np.full_like(lone, n)))])
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
        # (tm, r1m, tp, r1p): the other half's pair must vanish on this one
        table = op.stage_table(c0, c1, 1, m)
        coeffs = table.coeffs
        live = np.flatnonzero(np.any(np.array(coeffs[:2] if plus else coeffs[2:]) != 0.0,
                                     axis=0))
        if live.size:
            k = live[0]
            raise FloquetError(
                f"{half} half-period: the {other} coupling's coefficients are nonzero at "
                f"stage {2 * i0 + k} (t = {c0 + (c1 - c0) * k / (2 * m):.6g}), so its map "
                "is not block-diagonal; the cut-offs of the two halves overlap")
        rhs = op.tabulated_rhs(table)
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


def poincare_numeric(op: PeriodicOperator, n_trunc: int) -> NumericPoincare:
    """The numeric one-period map P M, refined by step doubling from 512
    steps until a doubling moves it by at most PROPAGATOR_TOL of its
    largest entry.

    The two couplings never act together: on [0, T] only the minus pairs
    (2j-1, 2j) rotate, on [T, 2T] only the plus pairs (2j, 2j+1) and mode
    1's anchor diagonal act.  So each half-period map M, P is
    block-diagonal in 2x2 blocks, and `_half_period_blocks` reads every
    step's blocks from two colour columns (Curtis, Powell & Reid, J. Inst.
    Math. Appl. 1974) and multiplies them in a pairwise tree.  It raises
    FloquetError, naming the half-period and the stage, when the other
    half's coefficients are not exactly zero on it.  Only this map scatters
    the blocks into dense n x n matrices.
    """
    guard = 1 if n_trunc % 2 == 0 else 2
    n_int = n_trunc + guard
    spectrum = op.spectrum if n_int <= op.spectrum.n_max else op.spectrum.truncated(n_int)
    inner = replace(op, spectrum=spectrum, n_modes=n_int)

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
            return NumericPoincare(cur[:, :n_trunc], n_trunc, steps)
        prev = cur
    raise FloquetError(f"no propagator convergence to tol={PROPAGATOR_TOL:g}")


# Largest off-pattern entry of a propagated column, relative to the column's
# norm, that still matches the shift pattern; the same 1e-6 bound as
# `integrators.PROJECTION_GUARD` puts on the mass a period projection drops.
OFF_PATTERN_TOL = 1e-6


def shift_match_report(numeric: NumericPoincare, predicted: WeightedShift) -> dict:
    """Column-by-column comparison of the propagated matrix against the
    closed-form shift: relative log-multiplier error and off-pattern mass.
    The pattern holds when every column's predicted entry is positive and
    its largest other entry is at most OFF_PATTERN_TOL of its norm."""
    max_log_rel = 0.0
    max_off = 0.0
    positive = True
    images, logmults = predicted.image.tolist(), predicted.log_multiplier.tolist()
    for mode in range(1, numeric.n_columns + 1):
        col = numeric.matrix[:, mode - 1]
        target = images[mode]
        expected = logmults[mode]
        got = col[target - 1] if target else 0.0
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
        "pattern_ok": positive and max_off <= OFF_PATTERN_TOL,
        "max_log_rel_err": max_log_rel,
        "max_off_pattern": max_off,
    }


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
