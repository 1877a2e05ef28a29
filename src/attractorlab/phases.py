"""The Poincare map from Phi's commuting phases: closed-form 2x2 blocks
of each half-period, composed column by column in log space.

Within a half-period the generator runs three commuting phases, ramp in,
rotation and ramp out, once `phase_constants` has certified the cut-offs
exactly; each block then has a closed form (`phase_blocks`).
`poincare_columns` composes the two halves' blocks as signed logs, at most
four entries a column, so `floquet` checks the shift pattern at any
truncation without underflow.  The Lawson map of `floquet.poincare_numeric`
is the tests' oracle for every block."""

from __future__ import annotations

import math

import numpy as np

from .floquet import (FloquetError, PeriodicOperator, WeightedShift, half_pairs,
                      separation_certificate, truncated_operator)

__all__ = [
    "phase_constants",
    "phase_blocks",
    "poincare_columns",
    "shift_match_report",
]


def phase_constants(op: PeriodicOperator) -> tuple[float, float]:
    """Certify that Phi's phases commute, then return the rotation angle
    theta and the ramp integral A that fix every half-period block.

    The certificate holds exactly: `separation_certificate` confines each
    half's coupling to its own half, and the bump must start at or past the
    step's hi, where the step is exactly 1, so wherever a half rotates its
    diagonal coefficient is 1.  FloquetError names the first inequality
    that fails.

    A half-period then runs three commuting phases: the ramp in
    (diagonal), the rotation, and the ramp out, whose integral equals the
    ramp in's by the drive's reflection symmetry.  theta = eps times the
    half-period integral of theta1(-x), a quarter turn when eps is
    calibrated.  A = t_e - integral of theta2(-x) over [0, t_e], t_e the
    time at which -x reaches theta2's hi; since theta2(-x) = 1 from t_e
    on, A is half the half-period integral of 1 - theta2(-x), which needs
    no t_e.  Both integrals are the drive's fixed trapezoid rule
    (`PeriodicDrive.half_period_integral`).
    """
    try:
        separation_certificate(op)
    except FloquetError as err:
        raise FloquetError(f"no closed-form blocks: {err}") from None
    step, bump = op.theta2, op.theta1
    if not bump.support_lo >= step.hi:
        raise FloquetError(f"no closed-form blocks: theta1's support_lo {bump.support_lo!r} is "
                           f"below theta2's hi {step.hi!r}, so the rotation overlaps the "
                           "diagonal ramp and the phases do not commute")
    drive = op.drive
    theta = op.epsilon * drive.half_period_integral(bump.value)
    ramp = 0.5 * drive.half_period_integral(lambda v: 1.0 - step.value(v))
    return theta, ramp


def phase_blocks(op: PeriodicOperator, plus: bool, theta: float,
                 ramp: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed form of `_half_period_blocks`, from `phase_constants`, as
    signed logs: (pairs, sign, log), `pairs` from `half_pairs`, and block
    b's entry (r, c) is sign[b, r, c] * exp(log[b, r, c]), a zero entry
    having log -inf.

    Pair (a, b) has mean rate m = (lam_a + lam_b) / 2 and d = (lam_b -
    lam_a) / 2; its generator is -m I + (1 - theta2) d sigma_z + r(t) J.
    The ramps scale mode a by e^{d A} and mode b by e^{-d A} each, and the
    rotation in between turns by theta, so the block is

        e^{-m T} [[cos(theta) e^{2 d A}, sin(theta)], [-sin(theta), cos(theta) e^{-2 d A}]].

    A lone mode at the truncation edge only decays, by e^{-lam T}; mode 1
    on the plus half carries its anchor diagonal, whose integral over the
    half is anchor_scale lam_1 (T - 2 A) / 2, which is lam_1 T / 2 at the
    calibrated anchor.  The dummy partner of a lone mode is held fixed, as
    in `_half_period_blocks`.
    """
    n = op.n_modes
    lam = op.lam
    tau = op.half_period
    pairs = half_pairs(n, plus)
    paired = pairs[1] < n
    first, second = pairs[:, paired]
    lone = pairs[0, ~paired]
    scale = -tau * (0.5 * (lam[first] + lam[second]))
    tilt = (lam[second] - lam[first]) * ramp  # 2 d A
    cos, sin = math.cos(theta), math.sin(theta)
    with np.errstate(divide="ignore"):
        log_cos, log_sin = np.log(abs(cos)), np.log(abs(sin))
    log = np.full((pairs.shape[1], 2, 2), -np.inf)
    sign = np.zeros((pairs.shape[1], 2, 2))
    log[paired, 0, 0] = scale + log_cos + tilt
    log[paired, 0, 1] = scale + log_sin
    log[paired, 1, 0] = scale + log_sin
    log[paired, 1, 1] = scale + log_cos - tilt
    sign[paired] = [[np.sign(cos), np.sign(sin)], [-np.sign(sin), np.sign(cos)]]
    decay = -tau * lam[lone]
    if plus:
        decay[lone == 0] = -lam[0] * (tau - 0.5 * op.anchor_scale * (tau - 2.0 * ramp))
    log[~paired, 0, 0] = decay
    log[~paired, 1, 1] = 0.0
    sign[~paired, 0, 0] = sign[~paired, 1, 1] = 1.0
    return pairs, sign, log


def poincare_columns(op: PeriodicOperator,
                     n_trunc: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-period map P M on columns 1..n_trunc from its closed-form
    half-period blocks, in log space: no entry underflows and no n x n
    array is built, so any truncation works.  The columns come as signed
    logs (rows, sign, log): column m's k-th entry is sign[k, m - 1] *
    exp(log[k, m - 1]) on the 0-based row rows[k, m - 1], a zero entry
    having log -inf, and no two nonzero entries of a column share a row.

    Column m of M has its minus block's two entries, and P sends each of
    their rows through its own plus block.  A minus pair's two modes lie in
    different plus blocks, so the column's (at most) four entries sit on
    four rows, and each is one product: a sum of logs.
    """
    inner = truncated_operator(op, n_trunc)
    theta, ramp = phase_constants(op)
    m_pairs, m_sign, m_log = phase_blocks(inner, False, theta, ramp)
    p_pairs, p_sign, p_log = phase_blocks(inner, True, theta, ramp)

    def locate(pairs):
        # mode -> (block, slot), the dummy mode included
        block = np.empty(inner.n_modes + 1, dtype=np.intp)
        slot = np.empty_like(block)
        for s in (0, 1):
            block[pairs[s]] = np.arange(pairs.shape[1])
            slot[pairs[s]] = s
        return block, slot

    (mb, ms), (pb, ps) = locate(m_pairs), locate(p_pairs)
    mb, ms = mb[:n_trunc], ms[:n_trunc]
    rows, sign, log = [], [], []
    for r in (0, 1):
        mid = m_pairs[r, mb]
        b, s = pb[mid], ps[mid]
        rows.append(p_pairs[:, b])
        sign.append(m_sign[mb, r, ms] * p_sign[b, :, s].T)
        log.append(m_log[mb, r, ms] + p_log[b, :, s].T)
    return np.concatenate(rows), np.concatenate(sign), np.concatenate(log)


# Largest off-pattern entry of a propagated column, relative to the column's
# norm, that still matches the shift pattern; the same 1e-6 bound as
# `integrators.PROJECTION_GUARD` puts on the mass a period projection drops.
OFF_PATTERN_TOL = 1e-6


def shift_match_report(columns: tuple, predicted: WeightedShift) -> dict:
    """Column-by-column comparison of a map's columns, as signed logs laid
    out as `poincare_columns` gives them, against the closed-form shift:
    relative log-multiplier error and off-pattern mass, each column's norm
    taken with its largest entry factored out.  The pattern holds when
    every column's predicted entry is positive and its largest other entry
    is at most OFF_PATTERN_TOL of its norm."""
    rows, sign, log = columns
    n = log.shape[1]
    modes = np.arange(1, n + 1)
    target = predicted.image[modes] - 1
    expected = predicted.log_multiplier[modes]
    on = (rows == target) & (log > -np.inf)
    if not np.all(np.any(on, axis=0)):
        return {"pattern_ok": False, "max_log_rel_err": math.inf, "max_off_pattern": math.inf}
    got = np.max(np.where(on, log, -np.inf), axis=0)
    log_rel = np.abs(got - expected) / np.where(expected != 0.0, np.abs(expected), 1.0)
    top = np.max(log, axis=0)
    lognorm = top + 0.5 * np.log(np.sum(np.exp(2.0 * (log - top)), axis=0))
    off = np.exp(np.max(np.where(on, -np.inf, log), axis=0) - lognorm)
    max_off = float(np.max(off))
    return {
        "pattern_ok": bool(np.all(sign[on] > 0)) and max_off <= OFF_PATTERN_TOL,
        "max_log_rel_err": float(np.max(log_rel)),
        "max_off_pattern": max_off,
    }
