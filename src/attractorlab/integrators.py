"""Exponential (Lawson-RK4) time stepping: the diagonal decay is applied as
an exact integrating factor every step, only the bounded coupling terms are
stepped explicitly."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegrationError",
    "lawson_rk4",
    "lawson_rk4_adaptive",
    "PeriodLog",
    "propagate_periods",
]


class IntegrationError(RuntimeError):
    """Step refinement failed to reach the requested tolerance."""


def _stage_shapes(decay: np.ndarray, state: np.ndarray):
    # broadcast the diagonal over matrix columns when propagating a basis
    if state.ndim == 2:
        return decay[:, None]
    return decay


def lawson_rk4(decay, rhs, state, t0: float, t1: float, steps: int):
    """Integrate u' = -diag(decay) u + rhs(t, u) with `steps` fixed Lawson-RK4
    steps.  With rhs == 0 every step is exact to machine precision."""
    state = np.array(state, dtype=float)
    decay = np.asarray(decay, dtype=float)
    h = (t1 - t0) / steps
    e_full = np.exp(-decay * h)
    e_half = np.exp(-decay * 0.5 * h)
    ef = _stage_shapes(e_full, state)
    eh = _stage_shapes(e_half, state)
    t = t0
    for _ in range(steps):
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * h, eh * (state + 0.5 * h * k1))
        k3 = rhs(t + 0.5 * h, eh * state + 0.5 * h * k2)
        k4 = rhs(t + h, ef * state + h * eh * k3)
        state = ef * state + (h / 6.0) * (ef * k1 + 2.0 * eh * k2 + 2.0 * eh * k3 + k4)
        t += h
    return state


# Largest step count `lawson_rk4_adaptive` doubles to before giving up.
ADAPTIVE_MAX_STEPS = 1 << 22


def lawson_rk4_adaptive(
    decay,
    rhs_for,
    state,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    initial_steps: int = 256,
):
    """Double the step count until the end state stabilizes to `tol`
    (relative to its largest magnitude); deterministic for fixed inputs.

    `rhs_for(steps)` returns the rhs for one step count, so a caller can
    tabulate its coefficients once per doubling on that count's stage grid
    t0 + k h/2, as `PeriodicOperator.tabulated_rhs` does."""
    steps = initial_steps
    prev = lawson_rk4(decay, rhs_for(steps), state, t0, t1, steps)
    while steps <= ADAPTIVE_MAX_STEPS:
        steps *= 2
        cur = lawson_rk4(decay, rhs_for(steps), state, t0, t1, steps)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= tol * scale:
            return cur, steps
        prev = cur
    raise IntegrationError(
        f"no convergence to tol={tol:g} within {ADAPTIVE_MAX_STEPS} steps over [{t0}, {t1}]"
    )


def _safe_norm(w: np.ndarray) -> float:
    """2-norm with the max factored out, so squaring never underflows."""
    m = float(np.max(np.abs(w)))
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.linalg.norm(w / m))


@dataclass(frozen=True)
class PeriodLog:
    """Per-period record of a renormalized trajectory: the running log of the
    norm plus the unit-scale dense remainder."""

    times: np.ndarray
    lognorms: np.ndarray
    states: list[np.ndarray]


# Largest share of the norm a support projection may discard.
PROJECTION_GUARD = 1e-6


def propagate_periods(
    decay,
    rhs,
    w0,
    period: float,
    n_periods: int,
    steps_per_period: int,
    support_schedule=None,
) -> PeriodLog:
    """Integrate a super-exponentially decaying trajectory period by period,
    renormalizing at each boundary so dense arithmetic never underflows.

    support_schedule optionally maps period index k (1-based) to the set of
    mode positions (0-based) proven to carry the solution at that boundary;
    coordinates outside it are projected to exact zero, which removes the
    round-off floor that otherwise dominates once relative gaps grow.  The
    projection refuses to discard more than PROJECTION_GUARD of the norm.
    """
    w = np.array(w0, dtype=float)
    decay = np.asarray(decay, dtype=float)
    logscale = 0.0
    times = [0.0]
    lognorms = [float(logscale + math.log(_safe_norm(w)))]
    states = [w / _safe_norm(w)]
    w = states[0].copy()
    for k in range(1, n_periods + 1):
        w = lawson_rk4(decay, rhs, w, (k - 1) * period, k * period, steps_per_period)
        norm = _safe_norm(w)
        if norm == 0.0:
            raise IntegrationError(
                f"trajectory vanished exactly at period {k}; per-period decay "
                "exceeds the double range, use shorter periods"
            )
        if support_schedule is not None:
            keep = support_schedule(k)
            mask = np.zeros_like(w, dtype=bool)
            mask[list(keep)] = True
            discarded = _safe_norm(w[~mask]) if np.any(~mask) else 0.0
            if discarded > PROJECTION_GUARD * norm:
                raise IntegrationError(
                    f"support projection at period {k} would discard "
                    f"{discarded / norm:.3e} of the norm; dynamics disagree "
                    "with the predicted support"
                )
            w[~mask] = 0.0
            norm = _safe_norm(w)
        logscale += math.log(norm)
        w = w / norm
        times.append(k * period)
        lognorms.append(logscale)
        states.append(w.copy())
    return PeriodLog(np.asarray(times), np.asarray(lognorms), states)
