"""Exponential (Lawson-RK4) time stepping: the diagonal decay is applied as
an exact integrating factor every step, only the bounded coupling terms are
stepped explicitly.  `propagate_periods` keeps the renormalized log ledger
of a periodic trajectory over a one-period map it is given, such as
`floquet.period_advance`'s half-period block products."""

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


def lawson_rk4(decay, rhs, state, t0, t1, steps: int):
    """Integrate u' = -diag(decay) u + rhs(t, u) with `steps` fixed Lawson-RK4
    steps.  With rhs == 0 every step is exact to machine precision.

    For a matrix state, t0 and t1 may be arrays with one entry per column:
    each column then runs over its own interval with its own step width
    (t1[j] - t0[j]) / steps, and rhs receives the array of column times.
    If rhs acts on each column as it would on a vector, column j is bitwise
    the result of a vector call on that interval.  Each step calls rhs at t,
    twice at t + h/2 (one time array) and at t + h."""
    state = np.array(state, dtype=float)
    decay = np.asarray(decay, dtype=float)
    h = (t1 - t0) / steps
    if state.ndim == 2:
        # broadcast the diagonal over the columns; per-column widths give
        # each column its own factors
        decay = decay[:, None]
    ef = np.exp(-decay * h)
    eh = np.exp(-decay * 0.5 * h)
    # per-column invariants, computed once: the same values as at each use
    half_h = 0.5 * h
    sixth_h = h / 6.0
    t = t0
    for _ in range(steps):
        t_mid = t + half_h
        t_end = t + h
        k1 = rhs(t, state)
        k2 = rhs(t_mid, eh * (state + half_h * k1))
        k3 = rhs(t_mid, eh * state + half_h * k2)
        # ef * state and 2 eh each enter twice; each is computed once, and
        # the undecayed state and 2 eh are dropped as soon as they are
        # spent, so the values and the peak memory are the plain formula's
        state = ef * state
        k4 = rhs(t_end, state + h * eh * k3)
        two_eh = 2.0 * eh
        state = state + sixth_h * (ef * k1 + two_eh * k2 + two_eh * k3 + k4)
        del two_eh
        t = t_end
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
    t0 + k h/2, as `simulate._window_kernel` does."""
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
    norm plus the unit-scale dense remainder, and the largest share of the
    norm that any support projection discarded.  After a projection the
    remainder is a single +-1 entry, so `lognorms[k]` is the log norm of
    sample k exactly; at k = 0 it is exact when w0 lies on one mode."""

    times: np.ndarray
    lognorms: np.ndarray
    states: list[np.ndarray]
    discard_max: float


# Largest share of the norm a support projection may discard.
PROJECTION_GUARD = 1e-6


def propagate_periods(advance, w0, period: float, steps_per_period: int, modes) -> PeriodLog:
    """Integrate a super-exponentially decaying trajectory period by period,
    renormalizing at each boundary so dense arithmetic never underflows.

    modes[k - 1] is the mode position (0-based) proven to carry the solution
    at the end of period k; the other coordinates are projected to exact
    zero, which removes the round-off floor that otherwise dominates once
    relative gaps grow.  The projection refuses to discard more than
    PROJECTION_GUARD of the norm; `steps_per_period` only names the step
    count in that refusal.

    After each projection the state is exactly +-1 at its mode, so the
    periods couple only through that sign and the log ledger: period 1
    starts from w0 / ||w0||, period k > 1 from e_{modes[k - 2]}, and all of
    them advance at once as the columns of one `advance(starts)` call,
    which returns each column's state one period later.  That needs a
    periodic system, whose one-period map is the same for every period, as
    `floquet.period_advance` gives it.  The books are then kept in period
    order, so an error names the first period that fails.  The map is
    linear and negating a start negates every rounded product, so each
    period is bitwise what a sequential run of the same map would give.
    """
    w = np.array(w0, dtype=float)
    norm = _safe_norm(w)
    w = w / norm
    n_periods = len(modes)
    starts = np.zeros((w.size, n_periods))
    starts[:, 0] = w
    starts[list(modes[:-1]), np.arange(1, n_periods)] = 1.0
    ends = advance(starts)
    logscale = 0.0
    lognorms = [math.log(norm)]
    states = [w]
    discard_max = 0.0
    sign = 1.0
    for k, mode in enumerate(modes, start=1):
        w = sign * ends[:, k - 1]
        norm = _safe_norm(w)
        if norm == 0.0:
            raise IntegrationError(
                f"trajectory vanished exactly at period {k}; per-period decay "
                "exceeds the double range, use shorter periods"
            )
        mask = np.ones(w.size, dtype=bool)
        mask[mode] = False
        discarded = _safe_norm(w[mask]) if w.size > 1 else 0.0
        if discarded > PROJECTION_GUARD * norm:
            raise IntegrationError(
                f"support projection at period {k} would discard "
                f"{discarded / norm:.3e} of the norm, above PROJECTION_GUARD "
                f"{PROJECTION_GUARD:g}, at {steps_per_period} steps per period; the "
                "discard is step error when it falls as the steps grow, so raise "
                "dynamics.steps_per_period"
            )
        discard_max = max(discard_max, discarded / norm)
        w[mask] = 0.0
        norm = _safe_norm(w)
        logscale += math.log(norm)
        w = w / norm
        sign = w[mode]
        lognorms.append(logscale)
        states.append(w)
    return PeriodLog(np.arange(n_periods + 1) * period, np.asarray(lognorms), states,
                     discard_max)
