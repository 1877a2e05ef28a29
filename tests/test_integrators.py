import math

import numpy as np
import pytest

from attractorlab.config import resolve_config, scenario_from_config
from attractorlab.floquet import (iterate_norm, make_periodic_operator, period_advance,
                                  poincare_predicted)
from attractorlab.integrators import (IntegrationError, lawson_rk4,
                                      lawson_rk4_adaptive, propagate_periods)


def test_pure_decay_is_exact_per_step():
    lam = np.array([1.0, 3.0, 10.0])
    w0 = np.array([1.0, -2.0, 0.5])
    out = lawson_rk4(lam, lambda t, w: np.zeros_like(w), w0, 0.0, 10.0, 7)
    assert np.allclose(out, w0 * np.exp(-10.0 * lam), rtol=1e-13)


def test_fourth_order_convergence():
    # rotating pair with decay; halving h must shrink the error ~16x (>= 8x)
    lam = np.array([1.0, 2.0])
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rhs = lambda t, w: (1.0 + 0.5 * math.sin(t)) * (rot @ w)
    w0 = np.array([1.0, 0.0])
    ref = lawson_rk4(lam, rhs, w0, 0.0, 2.0, 1 << 14)
    errs = [np.max(np.abs(lawson_rk4(lam, rhs, w0, 0.0, 2.0, n) - ref))
            for n in (64, 128, 256)]
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_adaptive_reaches_tolerance():
    lam = np.array([2.0])
    rhs = lambda t, w: np.sin(3.0 * t) * w
    out, steps = lawson_rk4_adaptive(lam, lambda steps: rhs, np.array([1.0]), 0.0, 1.0,
                                     tol=1e-12)
    # closed form: exp(-2 t + (1 - cos 3t)/3)
    exact = math.exp(-2.0 + (1.0 - math.cos(3.0)) / 3.0)
    assert out[0] == pytest.approx(exact, rel=1e-10)
    assert steps >= 512


def test_matrix_propagation_matches_columns():
    lam = np.array([1.0, 2.0, 3.0])
    m = np.array([[0.0, 0.3, 0.0], [-0.3, 0.0, 0.1], [0.0, -0.1, 0.0]])
    rhs = lambda t, u: m @ u
    full = lawson_rk4(lam, rhs, np.eye(3), 0.0, 1.0, 512)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        col = lawson_rk4(lam, rhs, e, 0.0, 1.0, 512)
        assert np.allclose(col, full[:, k], rtol=1e-12, atol=1e-15)


def test_per_column_times_match_vector_calls():
    lam = np.array([1.0, 2.0, 3.0])
    m = np.array([[0.0, 0.3, 0.0], [-0.3, 0.0, 0.1], [0.0, -0.1, 0.0]])

    def rhs(t, u):
        return (1.0 + np.sin(t)) * (m @ u)

    t0, t1 = np.array([0.0, 0.3, 0.7]), np.array([0.3, 0.7, 1.3])
    starts = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5], [0.0, 0.0, 2.0]])
    full = lawson_rk4(lam, rhs, starts, t0, t1, 64)
    for j in range(3):
        col = lawson_rk4(lam, rhs, starts[:, j], float(t0[j]), float(t1[j]), 64)
        assert col.tobytes() == full[:, j].tobytes()


def stepped(lam, rhs, period, steps):
    """A one-period map for `propagate_periods`: every column stepped over
    [0, period] by `lawson_rk4`, as suits an rhs that does not depend on t."""
    return lambda starts: lawson_rk4(lam, rhs, starts, 0.0, period, steps)


def test_propagate_periods_tracks_logs_below_double_range():
    # pure decay at rate 200 per unit time: after 5 periods the norm is
    # e^-2000, far below doubles, but the log ledger stays exact
    lam = np.array([200.0, 400.0])
    w0 = np.array([1.0, 0.0])
    log = propagate_periods(stepped(lam, lambda t, w: np.zeros_like(w), 2.0, 16), w0, 2.0, 16,
                            [0] * 5)
    assert np.allclose(log.lognorms, [-400.0 * k for k in range(6)], rtol=1e-12)
    assert log.discard_max == 0.0


def test_propagate_periods_projection_guard():
    lam = np.array([1.0, 1.0])
    w0 = np.array([1.0, 1.0])
    # projecting out half the mass must be refused
    with pytest.raises(IntegrationError, match="projection"):
        propagate_periods(stepped(lam, lambda t, w: np.zeros_like(w), 1.0, 8), w0, 1.0, 8,
                          [0, 0])


def test_projection_guard_names_first_failing_period():
    # period 1 keeps all of e_1; periods 2 and 3 would each project out
    # their whole state
    lam = np.array([1.0, 1.0])
    with pytest.raises(IntegrationError, match="projection at period 2 would discard 1.000e"):
        propagate_periods(stepped(lam, lambda t, w: np.zeros_like(w), 1.0, 8),
                          np.array([1.0, 0.0]), 1.0, 8, [0, 1, 0])


def test_vanish_names_first_failing_period():
    # a strong one-way feed from mode 1 holds the fast mode 2 far above it,
    # so period 1 ends on mode 2; periods 2 and 3 start from e_2 alone,
    # which decays by e^-2000 and underflows to exact zero in each
    lam = np.array([1.0, 2000.0])

    def rhs(t, w):
        out = np.zeros_like(w)
        out[1] = 1e12 * w[0]
        return out

    with pytest.raises(IntegrationError, match="vanished exactly at period 2;"):
        propagate_periods(stepped(lam, rhs, 1.0, 64), np.array([1.0, 0.0]), 1.0, 64, [1, 1, 1])


def test_propagate_periods_projection_removes_noise_floor():
    lam = np.array([1.0, 10.0])
    w0 = np.array([0.0, 1.0])

    def rhs(t, w):
        out = np.zeros_like(w)
        out[0] = 1e-14 * w[1]  # tiny spurious leak into the slow mode
        return out

    raw = lawson_rk4(lam, rhs, w0, 0.0, 8.0, 8 * 64)
    clean = propagate_periods(stepped(lam, rhs, 1.0, 64), w0, 1.0, 64, [1] * 8)
    assert clean.lognorms[-1] == pytest.approx(-80.0, rel=1e-6)
    assert math.log(np.linalg.norm(raw)) > clean.lognorms[-1] + 30.0  # leak dominates raw run
    assert 0.0 < clean.discard_max <= 1e-6


def sequential_periods(rhs, op, w0, period, n_periods, steps, modes):
    """The period loop as `propagate_periods` ran before its periods were
    batched and then moved onto the half-period block map: one `lawson_rk4`
    call per period with `rhs`, a one-column rhs on one table over all
    periods, starting from the previous period's projected, renormalized
    state."""

    def safe_norm(w):
        m = float(np.max(np.abs(w)))
        return m * float(np.linalg.norm(w / m))

    w = np.array(w0, dtype=float)
    logscale = 0.0
    lognorms = [logscale + math.log(safe_norm(w))]
    states = [w / safe_norm(w)]
    w = states[0].copy()
    for k in range(1, n_periods + 1):
        w = lawson_rk4(op.lam, rhs, w, (k - 1) * period, k * period, steps)
        keep = np.zeros(w.size, dtype=bool)
        keep[modes[k - 1]] = True
        w[~keep] = 0.0
        norm = safe_norm(w)
        logscale += math.log(norm)
        w = w / norm
        lognorms.append(logscale)
        states.append(w.copy())
    return np.asarray(lognorms), states


# (tau, n_max, n_trunc, n_periods, steps, w0 entries).  At 3,000 steps each
# half-period's product tree carries an unpaired block up at three levels.
ORACLE_CASES = {
    "dyadic-period": (2.0, 14, 8, 3, 2048, {0: 1.0}),
    "tau-0.3": (0.3, 20, 13, 6, 1024, {0: 1.0}),
    "non-unit-w0": (0.7, 20, 13, 6, 2048, {0: 2.5, 3: 1e-9}),
    "3000-steps": (2.0, 14, 8, 3, 3000, {0: 1.0}),
}
# Relative bound on the block map's log ledger against the sequential
# oracle's; block products round differently from stepping the state.
LEDGER_REL_TOL = 1e-13


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_block_periods_match_sequential_oracle(case, one_column_rhs):
    tau, n_max, n_trunc, n_periods, steps, start = case
    scen = scenario_from_config(resolve_config({
        "spectrum": {"family": "linear", "n_max": n_max, "params": {"c": 1.0}},
        "drive": {"tau": tau},
        "dynamics": {"n_trunc": n_trunc, "n_periods": n_periods, "steps_per_period": steps},
    }))
    op = make_periodic_operator(scen.spectrum, scen.drive, scen.n_trunc)
    walk = iterate_norm(poincare_predicted(scen.spectrum, scen.drive.half_period), 1, n_periods)
    modes = [walk.orbit[k] - 1 for k in range(1, n_periods + 1)]
    w0 = np.zeros(scen.n_trunc)
    w0[list(start)] = list(start.values())
    oracle_rhs = one_column_rhs(op, 0.0, n_periods * op.period, n_periods * steps)
    want_logs, want_states = sequential_periods(oracle_rhs, op, w0, op.period, n_periods, steps,
                                                modes)
    log = propagate_periods(period_advance(op, steps), w0, op.period, steps, modes)
    assert log.lognorms[0] == want_logs[0]
    moved = np.abs(log.lognorms[1:] - want_logs[1:]) / np.abs(want_logs[1:])
    assert np.max(moved) <= LEDGER_REL_TOL
    # the states hold bitwise, since every projection rounds them to exact +-1
    assert [w.tobytes() for w in log.states] == [w.tobytes() for w in want_states]
    # so each log norm after a projection is the ledger's, with no remainder term
    assert all(np.linalg.norm(w) == 1.0 for w in log.states[1:])
