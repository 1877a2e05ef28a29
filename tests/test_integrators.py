import math

import numpy as np
import pytest

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


def test_propagate_periods_tracks_logs_below_double_range():
    # pure decay at rate 200 per unit time: after 5 periods the norm is
    # e^-2000, far below doubles, but the log ledger stays exact
    lam = np.array([200.0, 400.0])
    w0 = np.array([1.0, 0.0])
    log = propagate_periods(lam, lambda t, w: np.zeros_like(w), w0, 2.0, 5, 16)
    assert np.allclose(log.lognorms, [-400.0 * k for k in range(6)], rtol=1e-12)


def test_propagate_periods_projection_guard():
    lam = np.array([1.0, 1.0])
    w0 = np.array([1.0, 1.0])
    # projecting out half the mass must be refused
    with pytest.raises(IntegrationError, match="projection"):
        propagate_periods(lam, lambda t, w: np.zeros_like(w), w0, 1.0, 2, 8,
                          support_schedule=lambda k: {0})


def test_propagate_periods_projection_removes_noise_floor():
    lam = np.array([1.0, 10.0])
    w0 = np.array([0.0, 1.0])

    def rhs(t, w):
        out = np.zeros_like(w)
        out[0] = 1e-14 * w[1]  # tiny spurious leak into the slow mode
        return out

    raw = propagate_periods(lam, rhs, w0, 1.0, 8, 64)
    clean = propagate_periods(lam, rhs, w0, 1.0, 8, 64,
                              support_schedule=lambda k: {1})
    assert clean.lognorms[-1] == pytest.approx(-80.0, rel=1e-6)
    assert raw.lognorms[-1] > clean.lognorms[-1] + 30.0  # leak dominates raw run
