from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from attractorlab.cutoffs import (CutoffError, PeriodicDrive, SmoothStep, _unit_step,
                                  mollifier_bump)

U = np.linspace(0.01, 0.99, 2001)


def step_slope(u):
    """h'(u) = h (1 - h) (1/u^2 + 1/(1-u)^2) inside (0, 1), 0 outside"""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    v = np.where(inside, u, 0.5)
    h = _unit_step(v)
    return np.where(inside, h * (1.0 - h) * (1.0 / v**2 + 1.0 / (1.0 - v) ** 2), 0.0)


def central_difference(f, x, k, d):
    """k-th central difference of f at x with step d, d^k times the
    discrete k-th derivative"""
    return sum((-1) ** j * comb(k, j) * f(x + (0.5 * k - j) * d) for j in range(k + 1))


class TestUnitStepKernel:
    """Oracles for the normalized mollifier step h: its closed-form
    derivative, its symmetry and pinned values."""

    def test_first_derivative_closed_form(self):
        # h' = h (1 - h) (1/u^2 + 1/(1-u)^2), against a central difference of h
        dl = 1e-6
        h = _unit_step(U)
        exact = h * (1.0 - h) * (1.0 / U**2 + 1.0 / (1.0 - U) ** 2)
        fd = (_unit_step(U + dl) - _unit_step(U - dl)) / (2.0 * dl)
        assert np.max(np.abs(fd - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_reflection(self, k):
        # h(1 - u) = 1 - h(u), so the k-th differences, like h^(k), reflect
        # with the sign (-1)^(k+1); the stencil's weights sum to 2^k, so the
        # value's 1e-15 reflection error can grow to 2^k * 1e-15
        d = 0.05
        got = (central_difference(_unit_step, U, k, d)
               - (-1.0) ** (k + 1) * central_difference(_unit_step, 1.0 - U, k, d))
        assert np.max(np.abs(got)) <= 2.0**k * 1e-15

    def test_value_reflection(self):
        # h(1 - u) = 1 - h(u)
        assert np.max(np.abs(_unit_step(1.0 - U) - (1.0 - _unit_step(U)))) <= 1e-15

    def test_values_bit_identical_to_closed_form(self):
        us = [0.02, 0.1, 0.3, 0.6, 0.9, 0.97]
        pinned = [float.fromhex(h) for h in (
            "0x1.437271fc1ccf6p-71", "0x1.212f2a770ac2bp-13", "0x1.095c3e04caf7ep-3",
            "0x1.64e4f458025b2p-1", "0x1.ffeded0d588f5p-1", "0x1.fffffffffffacp-1")]
        step = SmoothStep(0.0, 1.0)
        assert step.value(np.array(us)).tolist() == pinned
        assert [float(step.value(u)) for u in us] == pinned
        assert step.value(0.5).shape == ()


class TestBump:
    def test_plateau_value_exactly_one(self):
        bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)
        assert bump.value(0.5) == 1.0
        assert bump.value(np.array([0.3, 0.5, 0.7])).tolist() == [1.0, 1.0, 1.0]

    def test_hard_zero_outside_support(self):
        bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)
        xs = np.array([-5.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 7.0])
        assert np.all(bump.value(xs) == 0.0)

    def test_range_within_unit_interval(self):
        bump = mollifier_bump(-2.0, 3.0, -0.5, 1.0)
        xs = np.linspace(-2.5, 3.5, 4001)
        vals = bump.value(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_transition_derivative_integrates_to_one(self):
        # the rising transition's slope, a central difference of the value,
        # integrates to 1 (quadrature oracle)
        bump = mollifier_bump(0.0, 2.0, 1.0, 1.5)
        dl = 1e-4
        slope = lambda x: float(bump.value(x + dl) - bump.value(x - dl)) / (2.0 * dl)
        val, err = quad(slope, 0.0, 1.0, epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(CutoffError):
            mollifier_bump(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(CutoffError):
            mollifier_bump(1.0, 1.0, 1.0, 1.0)

    def test_smooth_step_endpoints(self):
        step = SmoothStep(0.0, 1.0)
        assert step.value(0.0) == 0.0 and step.value(1.0) == 1.0
        assert step.value(0.5) == pytest.approx(0.5)  # symmetric construction


class TestPeriodicDrive:
    def test_oddness_at_origin(self):
        drive = PeriodicDrive(1.0, 2.0, 0.75)
        assert drive.value(0.0) == 0.0

    def test_extremes(self):
        drive = PeriodicDrive(3.0, 2.0, 0.75)
        assert float(drive.value(1.0)) == pytest.approx(-3.0, abs=1e-15)
        assert float(drive.value(-1.0)) == pytest.approx(3.0, abs=1e-15)

    def test_odd_symmetry_dense_sample(self):
        drive = PeriodicDrive(1.0, 2.0, 0.8)
        ts = np.linspace(-4.0, 4.0, 2001)
        assert np.max(np.abs(drive.value(-ts) + drive.value(ts))) <= 1e-12

    def test_half_period_reflection(self):
        # reflection about the extremum: x(tau - t) = x(t)
        drive = PeriodicDrive(1.0, 2.0, 0.8)
        ts = np.linspace(0.0, 2.0, 1001)
        assert np.max(np.abs(drive.value(2.0 - ts) - drive.value(ts))) <= 1e-12

    def test_plateau_occupancy_fraction(self):
        p = 0.75
        drive = PeriodicDrive(1.0, 2.0, p)
        ts = np.linspace(0.0, 2.0, 200001)
        frac = np.mean(np.abs(drive.value(ts)) >= 0.5)
        assert frac >= p - 1e-3

    def test_plateau_fraction_validation(self):
        with pytest.raises(CutoffError):
            PeriodicDrive(1.0, 2.0, 0.4)

    def test_plateau_entry_time(self):
        drive = PeriodicDrive(1.0, 2.0, 0.75)
        t0 = drive.plateau_entry_time()
        assert float(-drive.value(t0)) == pytest.approx(0.25, abs=1e-10)

    @given(st.floats(min_value=0.55, max_value=0.95),
           st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_derivative_matches_finite_difference(self, p, tau):
        # on [0, tau], x = -h(t/w) h((tau - t)/w), and x(2 tau - t) = -x(t)
        drive = PeriodicDrive(1.0, tau, p)
        w = drive.transition_width
        ts = np.linspace(0.1 * tau, 1.9 * tau, 37)
        s = np.where(ts <= tau, ts, 2.0 * tau - ts)
        exact = -(step_slope(s / w) * _unit_step((tau - s) / w)
                  - _unit_step(s / w) * step_slope((tau - s) / w)) / w
        h = 1e-6 * tau
        fd = (drive.value(ts + h) - drive.value(ts - h)) / (2 * h)
        assert np.max(np.abs(fd - exact)) <= 1e-4 * (1.0 + np.max(np.abs(exact)))
