import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from attractorlab.cutoffs import (_MAX_ORDER, CutoffError, SmoothStep, _unit_step,
                                  mollifier_bump, periodic_drive, smooth_step)

ORDERS = range(1, _MAX_ORDER + 1)
U = np.linspace(0.01, 0.99, 2001)


def scale(k):
    """max |h^(k)| on the sample grid, the yardstick for order-k errors"""
    return np.max(np.abs(_unit_step(U, k)))


class TestUnitStepKernel:
    """Oracles for the normalized mollifier step h and its Taylor-jet
    derivatives: closed forms, symmetry, finite differences, quadrature."""

    def test_first_derivative_closed_form(self):
        h = _unit_step(U)
        exact = h * (1.0 - h) * (1.0 / U**2 + 1.0 / (1.0 - U) ** 2)
        assert np.max(np.abs(_unit_step(U, 1) - exact)) <= 1e-12 * scale(1)

    @pytest.mark.parametrize("k", ORDERS)
    def test_reflection(self, k):
        # h(1 - u) = 1 - h(u), so h^(k)(u) = (-1)^(k+1) h^(k)(1 - u)
        got = _unit_step(U, k) - (-1.0) ** (k + 1) * _unit_step(1.0 - U, k)
        assert np.max(np.abs(got)) <= 1e-13 * scale(k)

    @pytest.mark.parametrize("k", range(2, _MAX_ORDER + 1))
    def test_central_difference_of_previous_order(self, k):
        v, dl = np.linspace(0.05, 0.95, 181), 1e-5
        fd = (_unit_step(v + dl, k - 1) - _unit_step(v - dl, k - 1)) / (2.0 * dl)
        assert np.max(np.abs(fd - _unit_step(v, k))) <= 1e-5 * scale(k)

    @pytest.mark.parametrize("k", range(2, _MAX_ORDER + 1))
    def test_higher_derivatives_integrate_to_zero(self, k):
        # h^(k-1) vanishes at both ends of [0, 1]
        m = scale(k)
        val, _ = quad(lambda x: float(_unit_step(x, k)), 0.0, 1.0, limit=400,
                      epsabs=1e-13 * m, epsrel=0.0)
        assert abs(val) <= 1e-10 * m

    def test_values_bit_identical_to_closed_form(self):
        us = [0.02, 0.1, 0.3, 0.6, 0.9, 0.97]
        pinned = [float.fromhex(h) for h in (
            "0x1.437271fc1ccf6p-71", "0x1.212f2a770ac2bp-13", "0x1.095c3e04caf7ep-3",
            "0x1.64e4f458025b2p-1", "0x1.ffeded0d588f5p-1", "0x1.fffffffffffacp-1")]
        step = SmoothStep(0.0, 1.0)
        assert step.value(np.array(us)).tolist() == pinned
        assert [float(step.value(u)) for u in us] == pinned
        assert step.value(0.5).shape == ()

    @pytest.mark.parametrize("order", [-1, _MAX_ORDER + 1])
    def test_order_out_of_range_rejected(self, order):
        with pytest.raises(CutoffError, match="derivative order"):
            smooth_step(0.0, 1.0).derivative(0.5, order)
        with pytest.raises(CutoffError, match="derivative order"):
            mollifier_bump(0.0, 1.0, 0.3, 0.7).derivative(0.2, order)



class TestBump:
    def test_plateau_value_exactly_one(self):
        bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)
        assert bump.value(0.5) == 1.0
        assert bump.value(np.array([0.3, 0.5, 0.7])).tolist() == [1.0, 1.0, 1.0]

    def test_hard_zero_outside_support(self):
        bump = mollifier_bump(0.0, 1.0, 0.3, 0.7)
        xs = np.array([-5.0, -1e-9, 0.0, 1.0, 1.0 + 1e-9, 7.0])
        assert np.all(bump.value(xs) == 0.0)
        for k in range(1, 5):
            assert np.all(bump.derivative(xs, k) == 0.0)

    def test_range_within_unit_interval(self):
        bump = mollifier_bump(-2.0, 3.0, -0.5, 1.0)
        xs = np.linspace(-2.5, 3.5, 4001)
        vals = bump.value(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_transition_derivative_integrates_to_one(self):
        # rising transition derivative integrates to 1 (quadrature oracle)
        bump = mollifier_bump(0.0, 2.0, 1.0, 1.5)
        val, err = quad(lambda x: float(bump.derivative(x, 1)), 0.0, 1.0,
                        epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(CutoffError):
            mollifier_bump(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(CutoffError):
            mollifier_bump(1.0, 1.0, 1.0, 1.0)

    def test_smooth_step_endpoints(self):
        step = smooth_step(0.0, 1.0)
        assert step.value(0.0) == 0.0 and step.value(1.0) == 1.0
        assert step.value(0.5) == pytest.approx(0.5)  # symmetric construction


class TestPeriodicDrive:
    def test_oddness_at_origin(self):
        drive = periodic_drive(1.0, 2.0, 0.75)
        assert drive.value(0.0) == 0.0

    def test_extremes(self):
        drive = periodic_drive(3.0, 2.0, 0.75)
        assert float(drive.value(1.0)) == pytest.approx(-3.0, abs=1e-15)
        assert float(drive.value(-1.0)) == pytest.approx(3.0, abs=1e-15)

    def test_odd_symmetry_dense_sample(self):
        drive = periodic_drive(1.0, 2.0, 0.8)
        ts = np.linspace(-4.0, 4.0, 2001)
        assert np.max(np.abs(drive.value(-ts) + drive.value(ts))) <= 1e-12

    def test_half_period_reflection(self):
        # reflection about the extremum: x(tau - t) = x(t)
        drive = periodic_drive(1.0, 2.0, 0.8)
        ts = np.linspace(0.0, 2.0, 1001)
        assert np.max(np.abs(drive.value(2.0 - ts) - drive.value(ts))) <= 1e-12

    def test_plateau_occupancy_fraction(self):
        p = 0.75
        drive = periodic_drive(1.0, 2.0, p)
        ts = np.linspace(0.0, 2.0, 200001)
        frac = np.mean(np.abs(drive.value(ts)) >= 0.5)
        assert frac >= p - 1e-3

    def test_plateau_fraction_validation(self):
        with pytest.raises(CutoffError):
            periodic_drive(1.0, 2.0, 0.4)

    def test_plateau_entry_time(self):
        drive = periodic_drive(1.0, 2.0, 0.75)
        t0 = drive.plateau_entry_time(0.25)
        assert float(-drive.value(t0)) == pytest.approx(0.25, abs=1e-10)

    @given(st.floats(min_value=0.55, max_value=0.95),
           st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_derivative_matches_finite_difference(self, p, tau):
        drive = periodic_drive(1.0, tau, p)
        ts = np.linspace(0.1 * tau, 1.9 * tau, 37)
        h = 1e-6 * tau
        fd = (drive.value(ts + h) - drive.value(ts - h)) / (2 * h)
        assert np.max(np.abs(fd - drive.value(ts, ) * 0 - drive.derivative(ts))) <= 1e-4 * (
            1.0 + np.max(np.abs(drive.derivative(ts)))
        )

