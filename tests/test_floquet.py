import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from attractorlab.cutoffs import mollifier_bump, periodic_drive, smooth_step
from attractorlab.floquet import (FloquetError, PeriodicOperator, WeightedShift,
                                  calibrate_epsilon, decay_certificate, equalizers,
                                  iterate_norm, make_periodic_operator,
                                  poincare_numeric, poincare_predicted,
                                  ratio_bounds_check, shift_match_report)
from attractorlab.spectral import make_spectrum


class TestCalibration:
    def test_epsilon_closed_form(self, operator_t2):
        drive = operator_t2.drive
        cal = calibrate_epsilon(drive, operator_t2.theta1)
        assert cal.epsilon == math.pi / (2.0 * cal.active_integral)
        oracle, _ = quad(lambda t: float(operator_t2.theta1.value(-drive.value(t))),
                         0.0, drive.half_period, epsabs=1e-13, limit=400)
        assert cal.active_integral == pytest.approx(oracle, abs=1e-10)

    def test_doubling_period_halves_epsilon(self):
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        eps = {}
        for T in (2.0, 4.0):
            drive = periodic_drive(1.0, T, 0.75)
            op = make_periodic_operator(spec, drive, 8)
            eps[T] = op.epsilon
        assert eps[4.0] == pytest.approx(eps[2.0] / 2.0, rel=0.02)

    def test_phase_ode_total_angle(self, operator_t2):
        # independent oracle: integrate the phase equation with scipy
        drive = operator_t2.drive
        theta1 = operator_t2.theta1
        eps = operator_t2.epsilon
        sol = solve_ivp(
            lambda t, y: [eps * float(theta1.value(-drive.value(t)))],
            (0.0, drive.half_period), [0.0], rtol=1e-12, atol=1e-13, max_step=0.01,
        )
        assert sol.y[0, -1] == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_empty_window_rejected(self):
        drive = periodic_drive(1.0, 2.0, 0.75)
        dead = mollifier_bump(50.0, 60.0, 52.0, 58.0)  # never reached by the drive
        with pytest.raises(FloquetError, match="zero measure"):
            calibrate_epsilon(drive, dead)


class TestPredictedShift:
    def test_multiplier_closed_forms(self):
        spec = make_spectrum("linear", {"c": 1.0}, 3)
        shift = poincare_predicted(spec, 1.0)
        assert shift.log_mult(2) == pytest.approx(-2.0)  # exp(-2) = 0.13533...
        assert shift.image(2) == 1
        assert shift.image(1) == 3
        assert shift.log_mult(1) == pytest.approx(-4.0)

    def test_zero_time_identity_magnitudes(self):
        spec = make_spectrum("linear", {"c": 1.0}, 6)
        shift = poincare_predicted(spec, 0.0)
        assert all(v == 0.0 for v in shift.log_multiplier.values())

    def test_time_scaling_covariance(self):
        spec = make_spectrum("linear", {"c": 1.0}, 10)
        s1 = poincare_predicted(spec, 1.0)
        s3 = poincare_predicted(spec, 3.0)
        for mode in s1.modes:
            assert s3.log_mult(mode) == pytest.approx(3.0 * s1.log_mult(mode), rel=1e-15)


class TestNumericPoincare:
    def test_matches_predicted_shift(self, operator_t2):
        spec = operator_t2.spectrum
        numeric = poincare_numeric(operator_t2, 8, tol=1e-10)
        predicted = poincare_predicted(spec, operator_t2.half_period)
        report = shift_match_report(numeric, predicted)
        assert report["pattern_ok"]
        assert report["max_log_rel_err"] <= 1e-6
        assert report["max_off_pattern"] <= 1e-8

    def test_rotation_free_operator_is_pure_heat(self):
        spec = make_spectrum("linear", {"c": 1.0}, 6)
        drive = periodic_drive(1.0, 1.0, 0.75)
        dead_step = smooth_step(50.0, 60.0)  # theta2 never activates
        theta1 = mollifier_bump(0.25, 2.0, 0.5, 1.5)
        op = PeriodicOperator(spec, drive, theta1, dead_step, 0.0, 0.0, 6)
        numeric = poincare_numeric(op, 4, tol=1e-10)
        expected = np.diag(np.exp(-2.0 * 1.0 * spec.values[:4]))
        assert np.allclose(numeric.matrix[:4, :4], expected, rtol=1e-8, atol=1e-14)

    def test_dense_power_matches_iterate_norms(self, operator_t2):
        spec = operator_t2.spectrum
        shift = poincare_predicted(spec, operator_t2.half_period)
        numeric = poincare_numeric(operator_t2, 10, tol=1e-10)
        p = numeric.matrix[:10, :10]
        # orbit of e_4 under 3 periods stays within 10 modes: 4 -> 2 -> 1 -> 3
        vec = np.zeros(10)
        vec[3] = 1.0
        for _ in range(3):
            vec = p @ vec
        got = math.log(np.abs(vec).max())
        want = iterate_norm(shift, 4, 3).lognorm
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_operator_norm_within_budget(self, operator_t2):
        report = operator_t2.norm_bound_report()
        assert report["within_budget"]
        assert report["sampled_sup"] <= report["half_gap"] + report["epsilon"] + \
            report["anchor_allowance"] + 1e-9


class TestIterateNorms:
    def test_first_mode_one_period(self, shift_t1):
        # dense-oracle value: one period moves e_1 to e_3 through the two
        # half-maps, total log -(delta_1 + delta_2) = -4
        out = iterate_norm(shift_t1, 1, 1)
        assert out.lognorm == pytest.approx(-4.0)
        assert out.orbit == (1, 3)

    def test_second_mode_one_period(self, shift_t1):
        out = iterate_norm(shift_t1, 2, 1)
        assert out.lognorm == pytest.approx(-2.0)
        assert out.orbit == (2, 1)

    def test_zero_iterates(self, shift_t1):
        assert iterate_norm(shift_t1, 7, 0).lognorm == 0.0

    def test_orbit_exit_names_step(self):
        # explicit spectra cannot extend beyond their stored values
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, 6)
        shift = poincare_predicted(spec, 1.0)
        with pytest.raises(FloquetError, match="step 2"):
            iterate_norm(shift, 3, 2)  # 3 -> 5 -> (7) exits the truncation


class TestDecayCertificate:
    def test_quadratic_certificate(self, shift_t1):
        cert = decay_certificate(shift_t1, 2, 12)
        assert cert.passes
        assert cert.r_squared >= 0.999
        assert cert.beta > 0
        # arithmetic-series analytic value for lambda_n = n, T = 1
        assert cert.beta_analytic == pytest.approx(2.0)
        assert abs(cert.beta - cert.beta_analytic) <= 0.15 * cert.beta_analytic

    def test_constant_multiplier_shift_fails(self):
        spec = make_spectrum("linear", {"c": 1.0}, 40)
        image = {m: m + 2 for m in range(1, 36, 2)}
        logmult = {m: -1.0 for m in image}
        fake = WeightedShift(spec, 1.0, image, logmult)
        cert = decay_certificate(fake, 1, 10)
        assert cert.exponential_only
        assert not cert.passes
        assert abs(cert.beta) <= 1e-9

    def test_doubling_period_doubles_beta(self, linear_spectrum_big):
        c1 = decay_certificate(poincare_predicted(linear_spectrum_big, 1.0), 2, 12)
        c2 = decay_certificate(poincare_predicted(linear_spectrum_big, 2.0), 2, 12)
        assert c2.beta == pytest.approx(2.0 * c1.beta, rel=0.05)


class TestRatioBounds:
    def test_level_nine(self, shift_t1):
        out = ratio_bounds_check(shift_t1, 9)
        assert out["passes"]
        assert out["beta"] >= 0.5
        assert out["gamma"] <= 4.0

    def test_degenerate_level_one(self, shift_t1):
        out = ratio_bounds_check(shift_t1, 1)
        assert out["passes"]

    def test_rate_doubles_with_eigenvalue_scale(self, shift_t1):
        spec2 = make_spectrum("linear", {"c": 2.0}, 300)
        out1 = ratio_bounds_check(shift_t1, 9)
        out2 = ratio_bounds_check(poincare_predicted(spec2, 1.0), 9)
        assert out2["beta"] == pytest.approx(2.0 * out1["beta"], rel=0.1)

    def test_truncation_too_small_rejected(self):
        spec = make_spectrum("linear", {"c": 1.0}, 12)
        shift = poincare_predicted(spec, 1.0)
        with pytest.raises(FloquetError, match="truncation"):
            ratio_bounds_check(shift, 9)


class TestEqualizers:
    def test_exact_equalization(self, shift_t1):
        out = equalizers(shift_t1, 16)
        assert out["equalization_exact"] == 0.0
        assert all(v <= 1e-12 for v in out["A_logs"].values())

    def test_a_factors_within_gamma_bound(self, shift_t1):
        out = equalizers(shift_t1, 16)
        gamma = out["gamma"]
        lower = -2.0 * gamma * 16**1.5
        assert all(v >= lower - 1e-9 for v in out["A_logs"].values())
        assert out["a_within_bounds"]

