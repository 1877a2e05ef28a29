import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from attractorlab import floquet, quadrature
from attractorlab.cutoffs import _ramp_mean, mollifier_bump, periodic_drive, smooth_step
from attractorlab.floquet import (FloquetError, PeriodicOperator, WeightedShift,
                                  calibrate_epsilon, decay_certificate,
                                  iterate_norm, make_periodic_operator,
                                  poincare_numeric, poincare_predicted,
                                  ratio_bounds_check, shift_match_report)
from attractorlab.spectral import make_spectrum, spectral_gap

# Means of theta1(h(u)) and theta2(h(u)) over the unit transition u in [0, 1]
# at amplitude 1 (so for every amplitude): the trapezoidal rule in 30-digit
# mpmath arithmetic, unchanged to 25 digits from 2049 to 8193 nodes.
C1 = Fraction("0.5629738271134321127454")
C2 = Fraction("0.7052023392315758304651")
PI = Fraction("3.14159265358979323846264338327950288")
# (amplitude, half-period, plateau fraction)
DRIVES = [(1.0, 2.0, 0.75), (1.0, 0.5, 0.6), (2.0, 4.0, 0.9), (0.7, 1.3, 0.55),
          (1.5, 3.0, 0.8), (1.2, 0.5, 0.85), (0.8, 1.0, 0.7), (2.0, 0.5, 0.55)]


def ulps(got: float, want: Fraction) -> float:
    return float(abs(Fraction(got) - want) / Fraction(math.ulp(got)))


class TestCalibration:
    def test_epsilon_closed_form(self, operator_t2):
        drive = operator_t2.drive
        eps = calibrate_epsilon(drive, operator_t2.theta1)
        assert eps == operator_t2.epsilon
        oracle, _ = quad(lambda t: float(operator_t2.theta1.value(-drive.value(t))),
                         0.0, drive.half_period, epsabs=1e-13, limit=400)
        assert math.pi / (2.0 * eps) == pytest.approx(oracle, abs=1e-10)

    def test_doubling_period_halves_epsilon(self):
        # tau, the transition width and the plateau all double exactly, so
        # the half-period integrals double exactly
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        ops = {T: make_periodic_operator(spec, periodic_drive(1.0, T, 0.75), 8)
               for T in (2.0, 4.0)}
        assert ops[4.0].epsilon == ops[2.0].epsilon / 2.0
        assert ops[4.0].anchor_scale == ops[2.0].anchor_scale

    def test_unit_transition_means(self, operator_t2):
        # amplitude 1: the cut-offs see the unit step itself
        assert ulps(_ramp_mean(operator_t2.theta1.value), C1) <= 1.0
        assert ulps(_ramp_mean(operator_t2.theta2.value), C2) <= 1.0

    @pytest.mark.parametrize("amplitude,tau,p", DRIVES)
    def test_window_integrals_within_one_ulp(self, amplitude, tau, p):
        drive = periodic_drive(amplitude, tau, p)
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 4), drive)
        w, T = Fraction(drive.transition_width), Fraction(tau)
        assert ulps(op.epsilon, PI / (2 * (T - 2 * w + 2 * w * C1))) <= 1.0
        assert ulps(op.anchor_scale, T / (T - 2 * w + 2 * w * C2)) <= 1.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("amplitude,tau,p", DRIVES)
    def test_window_integrals_match_split_quad(self, amplitude, tau, p):
        drive = periodic_drive(amplitude, tau, p)
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 4), drive)
        w = drive.transition_width

        def oracle(f):
            g = lambda t: float(f(-drive.value(t)))
            return sum(quad(g, a, b, epsabs=1e-16, epsrel=1e-14, limit=200)[0]
                       for a, b in ((0.0, w), (w, tau - w), (tau - w, tau)))

        assert op.epsilon == pytest.approx(math.pi / (2.0 * oracle(op.theta1.value)),
                                           rel=1e-15, abs=0)
        assert op.anchor_scale == pytest.approx(tau / oracle(op.theta2.value),
                                                rel=1e-15, abs=0)

    def test_bench_drive_pinned(self):
        # the `dynamics` drive: amplitude 1, tau 2, plateau fraction 0.75
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 40),
                                    periodic_drive(1.0, 2.0, 0.75))
        assert op.epsilon == float.fromhex("0x1.0147fffcce646p+0")
        assert op.anchor_scale == float.fromhex("0x1.2c41f389c7942p+0")

    def test_assembly_needs_no_adaptive_quadrature(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("adaptive_simpson called")

        monkeypatch.setattr(quadrature, "adaptive_simpson", refused)
        monkeypatch.setattr(floquet, "adaptive_simpson", refused)
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 8),
                                    periodic_drive(1.0, 2.0, 0.75))
        assert op.epsilon == float.fromhex("0x1.0147fffcce646p+0")

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

    def test_extension_keeps_the_operator(self):
        # four columns need five internal modes, one past the stored spectrum:
        # the spectrum extends, and the dead cut-off and zero anchor stay
        spec = make_spectrum("linear", {"c": 1.0}, 4)
        op = PeriodicOperator(spec, periodic_drive(1.0, 1.0, 0.75),
                              mollifier_bump(0.25, 2.0, 0.5, 1.5), smooth_step(50.0, 60.0),
                              0.0, 0.0, 4)
        numeric = poincare_numeric(op, 4, tol=1e-10)
        assert numeric.matrix.shape == (5, 4)
        expected = np.diag(np.exp(-2.0 * spec.values))
        assert np.allclose(numeric.matrix[:4], expected, rtol=1e-8, atol=1e-14)
        assert np.all(numeric.matrix[4] == 0.0)

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
        # closed-form 2x2 block norms sampled over one period stay within the
        # half-gap budget plus epsilon, or within the anchor diagonal
        op = operator_t2
        lam = op.lam
        half_gap = 0.5 * spectral_gap(op.spectrum)
        anchor = 0.5 * lam[0] * op.anchor_scale
        x = op.drive.value(np.linspace(0.0, op.period, 512, endpoint=False))
        tm, tp = op.theta2.value(-x), op.theta2.value(x)
        rm, rp = op.epsilon * op.theta1.value(-x), op.epsilon * op.theta1.value(x)
        minus_gaps = [abs(lam[2 * j] - lam[2 * j + 1]) for j in range(op.n_modes // 2)]
        plus_gaps = [abs(lam[2 * j + 1] - lam[2 * j + 2]) for j in range((op.n_modes - 1) // 2)]
        sup = max(float(np.max(0.5 * max(minus_gaps) * tm + rm)),
                  float(np.max(0.5 * max(plus_gaps) * tp + rp)),
                  float(np.max(anchor * tp)))
        assert sup <= max(half_gap + op.epsilon, anchor) + 1e-9


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

    def test_running_totals_are_shorter_walks(self, shift_t1):
        walk = iterate_norm(shift_t1, 2, 9)
        assert len(walk.lognorms) == 10 and walk.lognorm == walk.lognorms[-1]
        for k in range(10):
            short = iterate_norm(shift_t1, 2, k)
            assert short.lognorm == walk.lognorms[k]  # bitwise: same sums, same order
            assert short.orbit == walk.orbit[:k + 1]

    def test_orbit_exit_names_step(self):
        # explicit spectra cannot extend beyond their stored values
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, 6)
        shift = poincare_predicted(spec, 1.0)
        with pytest.raises(FloquetError, match="step 2"):
            iterate_norm(shift, 3, 2)  # 3 -> 5 -> (7) exits the truncation


class TestDecayCertificate:
    def test_quadratic_certificate(self, shift_t1):
        cert = decay_certificate(shift_t1, 2, 12)
        assert cert.passes and not cert.exponential_only
        # arithmetic-series closed form for lambda_n = n, T = 1: every second
        # difference of the log-sums from N = 2 on is 4
        assert cert.beta == 2.0
        assert cert.lognorms == tuple(-v for v in iterate_norm(shift_t1, 2, 12).lognorms)

    def test_explicit_spectrum_second_differences(self):
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                                     8.0, 9.0, 10.0, 11.0, 12.0]}, 12)
        shift = poincare_predicted(spec, 1.5)
        cert = decay_certificate(shift, 2, 5)
        y = np.asarray(cert.lognorms)
        assert list(y[2:] - 2.0 * y[1:-1] + y[:-2]) == [3.0, 6.0, 6.0, 6.0]
        assert cert.passes and cert.beta == 3.0

    def test_decaying_curvature_fails(self):
        # lambda_n = sqrt(n): the second differences shrink with N, so the
        # decay is not quadratic
        spec = make_spectrum("power", {"kappa": 0.5}, 40)
        cert = decay_certificate(poincare_predicted(spec, 2.0), 2, 12)
        y = np.asarray(cert.lognorms)
        second = y[2:] - 2.0 * y[1:-1] + y[:-2]
        assert np.all(np.diff(second[1:]) < 0)
        assert not cert.passes and not cert.exponential_only

    def test_constant_multiplier_shift_fails(self):
        spec = make_spectrum("linear", {"c": 1.0}, 40)
        image = {m: m + 2 for m in range(1, 36, 2)}
        logmult = {m: -1.0 for m in image}
        fake = WeightedShift(spec, 1.0, image, logmult)
        cert = decay_certificate(fake, 1, 10)
        assert cert.exponential_only
        assert not cert.passes
        assert cert.beta == 0.0

    def test_doubling_period_doubles_beta(self, linear_spectrum_big):
        c1 = decay_certificate(poincare_predicted(linear_spectrum_big, 1.0), 2, 12)
        c2 = decay_certificate(poincare_predicted(linear_spectrum_big, 2.0), 2, 12)
        assert c2.beta == 2.0 * c1.beta


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

