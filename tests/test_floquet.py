import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from attractorlab import floquet, quadrature
from attractorlab.cutoffs import PeriodicDrive, SmoothStep, _ramp_mean, mollifier_bump
from attractorlab.floquet import (WALK_PERIODS, FloquetError, PeriodicOperator,
                                  calibrate_epsilon, closing_law, iterate_norm,
                                  make_periodic_operator, period_advance,
                                  poincare_numeric, poincare_predicted, ratio_bounds_check,
                                  shift_match_report)
from attractorlab.integrators import lawson_rk4
from attractorlab.spectral import make_spectrum, spectral_gap
from conftest import dense_templates

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
        ops = {T: make_periodic_operator(spec, PeriodicDrive(1.0, T, 0.75), 8)
               for T in (2.0, 4.0)}
        assert ops[4.0].epsilon == ops[2.0].epsilon / 2.0
        assert ops[4.0].anchor_scale == ops[2.0].anchor_scale

    def test_unit_transition_means(self, operator_t2):
        # amplitude 1: the cut-offs see the unit step itself
        assert ulps(_ramp_mean(operator_t2.theta1.value), C1) <= 1.0
        assert ulps(_ramp_mean(operator_t2.theta2.value), C2) <= 1.0

    @pytest.mark.parametrize("amplitude,tau,p", DRIVES)
    def test_window_integrals_within_one_ulp(self, amplitude, tau, p):
        drive = PeriodicDrive(amplitude, tau, p)
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 4), drive)
        w, T = Fraction(drive.transition_width), Fraction(tau)
        assert ulps(op.epsilon, PI / (2 * (T - 2 * w + 2 * w * C1))) <= 1.0
        assert ulps(op.anchor_scale, T / (T - 2 * w + 2 * w * C2)) <= 1.0

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("amplitude,tau,p", DRIVES)
    def test_window_integrals_match_split_quad(self, amplitude, tau, p):
        drive = PeriodicDrive(amplitude, tau, p)
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
                                    PeriodicDrive(1.0, 2.0, 0.75))
        assert op.epsilon == float.fromhex("0x1.0147fffcce646p+0")
        assert op.anchor_scale == float.fromhex("0x1.2c41f389c7942p+0")

    def test_assembly_needs_no_adaptive_quadrature(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("adaptive_simpson called")

        monkeypatch.setattr(quadrature, "adaptive_simpson", refused)
        monkeypatch.setattr(floquet, "adaptive_simpson", refused)
        op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 8),
                                    PeriodicDrive(1.0, 2.0, 0.75))
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
        drive = PeriodicDrive(1.0, 2.0, 0.75)
        dead = mollifier_bump(50.0, 60.0, 52.0, 58.0)  # never reached by the drive
        with pytest.raises(FloquetError, match="zero measure"):
            calibrate_epsilon(drive, dead)


def per_mode_shift(spec, half_period):
    """The shift's arrays built one mode at a time, each multiplier from
    `Spectrum.lam` in the closed form's order of operations."""
    T = half_period
    image = np.zeros(spec.n_max + 1, dtype=np.intp)
    logmult = np.zeros(spec.n_max + 1)
    for mode in range(1, spec.n_max + 1):
        if mode % 2 == 1:
            if mode + 2 > spec.n_max and spec.family == "explicit":
                continue
            image[mode] = mode + 2
            logmult[mode] = -T * (spec.lam(mode) + 2.0 * spec.lam(mode + 1)
                                  + spec.lam(mode + 2)) / 2.0
        elif mode == 2:
            image[mode] = 1
            logmult[mode] = -T * (2.0 * spec.lam(1) + spec.lam(2)) / 2.0
        else:
            image[mode] = mode - 2
            logmult[mode] = -T * (spec.lam(mode - 2) + 2.0 * spec.lam(mode - 1)
                                  + spec.lam(mode)) / 2.0
    return image, logmult


class TestPredictedShift:
    def test_multiplier_closed_forms(self):
        spec = make_spectrum("linear", {"c": 1.0}, 3)
        shift = poincare_predicted(spec, 1.0)
        assert shift.log_multiplier[2] == pytest.approx(-2.0)  # exp(-2) = 0.13533...
        assert shift.image[2] == 1
        assert shift.image[1] == 3
        assert shift.log_multiplier[1] == pytest.approx(-4.0)

    def test_zero_time_identity_magnitudes(self):
        spec = make_spectrum("linear", {"c": 1.0}, 6)
        shift = poincare_predicted(spec, 0.0)
        assert np.all(shift.log_multiplier == 0.0)

    def test_time_scaling_covariance(self):
        spec = make_spectrum("linear", {"c": 1.0}, 10)
        s1 = poincare_predicted(spec, 1.0)
        s3 = poincare_predicted(spec, 3.0)
        assert len(s1.log_multiplier) == 11
        for mode in range(1, 11):
            assert s3.log_multiplier[mode] == pytest.approx(3.0 * s1.log_multiplier[mode],
                                                            rel=1e-15)

    @pytest.mark.parametrize("family,params,n_max", [
        ("linear", {"c": 1.0}, 40), ("linear", {"c": 1.0}, 41),
        ("power", {"kappa": 0.5}, 40), ("power", {"kappa": 0.5}, 33),
        ("quadratic", {}, 21),
        ("explicit", {"values": [0.3 * k + 0.1 * math.sqrt(k) for k in range(1, 14)]}, 13),
        ("explicit", {"values": [1.0, 1.0, 2.5, 2.5, 7.0 / 3.0 + 1.0, 4.0]}, 6)])
    @pytest.mark.parametrize("half_period", [2.0, 0.7, 1.0 / 3.0])
    def test_arrays_match_per_mode_oracle(self, family, params, n_max, half_period):
        # bitwise: the same values of lambda, the same operations in the same order
        spec = make_spectrum(family, params, n_max)
        shift = poincare_predicted(spec, half_period)
        image, logmult = per_mode_shift(spec, half_period)
        assert shift.image.dtype == image.dtype
        assert np.array_equal(shift.image, image)
        assert shift.log_multiplier.tobytes() == logmult.tobytes()

    def test_images_past_the_truncation(self):
        # a family extends two modes past n_max; an explicit list cannot
        odd = poincare_predicted(make_spectrum("linear", {"c": 1.0}, 7), 1.0)
        assert odd.image.tolist() == [0, 3, 1, 5, 2, 7, 4, 9]
        explicit = poincare_predicted(
            make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, 6), 1.0)
        assert explicit.image.tolist() == [0, 3, 1, 5, 2, 0, 4]
        assert explicit.log_multiplier[5] == 0.0


class TestNumericPoincare:
    def test_matches_predicted_shift(self, operator_t2):
        spec = operator_t2.spectrum
        numeric = poincare_numeric(operator_t2, 8)
        predicted = poincare_predicted(spec, operator_t2.half_period)
        report = shift_match_report(numeric, predicted)
        assert report["pattern_ok"]
        assert report["max_log_rel_err"] <= 1e-6
        assert report["max_off_pattern"] <= 1e-8

    def test_rotation_free_operator_is_pure_heat(self):
        spec = make_spectrum("linear", {"c": 1.0}, 6)
        drive = PeriodicDrive(1.0, 1.0, 0.75)
        dead_step = SmoothStep(50.0, 60.0)  # theta2 never activates
        theta1 = mollifier_bump(0.25, 2.0, 0.5, 1.5)
        op = PeriodicOperator(spec, drive, theta1, dead_step, 0.0, 0.0, 6)
        numeric = poincare_numeric(op, 4)
        expected = np.diag(np.exp(-2.0 * 1.0 * spec.values[:4]))
        assert np.allclose(numeric.matrix[:4, :4], expected, rtol=1e-8, atol=1e-14)

    def test_extension_keeps_the_operator(self):
        # four columns need five internal modes, one past the stored spectrum:
        # the spectrum extends, and the dead cut-off and zero anchor stay
        spec = make_spectrum("linear", {"c": 1.0}, 4)
        op = PeriodicOperator(spec, PeriodicDrive(1.0, 1.0, 0.75),
                              mollifier_bump(0.25, 2.0, 0.5, 1.5), SmoothStep(50.0, 60.0),
                              0.0, 0.0, 4)
        numeric = poincare_numeric(op, 4)
        assert numeric.matrix.shape == (5, 4)
        expected = np.diag(np.exp(-2.0 * spec.values))
        assert np.allclose(numeric.matrix[:4], expected, rtol=1e-8, atol=1e-14)
        assert np.all(numeric.matrix[4] == 0.0)

    def test_overlapping_cutoffs_rejected(self, operator_t2):
        # theta2(x) and theta2(-x) are both nonzero near x = 0, so the plus
        # coupling's diagonal acts on the minus half-period too, and two
        # colours no longer separate the blocks
        op = replace(operator_t2, theta2=SmoothStep(-0.25, 0.25))
        with pytest.raises(FloquetError, match="^minus half-period: .* stage 0 "):
            poincare_numeric(op, 8)

    def test_dense_power_matches_iterate_norms(self, operator_t2):
        spec = operator_t2.spectrum
        shift = poincare_predicted(spec, operator_t2.half_period)
        numeric = poincare_numeric(operator_t2, 10)
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
        with pytest.raises(FloquetError, match=r"step 2 \(mode 5\)"):
            iterate_norm(shift, 3, 2)  # 3 -> 5 -> (7) exits the truncation

    @pytest.mark.parametrize("n_max", [7, 8])
    def test_orbit_past_the_family_truncation(self, n_max):
        # mode 7's image is mode 9, past the stored arrays for both n_max
        shift = poincare_predicted(make_spectrum("linear", {"c": 1.0}, n_max), 1.0)
        assert iterate_norm(shift, 1, 4).orbit == (1, 3, 5, 7, 9)
        with pytest.raises(FloquetError, match=r"step 5 \(mode 9\)"):
            iterate_norm(shift, 1, 5)

    @pytest.mark.parametrize("mode", [0, -1, 10_000])
    def test_mode_outside_the_arrays(self, shift_t1, mode):
        with pytest.raises(FloquetError, match=f"step 1 \\(mode {mode}\\)"):
            iterate_norm(shift_t1, mode, 1)


def second_differences(lognorms) -> list:
    y = -np.asarray(lognorms)
    return list(y[2:] - 2.0 * y[1:-1] + y[:-2])


class TestDecayCertificate:
    """The closing law read from mode 1's shift walk certifies how the
    iterate norms decay."""

    def test_quadratic_certificate(self, linear_spectrum_big):
        # lambda_n = n, T = 1: y_k = -log ||P^k e_1|| = 2 k (k + 1), whose
        # second differences are all 4; the walk runs WALK_PERIODS periods
        law = closing_law(linear_spectrum_big, 1.0)
        assert law.beta == 2.0
        k = WALK_PERIODS
        assert law.p == pytest.approx(math.log((k + 1) / (k - 1)) / math.log(k / (k - 1)),
                                      rel=1e-12)
        assert law.superexponential

    def test_explicit_spectrum_second_differences(self):
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                                     8.0, 9.0, 10.0, 11.0, 12.0]}, 12)
        shift = poincare_predicted(spec, 1.5)
        # floquet's iterate table walks e_2, which turns at mode 1 first
        assert second_differences(iterate_norm(shift, 2, 5).lognorms) == [3.0, 6.0, 6.0, 6.0]
        # mode 1's orbit 1 -> 3 -> ... -> 11 ends at the truncation: y_k = 3 k (k + 1)
        assert second_differences(iterate_norm(shift, 1, 5).lognorms) == [6.0] * 4
        with pytest.raises(FloquetError, match="step 6"):
            iterate_norm(shift, 1, 6)
        law = closing_law(spec, 1.5)
        assert law.beta == 3.0
        assert law.p == math.log1p(30.0 / 60.0) / math.log1p(1.0 / 4.0)
        assert law.gamma_star == math.log1p(2.0 / 9.0) / math.log1p(30.0 / 60.0)

    def test_too_short_orbit_rejected(self):
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0]}, 4)
        with pytest.raises(FloquetError, match="holds 1"):
            closing_law(spec, 1.0)

    def test_constant_multiplier_shift_fails(self):
        # equal eigenvalues give every step of mode 1's orbit the multiplier
        # e^{-2T}: y_k = 2 k closes exponentially, and A is a multiple of
        # the identity
        spec = make_spectrum("explicit", {"values": [1.0] * 40}, 40)
        law = closing_law(spec, 1.0)
        assert second_differences(iterate_norm(poincare_predicted(spec, 1.0), 1, 19).lognorms) \
            == [0.0] * 18
        assert (law.p, law.gamma_star, law.beta) == (1.0, 0.0, 0.0)
        assert not law.superexponential

    def test_doubling_period_doubles_beta(self, linear_spectrum_big):
        c1 = closing_law(linear_spectrum_big, 1.0)
        c2 = closing_law(linear_spectrum_big, 2.0)
        assert c2.beta == 2.0 * c1.beta
        # y doubles exactly, so the exponents stay bit for bit
        assert (c2.p, c2.gamma_star) == (c1.p, c1.gamma_star)

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0])
    def test_power_family_law(self, kappa):
        # lambda_n = n^kappa: y_k ~ k^(1 + kappa) and lambda(orbit_k) ~
        # y_k^(kappa / (1 + kappa)); the errors at 1000 periods are -1.0e-3,
        # -7.3e-4, -5.3e-4 in p and -1.3e-7, -4.0e-6, -1.5e-5 in gamma_star
        spec = make_spectrum("power", {"kappa": kappa}, 40)
        law = closing_law(spec, 2.0)
        assert abs(law.p - (1.0 + kappa)) <= 1.5e-3
        assert abs(law.gamma_star - kappa / (1.0 + kappa)) <= 2e-5
        assert law.superexponential

    def test_linear_threshold_is_one_half(self):
        # the `dynamics` spectrum and drive: gamma = 0.40 and 0.45 lie below
        # the log-Lipschitz threshold
        law = closing_law(make_spectrum("linear", {"c": 1.0}, 40), 2.0)
        assert abs(law.gamma_star - 0.5) <= 2e-5
        assert 0.45 < law.gamma_star < 0.5


class TestRatioBounds:
    def test_level_nine(self, shift_t1):
        out = ratio_bounds_check(shift_t1, 9)
        assert out["beta"] >= 0.5
        band = out["band_lognorms"].values()
        # the band spreads by at most 4 n^(3/2)
        assert max(band) - min(band) <= 4.0 * 9**1.5

    def test_degenerate_level_one(self, shift_t1):
        out = ratio_bounds_check(shift_t1, 1)
        assert out["beta"] > 0.0

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


def dense_doubling(op, n_trunc, one_column_rhs):
    """The propagator before its half-period blocks: the identity stepped
    through the whole period as one dense `lawson_rk4` pass per step count,
    under the same doubling rule.  Returns the matrix and its step count."""
    n_int = n_trunc + (1 if n_trunc % 2 == 0 else 2)
    inner = replace(op, spectrum=op.spectrum.truncated(n_int), n_modes=n_int)

    def dense(steps):
        rhs = one_column_rhs(inner, 0.0, inner.period, steps)
        return lawson_rk4(inner.lam, rhs, np.eye(n_int), 0.0, inner.period, steps)

    steps, prev = 512, dense(512)
    while steps < 1 << 14:
        steps *= 2
        cur = dense(steps)
        if np.max(np.abs(cur - prev)) <= floquet.PROPAGATOR_TOL * np.max(np.abs(cur)):
            return cur[:, :n_trunc], steps
        prev = cur
    raise AssertionError("the dense oracle did not converge")


@pytest.fixture(scope="module")
def dynamics_operator():
    """The operator of the benchmark's `dynamics` floquet run."""
    return make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 40),
                                  PeriodicDrive(1.0, 2.0, 0.75))


@pytest.mark.parametrize("name,n_trunc", [("operator_t2", 8), ("dynamics_operator", 16)])
def test_blocks_match_dense_oracle(name, n_trunc, request, one_column_rhs):
    # the dense oracle differs from the block product by round-off alone:
    # 1.6e-13 relative on the pattern, 1.5e-12 of the column's largest
    # entry off it
    op = request.getfixturevalue(name)
    want, want_steps = dense_doubling(op, n_trunc, one_column_rhs)
    got = poincare_numeric(op, n_trunc)
    assert got.steps == want_steps == 4096
    assert np.array_equal(got.matrix == 0.0, want == 0.0)
    shift = poincare_predicted(op.spectrum, op.half_period)
    on = np.zeros(want.shape, dtype=bool)
    on[shift.image[1:n_trunc + 1] - 1, np.arange(n_trunc)] = True
    assert np.all(np.abs(got.matrix[on] - want[on]) <= 1e-12 * np.abs(want[on]))
    off = np.abs(np.where(on, 0.0, got.matrix - want))
    assert np.all(off <= 1e-11 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("epsilon", [None, 0.0])
@pytest.mark.parametrize("steps,columns,periods", [(64, 2, 2.0), (16, 3, 1.5)])
def test_tabulated_rhs_matches_dense_formula(operator_t2, epsilon, steps, columns, periods):
    # whole-period columns share each stage's phase, so a stage runs 0, 1 or
    # 2 live terms; half-period columns mix the halves, up to all 4
    op = operator_t2 if epsilon is None else replace(operator_t2, epsilon=epsilon)
    table = op.stage_table(0.0, periods * op.period, steps, columns)
    rhs = op.tabulated_rhs(table)
    templates = dense_templates(op)
    coeffs = np.array(table.coeffs)
    stages = 2 * steps
    u = np.random.default_rng(7).standard_normal((op.n_modes, columns))
    h = (table.t1 - table.t0) / (columns * steps)
    starts = np.arange(columns) * stages * (h / 2)
    live_counts = set()
    for k in range(stages + 1):
        c = coeffs[:, np.arange(columns) * stages + k]
        live_counts.add(int(np.count_nonzero(np.any(c != 0.0, axis=1))))
        want = (c[0] * (templates[0] @ u) + c[1] * (templates[1] @ u)
                + c[2] * (templates[2] @ u) + c[3] * (templates[3] @ u))
        assert rhs(starts + k * (h / 2), u).tobytes() == want.tobytes(), k
    if periods == 2.0:
        assert live_counts == ({0, 1, 2} if epsilon is None else {0, 1})
    else:
        assert max(live_counts) == (4 if epsilon is None else 2)


def test_one_coefficient_table_per_chunk(operator_t2, monkeypatch):
    # 256-step chunks split every half-period from 512 steps a period up;
    # the zero-coupling guard and the rhs read the same table
    monkeypatch.setattr(floquet, "BLOCK_CHUNK", 256)
    calls = []
    evaluate = PeriodicOperator._coefficients

    def counted(self, t):
        calls.append(np.size(t))
        return evaluate(self, t)

    monkeypatch.setattr(PeriodicOperator, "_coefficients", counted)
    got = poincare_numeric(operator_t2, 8)
    chunks = [steps // 2 // 256 for steps in (512, 1024, 2048, 4096) for _ in range(2)]
    assert got.steps == 4096
    assert calls == [2 * 256 + 1] * sum(chunks)


def test_rhs_memory_is_linear_in_modes():
    # one dense n x n template at n = 4000 is 128 MB
    n = 4000
    op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, n),
                                PeriodicDrive(1.0, 2.0, 0.75), n)
    start = np.zeros((n, 2))
    start[0] = 1.0
    tracemalloc.start()
    try:
        rhs = op.tabulated_rhs(op.stage_table(0.0, op.period, 1, 2))
        end = lawson_rk4(op.lam, rhs, start, np.array([0.0, op.half_period]),
                         np.array([op.half_period, op.period]), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.all(np.isfinite(end))


# (block count, spread of the blocks around the identity); a long product of
# far blocks would leave the double range
TREE_CASES = [(count, spread) for spread in (1e-3, 0.3, 2.0)
              for count in (1, 2, 3, 5, 12, 13, 1500) if spread < 2.0 or count < 1500]


@pytest.mark.parametrize("count,spread", TREE_CASES)
def test_odd_tree_matches_left_fold(count, spread):
    # a tree level of odd length carries its last block up unpaired; blocks
    # near the identity start on the deviation tree, far ones on plain
    # products, and at 0.3 the tree switches between the two
    g = np.eye(2) + spread * np.random.default_rng(count).uniform(-0.5, 0.5, (count, 2, 2))
    want = np.eye(2)
    for block in g:
        want = block @ want
    got = floquet._ordered_product(g)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_block_period_memory_is_linear_in_modes():
    # both halves' blocks at n = 4000 and 64 steps a period, built and
    # applied to six start columns; one dense n x n map is 128 MB
    n = 4000
    op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, n),
                                PeriodicDrive(1.0, 2.0, 0.75), n)
    starts = np.zeros((n, 6))
    starts[0, 0] = 1.0
    starts[np.arange(2, 12, 2), np.arange(1, 6)] = 1.0
    tracemalloc.start()
    try:
        ends = period_advance(op, 64)(starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.all(np.isfinite(ends))
    # e_1 ends on mode 3, as the shift pattern has it
    assert np.argmax(np.abs(ends[:, 0])) == 2


def test_period_advance_matches_the_dense_map(operator_t2):
    # every column of the identity through the blocks, against the dense
    # period map that `poincare_numeric` scatters the same blocks into
    want = poincare_numeric(operator_t2, 8)
    inner = replace(operator_t2, n_modes=9)
    got = period_advance(inner, want.steps)(np.eye(9))[:, :8]
    scale = np.max(np.abs(want.matrix), axis=0)
    assert np.all(np.abs(got - want.matrix) <= 1e-14 * scale)
