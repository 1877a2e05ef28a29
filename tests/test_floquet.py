import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from attractorlab import floquet, phases, quadrature
from attractorlab.cutoffs import PeriodicDrive, SmoothStep, _ramp_mean, mollifier_bump
from attractorlab.floquet import (WALK_PERIODS, FloquetError, PeriodicOperator,
                                  calibrate_epsilon, closing_law, iterate_norm,
                                  make_periodic_operator, period_advance,
                                  poincare_numeric, poincare_predicted, ratio_bounds_check)
from attractorlab.integrators import lawson_rk4
from attractorlab.phases import shift_match_report
from attractorlab.spectral import cube_width, make_spectrum, spectral_gap
from conftest import coefficient_rows, dense_log_columns, dense_templates

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
    """The shift's arrays indexed by mode 1..n_max (entry 0 unused), built
    one mode at a time, each multiplier from `Spectrum.lam` in the closed
    form's order of operations: image[m] is 0 where the truncation holds no
    image of mode m, and may name a mode past n_max."""
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


def loop_walk(image, logmult, mode, count):
    """`count` applications of the per-mode arrays to e_mode, one step at a
    time, as (lognorms, orbit): the oracle of `iterate_norm`'s line slices,
    with the same error text where the walk leaves the arrays."""
    orbit = [mode]
    for step in range(count):
        cur = orbit[-1]
        nxt = int(image[cur]) if 0 < cur < len(image) else 0
        if nxt == 0:
            raise FloquetError(f"orbit exits the stored truncation at step {step + 1} "
                               f"(mode {cur})")
        orbit.append(nxt)
    return np.cumsum(np.concatenate(([0.0], logmult[orbit[:-1]]))), orbit


def line_of(image, logmult):
    """The per-mode arrays as a line: the modes from the largest even one
    through the images until the arrays hold none, and their multipliers
    in line order."""
    n_max = len(image) - 1
    line = [n_max - n_max % 2]
    while line[-1] <= n_max and image[line[-1]]:
        line.append(int(image[line[-1]]))
    return np.array(line), logmult[line[:-1]]


class TestPredictedShift:
    def test_multiplier_closed_forms(self):
        spec = make_spectrum("linear", {"c": 1.0}, 3)
        shift = poincare_predicted(spec, 1.0)
        assert shift.line.tolist() == [2, 1, 3, 5]
        assert shift.log_multiplier[0] == pytest.approx(-2.0)  # e_2 -> e_1: exp(-2)
        assert shift.log_multiplier[1] == pytest.approx(-4.0)  # e_1 -> e_3
        assert shift.position[[1, 2, 3, 5]].tolist() == [1, 0, 2, 3]
        assert shift.position[4] == -1

    def test_zero_time_identity_magnitudes(self):
        spec = make_spectrum("linear", {"c": 1.0}, 6)
        shift = poincare_predicted(spec, 0.0)
        assert np.all(shift.log_multiplier == 0.0)

    def test_time_scaling_covariance(self):
        spec = make_spectrum("linear", {"c": 1.0}, 10)
        s1 = poincare_predicted(spec, 1.0)
        s3 = poincare_predicted(spec, 3.0)
        assert len(s1.line) == 11 and len(s1.log_multiplier) == 10
        for step in range(10):
            assert s3.log_multiplier[step] == pytest.approx(3.0 * s1.log_multiplier[step],
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
        line, logmult = line_of(*per_mode_shift(spec, half_period))
        assert np.array_equal(shift.line, line)
        assert shift.log_multiplier.tobytes() == logmult.tobytes()
        assert np.array_equal(shift.position[shift.line], np.arange(len(line)))

    def test_images_past_the_truncation(self):
        # a family extends two modes past n_max; an explicit list cannot
        odd = poincare_predicted(make_spectrum("linear", {"c": 1.0}, 7), 1.0)
        assert odd.line.tolist() == [6, 4, 2, 1, 3, 5, 7, 9]
        even = poincare_predicted(make_spectrum("linear", {"c": 1.0}, 8), 1.0)
        assert even.line.tolist() == [8, 6, 4, 2, 1, 3, 5, 7, 9]
        explicit = poincare_predicted(
            make_spectrum("explicit", {"values": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, 6), 1.0)
        assert explicit.line.tolist() == [6, 4, 2, 1, 3, 5]
        assert len(explicit.log_multiplier) == 5


class TestNumericPoincare:
    def test_matches_predicted_shift(self, operator_t2):
        spec = operator_t2.spectrum
        numeric = poincare_numeric(operator_t2, 8)
        predicted = poincare_predicted(spec, operator_t2.half_period)
        report = shift_match_report(dense_log_columns(numeric.matrix), predicted)
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
        # coupling's diagonal would act on the minus half-period too, and two
        # colours would no longer separate the blocks
        op = replace(operator_t2, theta2=SmoothStep(-0.25, 0.25))
        with pytest.raises(FloquetError, match="^theta2's lo -0.25 is below 0"):
            poincare_numeric(op, 8)
        with pytest.raises(FloquetError, match="^theta2's lo -0.25 is below 0"):
            period_advance(op, 512)

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
        want = iterate_norm(shift, 4, 3).lognorms[-1]
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


@st.composite
def drawn_shifts(draw):
    """A spectrum and half-period: linear, power and quadratic families,
    and explicit lists with gaps from 0 to 3, at n_max 3..40."""
    family = draw(st.sampled_from(["linear", "power", "quadratic", "explicit"]))
    n_max = draw(st.integers(3, 40))
    if family == "explicit":
        gaps = draw(st.lists(st.floats(0.0, 3.0), min_size=n_max - 1, max_size=n_max - 1))
        params = {"values": (draw(st.floats(0.1, 5.0)) + np.cumsum([0.0, *gaps])).tolist()}
    else:
        params = {"linear": {"c": draw(st.floats(0.1, 10.0))},
                  "power": {"kappa": draw(st.floats(0.05, 1.0))}, "quadratic": {}}[family]
    return make_spectrum(family, params, n_max), draw(st.floats(0.05, 3.0))


class TestIterateNorms:
    @given(drawn_shifts())
    @settings(max_examples=60, deadline=None)
    def test_slices_match_loop_walk(self, drawn):
        # every start mode, on the line or off it, every count up to the
        # line's end, bit for bit; one step past the end, the same error
        spec, half_period = drawn
        shift = poincare_predicted(spec, half_period)
        image, logmult = per_mode_shift(spec, half_period)
        for mode in range(-1, int(shift.line.max()) + 2):
            for count in range(len(shift.line) + 1):
                try:
                    lognorms, orbit = loop_walk(image, logmult, mode, count)
                except FloquetError as exc:
                    with pytest.raises(FloquetError, match=f"^{re.escape(str(exc))}$"):
                        iterate_norm(shift, mode, count)
                    break
                got = iterate_norm(shift, mode, count)
                assert got.lognorms.tobytes() == lognorms.tobytes()
                assert got.orbit.tolist() == orbit

    def test_first_mode_one_period(self, shift_t1):
        # dense-oracle value: one period moves e_1 to e_3 through the two
        # half-maps, total log -(delta_1 + delta_2) = -4
        out = iterate_norm(shift_t1, 1, 1)
        assert out.lognorms[-1] == pytest.approx(-4.0)
        assert out.orbit.tolist() == [1, 3]

    def test_second_mode_one_period(self, shift_t1):
        out = iterate_norm(shift_t1, 2, 1)
        assert out.lognorms[-1] == pytest.approx(-2.0)
        assert out.orbit.tolist() == [2, 1]

    def test_zero_iterates(self, shift_t1):
        assert iterate_norm(shift_t1, 7, 0).lognorms.tolist() == [0.0]

    def test_running_totals_are_shorter_walks(self, shift_t1):
        walk = iterate_norm(shift_t1, 2, 9)
        assert len(walk.lognorms) == len(walk.orbit) == 10
        for k in range(10):
            short = iterate_norm(shift_t1, 2, k)
            assert short.lognorms[-1] == walk.lognorms[k]  # bitwise: same sums, same order
            assert short.orbit.tolist() == walk.orbit[:k + 1].tolist()

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
        assert iterate_norm(shift, 1, 4).orbit.tolist() == [1, 3, 5, 7, 9]
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
    @pytest.mark.parametrize("family,params", [("linear", {"c": 1.0}), ("power", {"kappa": 0.5})])
    def test_depth_100_matches_loop_walks(self, family, params):
        # the `kick_max_level` 100 spectrum (linear c = 1, n_max 420, tau
        # 0.5): every level's first-mode and band walks, bit for bit.  Its
        # multipliers are quarter-integers, so every order of summation is
        # exact there; the power family's are not
        spec = make_spectrum(family, params, 420)
        half_period = PeriodicDrive(1.0, 0.5, 0.75).half_period
        shift = poincare_predicted(spec, half_period)
        image, logmult = per_mode_shift(spec, half_period)
        for n in range(4, 101):
            k = cube_width(n)
            count = 2 * n + k
            total = lambda mode: float(loop_walk(image, logmult, mode, count)[0][-1]).hex()
            out = ratio_bounds_check(shift, n)
            assert out["first_mode_lognorm"].hex() == total(1)
            assert {s: v.hex() for s, v in out["band_lognorms"].items()} == {
                s: total(2 * s) for s in range(n, n + k + 1)}

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
    on[shift.line[shift.position[1:n_trunc + 1] + 1] - 1, np.arange(n_trunc)] = True
    assert np.all(np.abs(got.matrix[on] - want[on]) <= 1e-12 * np.abs(want[on]))
    off = np.abs(np.where(on, 0.0, got.matrix - want))
    assert np.all(off <= 1e-11 * np.max(np.abs(want), axis=0))


@pytest.mark.parametrize("epsilon", [None, 0.0])
@pytest.mark.parametrize("columns", [2, 3])
def test_tabulated_rhs_matches_dense_formula(operator_t2, epsilon, columns):
    # each half's two terms against the dense sum of all four, the other
    # half's rows included, at every stage of its one-step columns
    op = operator_t2 if epsilon is None else replace(operator_t2, epsilon=epsilon)
    templates = dense_templates(op)
    u = np.random.default_rng(7).standard_normal((op.n_modes, columns))
    for plus in (False, True):
        t0 = op.half_period if plus else 0.0
        t1 = t0 + op.half_period
        rhs = op.tabulated_rhs(plus, t0, t1, columns)
        coeffs = np.array(coefficient_rows(op, np.linspace(t0, t1, 2 * columns + 1)))
        h = (t1 - t0) / columns
        starts = t0 + np.arange(columns) * h
        for k in range(3):
            c = coeffs[:, 2 * np.arange(columns) + k]
            want = (c[0] * (templates[0] @ u) + c[1] * (templates[1] @ u)
                    + c[2] * (templates[2] @ u) + c[3] * (templates[3] @ u))
            assert rhs(starts + k * (h / 2), u).tobytes() == want.tobytes(), (plus, k)


def test_one_coefficient_table_per_chunk(operator_t2, monkeypatch):
    # 256-step chunks split every half-period from 512 steps a period up;
    # each chunk's rhs reads its half's two rows from one call
    monkeypatch.setattr(floquet, "BLOCK_CHUNK", 256)
    calls = []
    evaluate = PeriodicOperator._coefficients

    def counted(self, t, plus):
        rows = evaluate(self, t, plus)
        calls.append((len(rows), np.size(t)))
        return rows

    monkeypatch.setattr(PeriodicOperator, "_coefficients", counted)
    got = poincare_numeric(operator_t2, 8)
    chunks = [steps // 2 // 256 for steps in (512, 1024, 2048, 4096) for _ in range(2)]
    assert got.steps == 4096
    assert calls == [(2, 2 * 256 + 1)] * sum(chunks)


@given(amplitude=st.floats(0.1, 4.0), tau=st.floats(0.05, 4.0), p=st.floats(0.51, 0.99),
       step_lo=st.floats(0.0, 2.0), step_width=st.floats(0.01, 2.0),
       support_lo=st.floats(0.0, 2.0), knots=st.tuples(*[st.floats(0.01, 2.0)] * 3),
       chunk=st.sampled_from([256, 2048]), steps=st.integers(256, 4096))
@settings(max_examples=30, deadline=None)
def test_certificate_zeroes_the_other_half(amplitude, tau, p, step_lo, step_width, support_lo,
                                           knots, chunk, steps):
    # cut-offs that pass `separation_certificate`, scaled by the amplitude;
    # the rotation may overlap the ramps, which only the closed form refuses
    theta2 = SmoothStep(amplitude * step_lo, amplitude * (step_lo + step_width))
    edges = amplitude * (support_lo + np.cumsum((0.0,) + knots))
    theta1 = mollifier_bump(edges[0], edges[3], edges[1], edges[2])
    op = PeriodicOperator(make_spectrum("linear", {"c": 1.0}, 5),
                          PeriodicDrive(amplitude, tau, p), theta1, theta2, 1.0, 1.0, 5)
    floquet.separation_certificate(op)
    grids = []
    evaluate = PeriodicOperator._coefficients

    def recorded(self, t, plus):
        grids.append((plus, np.array(t)))
        return evaluate(self, t, plus)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floquet, "BLOCK_CHUNK", chunk)
        mp.setattr(PeriodicOperator, "_coefficients", recorded)
        floquet.period_advance(op, 2 * steps)
    for plus in (False, True):
        own = [t for half, t in grids if half == plus]
        assert len(own) == math.ceil(steps / chunk)
        assert sum(t.size - 1 for t in own) == 2 * steps
        for t in own:
            tm, r1m, tp, r1p = coefficient_rows(op, t)
            other = (tm, r1m) if plus else (tp, r1p)
            assert all(np.all(row == 0.0) for row in other)


def test_rhs_memory_is_linear_in_modes():
    # one dense n x n template at n = 4000 is 128 MB
    n = 4000
    op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, n),
                                PeriodicDrive(1.0, 2.0, 0.75), n)
    start = np.zeros((n, 2))
    start[0] = 1.0
    tracemalloc.start()
    try:
        rhs = op.tabulated_rhs(False, 0.0, op.half_period, 2)
        end = lawson_rk4(op.lam, rhs, start, np.array([0.0, 0.5 * op.half_period]),
                         np.array([0.5 * op.half_period, op.half_period]), 1)
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


# (family, params) of the closed form's oracle spectra; the explicit one
# steps by 0.5, 1.5, 0.25 and 2.0 in turn, so its pairs' gaps differ
ORACLE_SPECTRA = [
    ("linear", {"c": 1.0}), ("power", {"kappa": 0.5}),
    ("explicit", {"values": [1.0 + sum((0.5, 1.5, 0.25, 2.0)[j % 4] for j in range(k))
                             for k in range(40)]})]


@pytest.mark.parametrize("n_modes", [17, 40])
@pytest.mark.parametrize("tau", [0.3, 2.0])
@pytest.mark.parametrize("family,params", ORACLE_SPECTRA, ids=[f for f, _ in ORACLE_SPECTRA])
def test_phase_blocks_match_lawson_blocks(family, params, tau, n_modes):
    # the Lawson blocks at 2,048 steps a half differ from the closed form
    # by 2.2e-13 to 3.0e-13 of a block's largest entry; an odd n_modes
    # leaves a lone mode at the minus half's edge, an even one at the plus
    # half's
    op = make_periodic_operator(make_spectrum(family, params, 40),
                                PeriodicDrive(1.0, tau, 0.75), n_modes)
    theta, ramp = phases.phase_constants(op)
    for plus in (False, True):
        pairs, blocks = floquet._half_period_blocks(op, plus, 2048)
        closed_pairs, sign, log = phases.phase_blocks(op, plus, theta, ramp)
        assert np.array_equal(closed_pairs, pairs)
        got = sign * np.exp(log)
        scale = np.max(np.abs(blocks), axis=(1, 2))
        assert np.all(np.max(np.abs(got - blocks), axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("amplitude,tau,p", DRIVES)
def test_phase_constants_match_quadrature(amplitude, tau, p):
    # theta is the calibrated quarter turn; A integrates 1 - theta2(-x) up
    # to t_e, the exact root of h(u) = 1/4: ln3 u^2 - (ln3 + 2) u + 1 = 0,
    # u = t_e / w, past which theta2(-x) is exactly 1
    drive = PeriodicDrive(amplitude, tau, p)
    op = make_periodic_operator(make_spectrum("linear", {"c": 1.0}, 4), drive)
    theta, ramp = phases.phase_constants(op)
    assert abs(theta - math.pi / 2.0) <= 2.0 * math.ulp(math.pi / 2.0)
    b = math.log(3.0) + 2.0
    u = (b - math.sqrt(b * b - 4.0 * math.log(3.0))) / (2.0 * math.log(3.0))
    t_e = u * drive.transition_width
    assert abs(t_e - drive.plateau_entry_time()) <= 4 * math.ulp(t_e)
    assert float(op.theta2.value(-drive.value(t_e * (1.0 + 1e-7)))) == 1.0
    oracle, _ = quad(lambda t: 1.0 - float(op.theta2.value(-drive.value(t))), 0.0, t_e,
                     epsabs=1e-15, epsrel=1e-13, limit=200)
    assert ramp == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("cutoff,value,failed", [
    ("theta2", SmoothStep(-0.25, 0.25), "theta2's lo -0.25 is below 0, so each half's"),
    ("theta1", mollifier_bump(-0.1, 2.0, 0.5, 1.5),
     "theta1's support_lo -0.1 is below 0, so the two halves' supports are not disjoint"),
    ("theta1", mollifier_bump(0.2, 2.0, 0.5, 1.5),
     "theta1's support_lo 0.2 is below theta2's hi 0.25, so the rotation overlaps"),
])
def test_phase_certificate_names_the_failed_inequality(operator_t2, cutoff, value, failed):
    # the default cut-offs sit on the third inequality's edge, support_lo
    # = hi = amplitude / 4, and pass it
    assert operator_t2.theta1.support_lo == operator_t2.theta2.hi
    phases.phase_constants(operator_t2)
    with pytest.raises(FloquetError, match=f"^no closed-form blocks: {re.escape(failed)}"):
        phases.phase_constants(replace(operator_t2, **{cutoff: value}))
    with pytest.raises(FloquetError, match="^no closed-form blocks"):
        phases.poincare_columns(replace(operator_t2, **{cutoff: value}), 8)


def scattered(columns, n_rows):
    """`poincare_columns`' signed logs as a dense (n_rows, n) array, the
    dummy row dropped."""
    rows, sign, log = columns
    n = log.shape[1]
    dense = np.zeros((n_rows + 1, n))
    for k in range(len(log)):
        dense[np.minimum(rows[k], n_rows), np.arange(n)] += sign[k] * np.exp(log[k])
    return dense[:n_rows]


@pytest.mark.parametrize("name,n_trunc", [("operator_t2", 8), ("operator_t2", 9),
                                          ("dynamics_operator", 16)])
def test_closed_form_columns_match_lawson_map(name, n_trunc, request):
    # the Lawson map's step error at 4,096 steps a period is at most 2.2e-12
    # of a column's largest entry; on the pattern it is 1e-13 relative
    op = request.getfixturevalue(name)
    want = poincare_numeric(op, n_trunc).matrix
    columns = phases.poincare_columns(op, n_trunc)
    assert np.all(np.count_nonzero(columns[2] > -np.inf, axis=0) <= 4)
    got = scattered(columns, want.shape[0])
    assert np.all(np.abs(got - want) <= 5e-12 * np.max(np.abs(want), axis=0))
    shift = poincare_predicted(op.spectrum, op.half_period)
    on = (shift.line[shift.position[1:n_trunc + 1] + 1] - 1, np.arange(n_trunc))
    assert np.all(np.abs(got[on] - want[on]) <= 1e-12 * np.abs(want[on]))
    closed = shift_match_report(columns, shift)
    lawson = shift_match_report(dense_log_columns(want), shift)
    assert closed["pattern_ok"] and lawson["pattern_ok"]
    assert closed["max_off_pattern"] < lawson["max_off_pattern"] <= 3e-12


def test_closed_form_columns_need_no_n_by_n_array():
    # at n_trunc 20,000 one dense map would be 3.2 GB, and its entries
    # reach e^-80,000; in log space every column keeps its four entries
    spec = make_spectrum("linear", {"c": 1.0}, 20_002)
    op = make_periodic_operator(spec, PeriodicDrive(1.0, 2.0, 0.75))
    tracemalloc.start()
    try:
        columns = phases.poincare_columns(op, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    report = shift_match_report(columns, poincare_predicted(spec, 2.0))
    assert report["pattern_ok"] and report["max_log_rel_err"] == 0.0
    assert 0.0 < report["max_off_pattern"] <= 1e-13


@pytest.mark.parametrize("family,params", [
    ("linear", {"c": 1.0}), ("power", {"kappa": 0.5}),
    # gaps of 0.1 under lambda_1 = 5: the anchor diagonal, 2.93, is the sup
    ("explicit", {"values": [5.0 + 0.1 * k for k in range(40)]})],
    ids=["linear", "power", "explicit"])
def test_coupling_norm_max_is_the_sampled_sup(family, params):
    # ||Phi(t)|| from the dense templates on a fine grid of one period,
    # which samples the rotation bump's plateau, where the sup is reached
    op = make_periodic_operator(make_spectrum(family, params, 40),
                                PeriodicDrive(1.0, 2.0, 0.75))
    dm, rm, dp, rp = dense_templates(op)
    tm, r1m, tp, r1p = coefficient_rows(op, np.linspace(0.0, op.period, 2001))
    sampled = max(np.linalg.norm(a * dm + b * rm + c * dp + d * rp, 2)
                  for a, b, c, d in zip(tm, r1m, tp, r1p))
    assert abs(op.coupling_norm_max - sampled) <= 1e-12 * sampled
    if family == "linear":
        assert op.coupling_norm_max == pytest.approx(1.505, abs=1e-3)
    if family == "explicit":
        assert op.coupling_norm_max == 0.5 * 5.0 * op.anchor_scale
