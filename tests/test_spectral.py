import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attractorlab import spectral
from attractorlab.config import DEFAULTS, drive_from_config
from attractorlab.simulate import Scenario, SimulationError
from attractorlab.spectral import (SpectrumError, block_eigenvalues,
                                   c1_obstruction_check, cube_width,
                                   linearization_spectrum, make_spectrum,
                                   regime_bound, site_pairs, spectral_gap)


def test_cube_width_is_ceil_sqrt():
    assert [cube_width(n) for n in range(1, 11)] == [1, 2, 2, 2, 3, 3, 3, 3, 3, 4]
    assert all(cube_width(n) == int(math.ceil(math.sqrt(n))) for n in range(1, 10**5 + 1))
    assert cube_width(10**40) == 10**20 and cube_width(10**40 + 1) == 10**20 + 1


class TestMakeSpectrum:
    def test_linear_identity_family(self):
        spec = make_spectrum("linear", {"c": 1.0}, 5)
        assert np.allclose(spec.values, [1, 2, 3, 4, 5])

    def test_quadratic(self):
        spec = make_spectrum("quadratic", {}, 4)
        assert np.allclose(spec.values, [1, 4, 9, 16])

    def test_power_against_direct_exponentiation(self):
        spec = make_spectrum("power", {"kappa": 1.5}, 3)
        assert np.allclose(spec.values, [n**1.5 for n in (1, 2, 3)], rtol=1e-15)

    def test_explicit_rejects_non_monotone_with_index(self):
        with pytest.raises(SpectrumError, match="index 2"):
            make_spectrum("explicit", {"values": [1.0, 3.0, 2.0]}, 3)

    def test_analytic_extension_beyond_truncation(self):
        spec = make_spectrum("linear", {"c": 2.0}, 4)
        assert spec.lam(10) == 20.0
        explicit = make_spectrum("explicit", {"values": [1.0, 2.0]}, 2)
        with pytest.raises(SpectrumError):
            explicit.lam(3)


class TestSpectralGap:
    def test_linear_constant_gaps(self):
        assert spectral_gap(make_spectrum("linear", {"c": 1.0}, 6)) == 1.0

    def test_quadratic_unbounded(self):
        assert spectral_gap(make_spectrum("quadratic", {}, 6)) == math.inf

    def test_power_above_one_unbounded(self):
        assert spectral_gap(make_spectrum("power", {"kappa": 1.5}, 6)) == math.inf

    def test_explicit_max_gap(self):
        spec = make_spectrum("explicit", {"values": [1, 2, 4, 5, 7, 8]}, 6)
        assert spectral_gap(spec) == 2.0

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=3, max_size=12))
    def test_prefix_monotonicity(self, increments):
        vals = np.cumsum([1.0] + increments)
        spec = make_spectrum("explicit", {"values": list(vals)}, len(vals))
        for k in range(2, len(vals)):
            prefix = spec.truncated(k)
            assert spectral_gap(prefix) <= spectral_gap(spec) + 1e-12


class TestBlockEigenvalues:
    def test_known_complex_pairs(self):
        r1, r2 = block_eigenvalues(1.0, 2.0, 1.0)
        assert r1 == pytest.approx(complex(-1.5, math.sqrt(3) / 2), abs=1e-12)
        r1, r2 = block_eigenvalues(2.0, 3.0, 2.0)
        assert r1 == pytest.approx(complex(-2.5, 0.5 * math.sqrt(15)), abs=1e-12)

    def test_discriminant_boundary_double_root(self):
        r1, r2 = block_eigenvalues(1.0, 2.0, 0.5)
        assert r1 == r2 == pytest.approx(-1.5)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=30.0))
    def test_roots_satisfy_characteristic_polynomial(self, lam_a, gap, coupling):
        lam_b = lam_a + gap
        for root in block_eigenvalues(lam_a, lam_b, coupling):
            residual = root**2 + (lam_a + lam_b) * root + lam_a * lam_b + coupling**2
            scale = max(abs(root) ** 2, lam_a * lam_b + coupling**2)
            assert abs(residual) <= 1e-12 * scale

    def test_non_real_iff_coupling_beats_gap(self):
        assert block_eigenvalues(1.0, 2.0, 0.6)[0].imag != 0.0
        assert block_eigenvalues(1.0, 2.0, 0.4)[0].imag == 0.0


# 0-based (first, second) block modes; the minus site leaves an odd
# truncation's last mode alone, the plus site mode 1 and an even one's last
SITE_PAIRS = {
    (4, "minus"): ([0, 2], [1, 3]), (4, "plus"): ([1], [2]),
    (5, "minus"): ([0, 2], [1, 3]), (5, "plus"): ([1, 3], [2, 4]),
    (6, "minus"): ([0, 2, 4], [1, 3, 5]), (6, "plus"): ([1, 3], [2, 4]),
    (7, "minus"): ([0, 2, 4], [1, 3, 5]), (7, "plus"): ([1, 3, 5], [2, 4, 6]),
}


@pytest.mark.parametrize("n,site", sorted(SITE_PAIRS))
def test_site_pairs(n, site):
    first, second = site_pairs(n, site)
    assert (first.tolist(), second.tolist()) == SITE_PAIRS[n, site]
    lone = sorted(set(range(n)) - set(first.tolist()) - set(second.tolist()))
    assert lone == [0] * (site == "plus") + [n - 1] * ((n % 2 == 1) == (site == "minus"))


class TestLinearizationSpectrum:
    def test_minus_site_no_real_eigenvalues(self):
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        out = linearization_spectrum(spec, 1.0, "minus")
        assert out.real_count == 0
        assert out.dense_mismatch <= 1e-9

    def test_plus_site_single_unstable_real(self):
        spec = make_spectrum("linear", {"c": 1.0}, 9)
        out = linearization_spectrum(spec, 2.0, "plus")
        assert out.real_count == 1
        assert out.real_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_small_coupling_all_real(self):
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        out = linearization_spectrum(spec, 0.4, "minus")
        assert out.real_count == 8

    def test_orphaned_mode_rejected(self):
        spec = make_spectrum("linear", {"c": 1.0}, 7)
        with pytest.raises(SpectrumError, match="orphan"):
            linearization_spectrum(spec, 1.0, "minus")
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        with pytest.raises(SpectrumError, match="orphan"):
            linearization_spectrum(spec, 1.0, "plus")

    def test_repeated_blocks_match_dense_by_nearest_eigenvalue(self):
        # two equal (b, b) blocks give the double pair -b +- iL; the dense
        # solver splits their real parts by ulps, and pairing the two sorted
        # lists in order put -b + iL against -b - iL (mismatch 2L = 41)
        b = 8.282741228754693
        spec = make_spectrum("explicit", {"values": [8.28220539561142, b, b, b, b]}, 5)
        out = linearization_spectrum(spec, 20.66937700818356, "plus")
        assert out.dense_mismatch <= 1e-12

    def test_block_assembly_matches_dense_to_tolerance(self):
        spec = make_spectrum("explicit", {"values": [1.0, 2.5, 2.7, 4.0, 4.1, 6.0]}, 6)
        out = linearization_spectrum(spec, 1.3, "minus")
        assert out.dense_mismatch <= 1e-9


class TestObstruction:
    def test_contradiction_in_regime(self):
        spec = make_spectrum("linear", {"c": 1.0}, 33)
        verdict = c1_obstruction_check(spec, 2.0)
        assert verdict.parity_contradiction
        assert verdict.minus_real_count == 0
        assert verdict.plus_real_count == 1
        assert verdict.minus_truncation == 32
        assert verdict.plus_truncation == 33

    def test_gap_condition_regime_no_obstruction(self):
        spec = make_spectrum("linear", {"c": 1.0}, 32)
        verdict = c1_obstruction_check(spec, 0.4)
        assert not verdict.parity_contradiction
        assert not verdict.in_regime

    def test_explicit_spectrum_against_dense_oracle(self):
        # Dense eigensolver on the assembled 4x4 minus-site matrix gives zero
        # real eigenvalues (every in-block gap is below 2L), and the 3-mode
        # plus site has exactly one unstable real mode, so the parity clash
        # is certified here.
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 4.0, 5.0]}, 4)
        minus = linearization_spectrum(spec, 1.6, "minus")
        assert minus.real_count == 0 and minus.dense_mismatch <= 1e-9
        verdict = c1_obstruction_check(spec, 1.6)
        assert verdict.minus_real_count == 0
        assert verdict.plus_real_count == 1
        assert verdict.parity_contradiction

    def test_corrupted_block_eigenvalue_refused(self, monkeypatch):
        spec = make_spectrum("linear", {"c": 1.0}, 9)
        assert c1_obstruction_check(spec, 2.0).parity_contradiction
        exact = spectral.block_eigenvalues

        def corrupted(lam_a, lam_b, coupling):
            r1, r2 = exact(lam_a, lam_b, coupling)
            return (r1 + 1e-3, r2) if lam_a == 3.0 else (r1, r2)

        monkeypatch.setattr(spectral, "block_eigenvalues", corrupted)
        with pytest.raises(SpectrumError, match="dense eigensolver"):
            c1_obstruction_check(spec, 2.0)


def scenario(spec, budget):
    dyn = DEFAULTS["dynamics"]
    return Scenario(spec, budget, drive_from_config(DEFAULTS), dyn["n_trunc"], dyn["n0"],
                    dyn["kick_max_level"], dyn["kappa"], dyn["steps_per_period"])


bounded_spectra = st.one_of(
    st.builds(lambda c, n: make_spectrum("linear", {"c": c}, n),
              st.floats(min_value=0.05, max_value=20.0), st.integers(3, 24)),
    st.builds(lambda kappa, n: make_spectrum("power", {"kappa": kappa}, n),
              st.floats(min_value=0.05, max_value=1.0), st.integers(3, 24)),
    st.builds(lambda head, steps: make_spectrum(
        "explicit", {"values": list(np.cumsum([head] + steps))}, len(steps) + 1),
              st.floats(min_value=0.01, max_value=10.0),
              st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12)),
)


class TestRegimeBound:
    def test_closed_forms(self):
        assert regime_bound(make_spectrum("linear", {"c": 1.0}, 40)) == 1.0
        explicit = make_spectrum("explicit", {"values": [1, 2, 6, 7]}, 4)
        assert regime_bound(explicit) == 2.0  # half the gap 4 beats lambda_1 = 1
        assert regime_bound(make_spectrum("quadratic", {}, 6)) == math.inf

    @given(bounded_spectra)
    def test_scenario_and_obstruction_share_the_boundary(self, spec):
        bound = regime_bound(spec)
        assert bound == max(0.5 * float(np.max(np.diff(spec.values))), float(spec.values[0]))
        with pytest.raises(SimulationError, match="must exceed"):
            scenario(spec, bound)
        assert not c1_obstruction_check(spec, bound).in_regime
        above = math.nextafter(bound, math.inf)
        assert scenario(spec, above).lipschitz_budget == above
        assert c1_obstruction_check(spec, above).in_regime

    def test_unbounded_gap_refused(self):
        with pytest.raises(SimulationError, match="unbounded spectral gap"):
            scenario(make_spectrum("power", {"kappa": 1.5}, 8), 1e9)
        assert not c1_obstruction_check(make_spectrum("quadratic", {}, 8), 1e9).in_regime
