import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from attractorlab.config import drive_from_config, resolve_config
from attractorlab.simulate import Scenario, SimulationError
from attractorlab.spectral import (SpectrumError, c1_obstruction_check, cube_width,
                                   make_spectrum, regime_bound, site_pairs,
                                   spectral_gap)


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

    @pytest.mark.parametrize("family,params", [("linear", {"c": 1.0}),
                                               ("power", {"kappa": 0.5}),
                                               ("quadratic", {})])
    def test_extension_keeps_stored_values(self, family, params):
        spec = make_spectrum(family, params, 40)
        longer = spec.truncated(47)
        assert longer.n_max == 47 and longer.values.dtype == np.float64
        assert np.array_equal(longer.values[:40], spec.values)
        assert longer.values[40:].tolist() == [spec.lam(k) for k in range(41, 48)]


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


def _site_matrix(spec, coupling, n_trunc, site):
    """The dense n_trunc x n_trunc linearization at one site: -lambda_k on
    the diagonal, L - lambda_1 for the plus site's lone mode 1, and the
    rotation coupling +-L on each block of `site_pairs`."""
    m = np.diag(-spec.values[:n_trunc])
    if site == "plus":
        m[0, 0] = coupling - spec.values[0]
    first, second = site_pairs(n_trunc, site)
    m[first, second] = coupling
    m[second, first] = -coupling
    return m


def dense_real_counts(spec, coupling, verdict):
    """(minus, plus) counts of real eigenvalues from the dense eigensolver,
    at the verdict's truncations.  LAPACK returns a real eigenvalue of a
    real matrix with imaginary part exactly 0."""
    return tuple(
        int(np.count_nonzero(np.linalg.eigvals(_site_matrix(spec, coupling, n, site)).imag == 0))
        for n, site in ((verdict.minus_truncation, "minus"), (verdict.plus_truncation, "plus")))


def counts(values, coupling):
    verdict = c1_obstruction_check(make_spectrum("explicit", {"values": values}), coupling)
    return verdict.minus_real_count, verdict.plus_real_count


class TestBlockEigenvalues:
    """Each 2x2 rotation block has two real eigenvalues when its gap is at
    least 2L, and none otherwise."""

    def test_discriminant_boundary_double_root(self):
        # every gap is 1 = 2L: a double real root per block, counted twice
        assert counts([1.0, 2.0, 3.0], 0.5) == (2, 3)
        assert counts([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == (4, 5)

    def test_non_real_iff_coupling_beats_gap(self):
        assert counts([1.0, 2.0, 3.0], 0.6) == (0, 1)
        assert counts([1.0, 2.0, 3.0], 0.4) == (2, 3)
        assert counts([1.0, 2.0, 3.0], math.nextafter(0.5, 1.0)) == (0, 1)
        assert counts([1.0, 2.0, 3.0], math.nextafter(0.5, 0.0)) == (2, 3)

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3),
           st.integers(-3, 3))
    # the rounded gap ties with 2L in each example; the exact gap is equal
    # (a double root), below it (complex) and above it (two real roots)
    @example(0.1, 0.2, 0)
    @example(0.1, 1.0, 0)
    @example(0.3, 1.0, 0)
    def test_count_follows_exact_discriminant_sign(self, lam_a, lam_b, ulps):
        # L within a few ulps of half the gap, where its rounding decides
        lam_a, lam_b = min(lam_a, lam_b), max(lam_a, lam_b)
        coupling = 0.5 * (lam_b - lam_a)
        for _ in range(abs(ulps)):
            coupling = math.nextafter(coupling, math.copysign(math.inf, ulps))
        assume(coupling > 0.0)
        exact = (Fraction(lam_b) - Fraction(lam_a)) ** 2 - 4 * Fraction(coupling) ** 2
        # the plus block (lam_b, lam_b) has gap 0 and is always complex
        assert counts([lam_a, lam_b, lam_b], coupling) == (2 if exact >= 0 else 0, 1)


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
    """The real-eigenvalue count at each site, against the dense oracle."""

    def test_minus_site_no_real_eigenvalues(self):
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        verdict = c1_obstruction_check(spec, 1.0)
        assert verdict.minus_truncation == 8 and verdict.minus_real_count == 0
        assert dense_real_counts(spec, 1.0, verdict)[0] == 0

    def test_plus_site_single_unstable_real(self):
        spec = make_spectrum("linear", {"c": 1.0}, 9)
        verdict = c1_obstruction_check(spec, 2.0)
        assert verdict.plus_truncation == 9 and verdict.plus_real_count == 1
        assert verdict.plus_margin == 1.0
        dense = np.linalg.eigvals(_site_matrix(spec, 2.0, 9, "plus"))
        assert dense[dense.imag == 0].real.tolist() == [1.0]

    def test_small_coupling_all_real(self):
        spec = make_spectrum("linear", {"c": 1.0}, 8)
        verdict = c1_obstruction_check(spec, 0.4)
        assert (verdict.minus_real_count, verdict.plus_real_count) == (8, 7)
        assert dense_real_counts(spec, 0.4, verdict) == (8, 7)

    def test_block_assembly_matches_dense_to_tolerance(self):
        # in-block gaps 1.5, 1.3 and 1.9 at the minus site, 0.2 and 0.1 at the
        # plus site: 2L = 2.6 beats them all, 1.4 only 1.3 and those of the
        # plus site, 0.14 only the plus site's 0.1
        spec = make_spectrum("explicit", {"values": [1.0, 2.5, 2.7, 4.0, 4.1, 6.0]})
        for coupling, want in ((1.3, (0, 1)), (0.7, (4, 1)), (0.07, (6, 3))):
            verdict = c1_obstruction_check(spec, coupling)
            assert (verdict.minus_real_count, verdict.plus_real_count) == want
            assert dense_real_counts(spec, coupling, verdict) == want


class TestObstruction:
    def test_contradiction_in_regime(self):
        spec = make_spectrum("linear", {"c": 1.0}, 33)
        verdict = c1_obstruction_check(spec, 2.0)
        assert verdict.in_regime
        assert verdict.minus_real_count == 0
        assert verdict.plus_real_count == 1
        assert verdict.minus_truncation == 32
        assert verdict.plus_truncation == 33

    def test_gap_condition_regime_no_obstruction(self):
        spec = make_spectrum("linear", {"c": 1.0}, 32)
        verdict = c1_obstruction_check(spec, 0.4)
        assert not verdict.in_regime

    def test_explicit_spectrum_against_dense_oracle(self):
        # Dense eigensolver on the assembled 4x4 minus-site matrix gives zero
        # real eigenvalues (every in-block gap is below 2L), and the 3-mode
        # plus site has exactly one unstable real mode, so the parity clash
        # is certified here.
        spec = make_spectrum("explicit", {"values": [1.0, 2.0, 4.0, 5.0]}, 4)
        verdict = c1_obstruction_check(spec, 1.6)
        assert dense_real_counts(spec, 1.6, verdict) == (0, 1)
        assert verdict.minus_real_count == 0
        assert verdict.plus_real_count == 1
        assert verdict.in_regime

    @pytest.mark.parametrize("n_max,excess", [(1000, 1e-13), (1000, 1e-12), (2000, 1e-12)])
    def test_just_inside_the_regime_reads_obstruction(self, n_max, excess):
        # lambda_k = k - 0.75: every gap is 1, the regime bound is 0.5, and
        # every block is complex for L = 0.5 + excess
        spec = make_spectrum("explicit", {"values": [k - 0.75 for k in range(1, n_max + 1)]})
        verdict = c1_obstruction_check(spec, 0.5 + excess)
        assert verdict.in_regime
        assert (verdict.minus_real_count, verdict.plus_real_count) == (0, 1)


# every drive and dynamics key at its default
DEFAULTS = resolve_config({"spectrum": {"family": "linear", "n_max": 8}})


def scenario(spec, budget):
    dyn = DEFAULTS["dynamics"]
    return Scenario(spec, budget, drive_from_config(DEFAULTS), dyn["n_trunc"], dyn["n0"],
                    dyn["kick_max_level"], dyn["kappa"], dyn["steps_per_period"])


# the gap 11.89999 - 2.89999 rounds up to 9.0, so at L = 4.5 every block
# is complex and L = 4.5 is inside the regime
ROUNDED_UP_GAP = make_spectrum("explicit", {"values": list(np.cumsum([0.99999, 1.9, 9.0]))})

bounded_spectra = st.one_of(
    st.builds(lambda c, n: make_spectrum("linear", {"c": c}, n),
              st.floats(min_value=0.05, max_value=20.0), st.integers(3, 200)),
    st.builds(lambda kappa, n: make_spectrum("power", {"kappa": kappa}, n),
              st.floats(min_value=0.05, max_value=1.0), st.integers(3, 200)),
    st.builds(lambda head, steps: make_spectrum(
        "explicit", {"values": list(np.cumsum([head] + steps))}, len(steps) + 1),
              st.floats(min_value=0.01, max_value=10.0),
              st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=199)),
)


class TestRegimeBound:
    def test_closed_forms(self):
        assert regime_bound(make_spectrum("linear", {"c": 1.0}, 40)) == 1.0
        explicit = make_spectrum("explicit", {"values": [1, 2, 6, 7]}, 4)
        assert regime_bound(explicit) == 2.0  # half the gap 4 beats lambda_1 = 1
        assert regime_bound(make_spectrum("quadratic", {}, 6)) == math.inf

    @given(bounded_spectra)
    @example(ROUNDED_UP_GAP)
    def test_scenario_and_obstruction_share_the_boundary(self, spec):
        bound = regime_bound(spec)
        # each exact gap rounded toward -inf
        gaps = [Fraction(b) - Fraction(a) for a, b in zip(spec.values, spec.values[1:])]
        down = [math.nextafter(float(g), -math.inf) if Fraction(float(g)) > g else float(g)
                for g in gaps]
        assert bound == max(0.5 * max(down), float(spec.values[0]))
        with pytest.raises(SimulationError, match="must exceed"):
            scenario(spec, bound)
        assert not c1_obstruction_check(spec, bound).in_regime
        above = math.nextafter(bound, math.inf)
        assert scenario(spec, above).lipschitz_budget == above
        assert c1_obstruction_check(spec, above).in_regime

    @pytest.mark.parametrize("n_max", [40, 41])
    @pytest.mark.parametrize("offset", [0.0, 0.75])
    def test_boundary_against_closed_form(self, n_max, offset):
        # lambda_k = k - offset, every gap 1.  With offset 0 the bound is
        # lambda_1 = 1, and at L = 1 every block is complex but the plus
        # site's L - lambda_1 is 0.  With offset 0.75 the bound is L0/2 = 0.5,
        # and at L = 0.5 every gap ties with 2L: all roots are real.
        spec = make_spectrum("explicit", {"values": [k - offset for k in range(1, n_max + 1)]})
        bound = regime_bound(spec)
        n_minus, n_plus = n_max - n_max % 2, n_max - 1 + n_max % 2
        at = c1_obstruction_check(spec, bound)
        assert not at.in_regime
        if offset == 0.0:
            assert bound == 1.0 and at.plus_margin == 0.0
            assert (at.minus_real_count, at.plus_real_count) == (0, 1)
        else:
            assert bound == 0.5 and at.block_margin == 0.0
            assert (at.minus_real_count, at.plus_real_count) == (n_minus, n_plus)
        above = c1_obstruction_check(spec, math.nextafter(bound, math.inf))
        assert above.in_regime
        assert (above.minus_real_count, above.plus_real_count) == (0, 1)

    def test_unbounded_gap_refused(self):
        with pytest.raises(SimulationError, match="unbounded spectral gap"):
            scenario(make_spectrum("power", {"kappa": 1.5}, 8), 1e9)
        assert not c1_obstruction_check(make_spectrum("quadratic", {}, 8), 1e9).in_regime


def boundary_distance(spec, coupling, verdict):
    """Least |L - gap/2| / (1 + lambda_b) over both sites' blocks."""
    return min(float(np.min(np.abs(coupling - 0.5 * (spec.values[b] - spec.values[a]))
                            / (1.0 + spec.values[b])))
               for n, site in ((verdict.minus_truncation, "minus"),
                               (verdict.plus_truncation, "plus"))
               for a, b in (site_pairs(n, site),))


couplings = st.floats(min_value=0.05, max_value=2.0)


@settings(deadline=None)
@given(bounded_spectra, couplings)
# two equal (b, b) plus-site blocks: the repeated pair -b +- iL, at L = 20.67
@example(make_spectrum("explicit", {"values": [8.28220539561142] + [8.282741228754693] * 4}),
         20.66937700818356 / 8.28220539561142)
def test_counts_match_dense_oracle(spec, ratio):
    # L = ratio * regime_bound, kept 1e-6 (1 + lambda_b) away from every
    # block's boundary gap/2, where the dense solver's rounding decides
    coupling = ratio * regime_bound(spec)
    verdict = c1_obstruction_check(spec, coupling)
    assume(boundary_distance(spec, coupling, verdict) > 1e-6)
    assert dense_real_counts(spec, coupling, verdict) == (verdict.minus_real_count,
                                                          verdict.plus_real_count)


@given(bounded_spectra, couplings)
@example(ROUNDED_UP_GAP, 1.0)
def test_margins_decide_the_regime(spec, ratio):
    coupling = ratio * regime_bound(spec)
    verdict = c1_obstruction_check(spec, coupling)
    assert verdict.in_regime == (verdict.block_margin > 0 and verdict.plus_margin > 0)
    assert verdict.block_margin == 2 * coupling - spectral_gap(spec)
    # the parity clash needs counts 0 and 1 and an unstable plus mode
    clash = (verdict.minus_real_count, verdict.plus_real_count) == (0, 1) \
        and verdict.plus_margin > 0
    assert clash == verdict.in_regime
