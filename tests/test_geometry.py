import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab.geometry import (GeometryError, PointCloud, box_count, covering_number,
                                   doubling_factor, fractal_dimension_estimate,
                                   log_doubling_estimate, separated_count_exact,
                                   separated_count_log, smoothness_criterion)
from attractorlab.logspace import LogModeVector, PLANAR_X, PLANAR_Y
from attractorlab.spectral import make_spectrum
from attractorlab.simulate import section4_attractor, thm44_laws


def segment_cloud(n=64, length=1.0):
    pts = np.zeros((n, 2))
    pts[:, 0] = np.linspace(0.0, length, n)
    return PointCloud.from_dense(pts, first_index=PLANAR_Y)


def grid_cloud(m=8, spacing=1.0):
    xs = np.arange(m) * spacing
    pts = np.array([(x, y) for x in xs for y in xs])
    return PointCloud.from_dense(pts, first_index=PLANAR_Y)


class TestDistances:
    def test_matches_dense_euclidean(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(20, 5))
        cloud = PointCloud.from_dense(arr)
        for i in (0, 7, 19):
            row = np.exp(cloud.distance_log_row(i))
            want = np.linalg.norm(arr - arr[i], axis=1)
            assert np.allclose(row, want, rtol=1e-12, atol=1e-300)

    def test_handles_sub_double_magnitudes(self):
        a = LogModeVector({3: (1, -5000.0)})
        b = LogModeVector({4: (1, -5000.0)})
        cloud = PointCloud([a, b, LogModeVector({})])
        row = cloud.distance_log_row(0)
        assert row[1] == pytest.approx(-5000.0 + 0.5 * math.log(2.0))
        assert row[2] == pytest.approx(-5000.0)

    def test_sobolev_weighting(self):
        spec = make_spectrum("quadratic", {}, 4)
        cloud = PointCloud([LogModeVector({3: (1, 0.0)}), LogModeVector({})],
                           spectrum=spec, s=2.0)
        # |e_3|_{H^2} = lambda_3 = 9
        assert cloud.distance_log_row(0)[1] == pytest.approx(math.log(9.0))

    def test_planar_block_weight_one_at_every_s(self):
        spec = make_spectrum("quadratic", {}, 4)
        p = LogModeVector({PLANAR_X: (1, 0.0)})
        for s in (0.0, 1.0, 3.0):
            cloud = PointCloud([p, LogModeVector({})], spectrum=spec, s=s)
            assert cloud.distance_log_row(0)[1] == pytest.approx(0.0, abs=1e-14)


class TestCovering:
    def test_separated_collinear_points(self):
        cloud = PointCloud.from_dense([[0.0], [1.0], [2.0], [3.0], [4.0]])
        assert covering_number(cloud, 0.5).n_balls == 5

    def test_orthonormal_basis(self):
        cloud = PointCloud.from_dense(np.eye(6))
        assert covering_number(cloud, 0.5).n_balls == 6

    def test_grid_exact_vs_auto(self):
        # the estimator used on small fixtures (auto) takes the exact branch
        cloud = grid_cloud(4, 1.0)
        exact = covering_number(cloud, 1.1, method="exact")
        auto = covering_number(cloud, 1.1, method="auto")
        greedy = covering_number(cloud, 1.1, method="greedy")
        assert exact.n_balls == 4  # pinwheel of four edge-centered balls
        assert auto.n_balls - exact.n_balls <= 1
        assert greedy.n_balls >= exact.n_balls

    def test_monotone_in_scale(self):
        cloud = grid_cloud(4, 1.0)
        scales = [0.6, 0.9, 1.4, 2.1, 3.0, 4.5]
        counts = [covering_number(cloud, e, method="exact").n_balls for e in scales]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(GeometryError):
            covering_number(segment_cloud(8), -1.0)

    def test_exact_cap(self):
        with pytest.raises(GeometryError, match="24"):
            covering_number(segment_cloud(30), 0.1, method="exact")

    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_member_rows_list_or_array(self, method):
        cloud = grid_cloud(5, 1.0)
        rows = [12, 3, 4, 7, 0, 11, 18, 20, 24, 13]
        for eps in (0.9, 1.1, 1.5, 2.5):
            listed = covering_number(cloud, eps, method=method, member_rows=rows)
            arrayed = covering_number(cloud, eps, method=method, member_rows=np.array(rows))
            assert (listed.n_balls, listed.centers) == (arrayed.n_balls, arrayed.centers)
            assert all(type(c) is int for c in listed.centers + arrayed.centers)
            assert set(listed.centers) <= set(rows)

    def test_greedy_ties_go_to_first_member(self):
        # every point covers the whole segment, so the first member listed wins
        cloud = segment_cloud(6)
        assert covering_number(cloud, 10.0, member_rows=np.array([4, 2, 5])).centers == (4,)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=12, deadline=None)
    def test_scale_invariance_under_log_shift(self, shift):
        cloud = grid_cloud(5, 1.0)
        base = covering_number(cloud, log_eps=math.log(1.3)).n_balls
        moved = covering_number(cloud.scaled(shift),
                                log_eps=math.log(1.3) + shift).n_balls
        assert moved == base


def sorted_box_count(cloud, log_eps):
    """Reference count: the same lattice cells, distinct rows by a sort."""
    coords = cloud.dense_weighted()
    shifted = coords - np.min(coords, axis=0)
    cells = np.floor(shifted / math.exp(log_eps) + 1e-12).astype(np.int64)
    return len(np.unique(cells, axis=0))


@st.composite
def coarse_arrays(draw):
    """Small dense clouds on a coarse grid of signed values, so duplicate
    points, negative coordinates and all-zero columns are common."""
    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    flat = draw(st.lists(st.integers(-4, 4), min_size=n * m, max_size=n * m))
    return 0.25 * np.array(flat, dtype=float).reshape(n, m)


# Box counts of the n_max 24 section-4 cloud (3382 points) at scales
# geomspace(1e-1, 1e-4, 6), obtained by running test_section4_box_counts_pinned's
# construction at commit 8824d1f, where box_count sorted the cells with
# np.unique(cells, axis=0).
SECTION4_BOX_COUNTS = {
    0: (342, 1891, 1906, 1923, 1935, 1954),
    2: (343, 1897, 1917, 1949, 1995, 2079),
    4: (357, 1984, 2126, 2257, 2389, 2511),
}


class TestBoxCount:
    @given(coarse_arrays(), st.sampled_from([-3.0, -1.2, -0.3, 0.0, 0.9]))
    @example(np.array([[0.5, -0.25], [0.5, -0.25], [-1.0, 0.75]]), -1.2)  # duplicates
    @example(np.array([[-0.75], [0.25], [-0.75], [1.0]]), -0.3)  # one column
    @example(np.array([[-0.5, 0.0, 1.0]]), 0.0)  # one point
    @example(np.zeros((3, 2)), 0.0)  # no stored coordinate at all
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_distinct_rows(self, arr, log_eps):
        cloud = PointCloud.from_dense(arr)
        got = box_count(cloud, log_eps=log_eps)
        assert type(got) is int
        assert got == sorted_box_count(cloud, log_eps)

    def test_section4_box_counts_pinned(self):
        spec = make_spectrum("quadratic", {}, 24)
        cloud, _ = section4_attractor(thm44_laws(), spec, 24)
        log_scales = [math.log(e) for e in np.geomspace(1e-1, 1e-4, 6)]
        for s, want in SECTION4_BOX_COUNTS.items():
            view = cloud.with_norm(s)
            assert tuple(box_count(view, log_eps=le) for le in log_scales) == want
            assert tuple(sorted_box_count(view, le) for le in log_scales) == want

    def test_underflow_refused(self):
        cloud = PointCloud([LogModeVector({3: (1, -5000.0)}), LogModeVector({})])
        for _ in range(2):  # the cached None verdict refuses as the first did
            with pytest.raises(GeometryError, match="underflow"):
                box_count(cloud, 0.1)


class TestNormView:
    def test_view_matches_fresh_cloud_bitwise(self):
        spec = make_spectrum("quadratic", {}, 12)
        rng = np.random.default_rng(11)
        pts = []
        for _ in range(25):
            modes = rng.choice([PLANAR_X, PLANAR_Y, *range(1, 13)], size=3, replace=False)
            pts.append(LogModeVector({int(i): (int(rng.choice([-1, 1])), float(rng.normal(-2, 3)))
                                      for i in modes}))
        pts += [pts[3], LogModeVector({})]  # a duplicate point and the origin
        tags = [f"p{k}" for k in range(len(pts))]
        base = PointCloud(pts, spec, 0.0, tags)
        base.distance_log_row(0)
        base.dense_weighted()
        before = dict(base._cache)
        for s in (0.0, 1.5, 4.0):
            view = base.with_norm(s)
            fresh = PointCloud(pts, spec, s, tags)
            assert view.s == s and view.tags == fresh.tags
            assert view._signs is base._signs and view._logmags is base._logmags
            for i in range(len(pts)):
                assert view.distance_log_row(i).tobytes() == fresh.distance_log_row(i).tobytes()
            assert view.dense_weighted().tobytes() == fresh.dense_weighted().tobytes()
        assert base.s == 0.0
        assert base._cache.keys() == before.keys()
        assert all(base._cache[k] is v for k, v in before.items())


class TestDimension:
    def test_segment_dimension_one(self):
        cloud = segment_cloud(1024)
        scan = fractal_dimension_estimate(
            cloud, scales=np.geomspace(0.05, 0.004, 8))
        assert scan.slope == pytest.approx(1.0, abs=0.1)

    def test_square_grid_dimension_two(self):
        cloud = grid_cloud(64, 1.0 / 63.0)
        scan = fractal_dimension_estimate(
            cloud, scales=np.geomspace(0.15, 0.03, 8))
        assert scan.slope == pytest.approx(2.0, abs=0.15)

    def test_single_point_dimension_zero(self):
        cloud = PointCloud([LogModeVector({1: (1, 0.0)})])
        scan = fractal_dimension_estimate(cloud, scales=[0.1, 0.05, 0.02, 0.01])
        assert scan.slope == 0.0

    def test_needs_four_scales(self):
        with pytest.raises(GeometryError):
            fractal_dimension_estimate(segment_cloud(16), scales=[0.1, 0.05, 0.02])

    def test_projection_monotonicity(self):
        rng = np.random.default_rng(3)
        pts = [LogModeVector.from_dense(rng.normal(size=4)) for _ in range(18)]
        full = PointCloud(pts)
        # dropping coordinates 3, 4 is a coordinate-restriction projection
        proj = PointCloud([
            LogModeVector({i: v for i, v in p.entries.items() if i <= 2})
            for p in pts
        ])
        for eps in (0.5, 1.0, 2.0):
            assert (covering_number(proj, eps, method="exact").n_balls
                    <= covering_number(full, eps, method="exact").n_balls)


class TestDoubling:
    def test_single_point(self):
        cloud = PointCloud([LogModeVector({1: (1, 0.0)})])
        assert doubling_factor(cloud, 1.0) == 1

    def test_segment_doubling_bounded(self):
        cloud = segment_cloud(128)
        for eps in (0.5, 0.25, 0.125, 0.0625):
            assert doubling_factor(cloud, eps) <= 3

    def test_doubling_at_least_one(self):
        cloud = grid_cloud(3)
        assert doubling_factor(cloud, 0.01) >= 1

    def test_planar_grid_log_doubling_finite(self):
        cloud = grid_cloud(24, 1.0 / 23.0)
        scales = list(np.geomspace(0.5, 0.004, 7))
        out = log_doubling_estimate(cloud, scales=scales)
        assert out["verdict"] == "finite"
        assert out["estimate"] <= 3.0

    def test_scale_span_validated(self):
        with pytest.raises(GeometryError, match="decades"):
            log_doubling_estimate(segment_cloud(16), scales=[0.5, 0.3, 0.1])


class TestSmoothnessCriterion:
    def test_thm44_laws_continuity_profile(self):
        laws = thm44_laws()
        spec = make_spectrum("quadratic", {}, 8)
        bounded_10 = smoothness_criterion(laws.log_b, laws.log_a, spec, 1.0, 0)
        bounded_01 = smoothness_criterion(laws.log_b, laws.log_a, spec, 0.0, 1)
        unbounded_11 = smoothness_criterion(laws.log_b, laws.log_a, spec, 1.0, 1)
        assert bounded_10["verdict"] == "bounded"
        assert bounded_01["verdict"] == "bounded"
        assert unbounded_11["verdict"] == "unbounded"

    def test_smooth_laws_bounded_at_high_order(self):
        from attractorlab.simulate import smooth_forcing_laws

        laws = smooth_forcing_laws(10**6)
        spec = make_spectrum("quadratic", {}, 8)
        for s, k in ((10.0, 10), (4.0, 7), (0.0, 10)):
            out = smoothness_criterion(laws.log_b, laws.log_a, spec, s, k)
            assert out["verdict"] == "bounded", (s, k)


class TestSeparatedCounts:
    def test_exact_counter(self):
        norms = np.log([1.0, 0.5, 0.25, 0.125])
        assert separated_count_exact(norms, math.log(0.2)) == 2
        assert separated_count_exact(norms, math.log(0.05)) == 4

    def test_log_count_matches_exact_at_moderate_scale(self):
        # asymptotic log-count vs explicit enumeration, at a scale where the
        # count is large enough for the continuous threshold to be accurate
        lognorm = lambda n: -3.0 * np.log(2.0 * np.log(n))
        log_eps = math.log(8e-5)
        exact = sum(1 for n in range(2, 30000)
                    if lognorm(float(n)) >= math.log(2.0) + log_eps)
        log_count = separated_count_log(lognorm, log_eps)
        assert math.exp(log_count) == pytest.approx(exact, rel=0.01)
