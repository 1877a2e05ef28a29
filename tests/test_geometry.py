import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab.geometry import (GeometryError, PointCloud, box_count, covering_number,
                                   cube_doubling_report, doubling_factor,
                                   fractal_dimension_estimate,
                                   log_doubling_estimate, separated_count_exact,
                                   separated_count_log, smoothness_criterion)
from attractorlab.logspace import LogModeVector, PLANAR_X, PLANAR_Y
from attractorlab.spectral import cube_width, make_spectrum
from attractorlab.simulate import section4_attractor, thm44_laws


def logs(scales):
    """math.log of each scale, as the estimators take them."""
    return [math.log(e) for e in scales]


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
        assert covering_number(cloud, math.log(0.5)).n_balls == 5

    def test_orthonormal_basis(self):
        cloud = PointCloud.from_dense(np.eye(6))
        assert covering_number(cloud, math.log(0.5)).n_balls == 6

    def test_grid_exact_vs_auto(self):
        # the estimator used on small fixtures (auto) takes the exact branch
        cloud = grid_cloud(4, 1.0)
        exact = covering_number(cloud, math.log(1.1), method="exact")
        auto = covering_number(cloud, math.log(1.1), method="auto")
        greedy = covering_number(cloud, math.log(1.1), method="greedy")
        assert exact.n_balls == 4  # pinwheel of four edge-centered balls
        assert auto.n_balls - exact.n_balls <= 1
        assert greedy.n_balls >= exact.n_balls

    def test_monotone_in_scale(self):
        cloud = grid_cloud(4, 1.0)
        scales = [0.6, 0.9, 1.4, 2.1, 3.0, 4.5]
        counts = [covering_number(cloud, math.log(e), method="exact").n_balls for e in scales]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_exact_cap(self):
        with pytest.raises(GeometryError, match="24"):
            covering_number(segment_cloud(30), math.log(0.1), method="exact")

    @pytest.mark.parametrize("method", ["greedy", "exact"])
    def test_member_rows_list_or_array(self, method):
        cloud = grid_cloud(5, 1.0)
        rows = [12, 3, 4, 7, 0, 11, 18, 20, 24, 13]
        for eps in (0.9, 1.1, 1.5, 2.5):
            listed = covering_number(cloud, math.log(eps), method=method, member_rows=rows)
            arrayed = covering_number(cloud, math.log(eps), method=method,
                                      member_rows=np.array(rows))
            assert (listed.n_balls, listed.centers) == (arrayed.n_balls, arrayed.centers)
            assert all(type(c) is int for c in listed.centers + arrayed.centers)
            assert set(listed.centers) <= set(rows)

    def test_greedy_ties_go_to_first_member(self):
        # every point covers the whole segment, so the first member listed wins
        cloud = segment_cloud(6)
        assert covering_number(cloud, math.log(10.0),
                               member_rows=np.array([4, 2, 5])).centers == (4,)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=12, deadline=None)
    def test_scale_invariance_under_log_shift(self, shift):
        cloud = grid_cloud(5, 1.0)
        base = covering_number(cloud, log_eps=math.log(1.3)).n_balls
        moved = covering_number(cloud.scaled(shift),
                                log_eps=math.log(1.3) + shift).n_balls
        assert moved == base


def row_cover(cloud, log_eps, method, member_rows=None):
    """Reference covers as commit 19c6238 computed them: every cover
    rebuilt its ball matrix from distance_log_row, one row per member, and
    mapped centres back to cloud indices itself."""
    ids = (np.arange(len(cloud)) if member_rows is None
           else np.asarray(member_rows, dtype=np.intp))
    id_list = ids.tolist()
    balls = [cloud.distance_log_row(i)[ids] <= log_eps + 1e-12 for i in id_list]

    def greedy():
        cover = np.array(balls, dtype=bool).reshape(len(ids), len(ids))
        uncovered = np.ones(len(ids), dtype=bool)
        centers = []
        while np.any(uncovered):
            best = int(np.argmax(cover[:, uncovered].sum(axis=1)))
            centers.append(int(ids[best]))
            uncovered &= ~cover[best]
        return centers

    if method == "greedy":
        return greedy()
    masks = [sum(1 << b for b in np.flatnonzero(ball).tolist()) for ball in balls]
    full = (1 << len(ids)) - 1
    best = [id_list.index(g) for g in greedy()]
    order = sorted(range(len(ids)), key=lambda i: -bin(masks[i]).count("1"))

    def search(covered, chosen):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        low_bit = ~covered & full & -(~covered & full)
        for i in order:
            if masks[i] & low_bit:
                search(covered | masks[i], chosen + [i])

    search(0, [])
    return [id_list[i] for i in best]


@st.composite
def clouds_with_members(draw):
    """Small dense clouds on a coarse grid (duplicate points and ties at the
    ball radius are common) and a member subset in drawn order, or None."""
    n, m = draw(st.integers(1, 18)), draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(-6, 6), min_size=n * m, max_size=n * m))
    members = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True))
    return PointCloud.from_dense(0.5 * np.array(flat, dtype=float).reshape(n, m)), members


class TestCoverOracle:
    @pytest.mark.parametrize("method", ["greedy", "exact"])
    @given(clouds_with_members(), st.sampled_from([-2.0, -0.7, 0.0, math.log(1.5), 1.1, 2.5]))
    @example((PointCloud.from_dense(np.zeros((3, 2))), None), 0.0)  # no stored coordinate
    @settings(max_examples=60, deadline=None)
    def test_matches_row_by_row_cover(self, method, drawn, log_eps):
        cloud, members = drawn
        got = covering_number(cloud, log_eps, method=method, member_rows=members)
        want = row_cover(cloud, log_eps, method, members)
        assert (got.n_balls, got.centers) == (len(want), tuple(want))
        assert all(type(c) is int for c in got.centers)

    @given(clouds_with_members(), st.sampled_from([-0.7, 0.0, 1.1, 2.5]))
    @settings(max_examples=30, deadline=None)
    def test_doubling_matches_row_by_row_covers(self, drawn, log_eps):
        cloud, _ = drawn
        worst = 1
        for i in range(len(cloud)):
            members = np.flatnonzero(cloud.distance_log_row(i) <= log_eps + 1e-12)
            method = "exact" if len(members) <= 24 else "greedy"
            worst = max(worst, len(row_cover(cloud, log_eps - math.log(2.0), method, members)))
        assert doubling_factor(cloud, log_eps) == worst

    def test_matrix_is_stacked_rows_per_view(self):
        spec = make_spectrum("quadratic", {}, 10)
        rng = np.random.default_rng(5)
        base = PointCloud([LogModeVector({int(i): (1, float(rng.normal(-3, 2)))
                                          for i in rng.choice(10, size=2, replace=False) + 1})
                           for _ in range(20)], spec, 0.0)
        matrices = []
        for s in (0.0, 2.0):
            view = base.with_norm(s)
            D = view.distance_log_matrix()
            assert view.distance_log_matrix() is D
            rows = np.stack([view.distance_log_row(i) for i in range(len(view))])
            assert D.tobytes() == rows.tobytes()
            matrices.append(D)
        assert not np.array_equal(matrices[0], matrices[1])
        assert "matrix" not in base._cache

    def test_matrix_cap_names_limit(self):
        cloud = PointCloud.from_dense(np.zeros((4801, 1)))
        with pytest.raises(GeometryError, match="4800 points; the cloud has 4801"):
            covering_number(cloud, 0.0)
        with pytest.raises(GeometryError, match="4800"):
            doubling_factor(cloud, 0.0)


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
                box_count(cloud, math.log(0.1))


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
            cloud, log_scales=logs(np.geomspace(0.05, 0.004, 8)))
        assert scan.slope == pytest.approx(1.0, abs=0.1)

    def test_square_grid_dimension_two(self):
        cloud = grid_cloud(64, 1.0 / 63.0)
        scan = fractal_dimension_estimate(
            cloud, log_scales=logs(np.geomspace(0.15, 0.03, 8)))
        assert scan.slope == pytest.approx(2.0, abs=0.15)

    def test_single_point_dimension_zero(self):
        cloud = PointCloud([LogModeVector({1: (1, 0.0)})])
        scan = fractal_dimension_estimate(cloud, log_scales=logs([0.1, 0.05, 0.02, 0.01]))
        assert scan.slope == 0.0

    def test_needs_four_scales(self):
        with pytest.raises(GeometryError):
            fractal_dimension_estimate(segment_cloud(16), log_scales=logs([0.1, 0.05, 0.02]))

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
            assert (covering_number(proj, math.log(eps), method="exact").n_balls
                    <= covering_number(full, math.log(eps), method="exact").n_balls)


class TestDoubling:
    def test_single_point(self):
        cloud = PointCloud([LogModeVector({1: (1, 0.0)})])
        assert doubling_factor(cloud, 0.0) == 1

    def test_segment_doubling_bounded(self):
        cloud = segment_cloud(128)
        for eps in (0.5, 0.25, 0.125, 0.0625):
            assert doubling_factor(cloud, math.log(eps)) <= 3

    def test_doubling_at_least_one(self):
        cloud = grid_cloud(3)
        assert doubling_factor(cloud, math.log(0.01)) >= 1

    def test_planar_grid_log_doubling_finite(self):
        cloud = grid_cloud(24, 1.0 / 23.0)
        scales = list(np.geomspace(0.5, 0.004, 7))
        out = log_doubling_estimate(cloud, log_scales=logs(scales))
        assert out["verdict"] == "finite"
        assert out["estimate"] <= 3.0

    def test_scale_span_validated(self):
        with pytest.raises(GeometryError, match="decades"):
            log_doubling_estimate(segment_cloud(16), log_scales=logs([0.5, 0.3, 0.1]))


def cube_levels(drop_from=None):
    """Full almost-cubes at levels 4, 5, 6 (widths 2, 3, 3), as bad_cube_cloud
    lays them out; drop_from names a level whose last vertex goes missing."""
    points, levels = [], {}
    for n, log_eps in ((4, -83.0), (5, -136.5), (6, -183.0)):
        modes = [2 * (n + j) for j in range(1, cube_width(n) + 1)]
        ids = []
        for p in range(2 ** len(modes)):
            ids.append(len(points))
            points.append(LogModeVector({m: (1, log_eps) for b, m in enumerate(modes)
                                         if (p >> b) & 1}))
        levels[n] = {"log_eps": log_eps, "point_ids": ids, "cube_indices": modes}
    if drop_from is not None:
        levels[drop_from]["point_ids"].pop()
    return PointCloud(points), levels


class TestCubeDoubling:
    def test_full_cubes_pass_every_bound(self):
        out = cube_doubling_report(*cube_levels())
        # the vertices sit at sqrt(k) eps / 2 from the centre, also at the
        # non-square levels 5 and 6
        assert [lvl["all_in_ball"] for lvl in out["levels"]] == [True] * 3
        assert [lvl["n_half_cover"] for lvl in out["levels"]] == [4, 8, 8]
        assert [lvl["chain_length"] for lvl in out["levels"]] == [1, 1, 1]
        assert out["all_bounds_ok"] is True
        assert out["log_doubling"]["verdict"] == "diverging"

    def test_failed_bound_withdraws_diverging(self):
        out = cube_doubling_report(*cube_levels(drop_from=5))
        assert [lvl["count_bound_ok"] for lvl in out["levels"]] == [True, False, True]
        assert out["all_bounds_ok"] is False
        # the doubling bounds 2, log2 7, 3 still rise; the verdict must not
        assert out["log_doubling"]["log_d_values"] == sorted(out["log_doubling"]["log_d_values"])
        assert out["log_doubling"]["verdict"] == "finite"


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
