import functools
import itertools
import json
import math
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab import geometry
from attractorlab.config import parse_scales, resolve_config, scenario_from_config
from attractorlab.floquet import poincare_predicted
from attractorlab.geometry import (PLANAR_X, PLANAR_Y, DimensionScan, GeometryError,
                                   PointCloud, _greedy_cover, box_count, covering_number,
                                   cube_doubling_report, doubling_factor,
                                   fractal_dimension_estimate, log_doubling_estimate,
                                   slopes_diverge, sobolev_scan)
from attractorlab.spectral import cube_width, make_spectrum
from attractorlab.simulate import bad_cube_cloud, section4_attractor, thm44_laws
from conftest import almost_cube_cloud, dict_cloud, point_dicts

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def logs(scales):
    """math.log of each scale, as the estimators take them."""
    return [math.log(e) for e in scales]


def dense_cloud(array, first_index=1):
    """The rows of a dense array as a cloud, column j stored at index
    first_index + j."""
    return dict_cloud([{first_index + j: (1 if v > 0 else -1, math.log(abs(v)))
                        for j, v in enumerate(row) if v != 0.0}
                       for row in np.asarray(array, dtype=float)])


def shifted(cloud, log_factor):
    """The cloud scaled by exp(log_factor), in log coordinates."""
    return dict_cloud([{i: (sign, log + log_factor) for i, (sign, log) in p.items()}
                       for p in point_dicts(cloud)], cloud.spectrum, cloud.s)


def segment_cloud(n=64, length=1.0):
    pts = np.zeros((n, 2))
    pts[:, 0] = np.linspace(0.0, length, n)
    return dense_cloud(pts, first_index=PLANAR_Y)


def grid_cloud(m=8, spacing=1.0):
    xs = np.arange(m) * spacing
    pts = np.array([(x, y) for x in xs for y in xs])
    return dense_cloud(pts, first_index=PLANAR_Y)


def wide_cloud(n, m, seed=5):
    """n points over the m modes of a quadratic spectrum, each storing one
    to three of them, with every mode stored by some point when n >= m."""
    rng = np.random.default_rng(seed)
    pts = []
    for r in range(n):
        modes = {r % m + 1, *rng.integers(1, m + 1, size=int(rng.integers(0, 3))).tolist()}
        pts.append({i: (int(rng.choice([-1, 1])), float(rng.normal(-1, 2))) for i in modes})
    return dict_cloud(pts, make_spectrum("quadratic", {}, m))


class TestDistances:
    def test_matches_dense_euclidean(self):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(20, 5))
        cloud = dense_cloud(arr)
        for i in (0, 7, 19):
            row = np.exp(cloud.distance_log_row(i))
            want = np.linalg.norm(arr - arr[i], axis=1)
            assert np.allclose(row, want, rtol=1e-12, atol=1e-300)

    def test_handles_sub_double_magnitudes(self):
        cloud = dict_cloud([{3: (1, -5000.0)}, {4: (1, -5000.0)}, {}])
        row = cloud.distance_log_row(0)
        assert row[1] == pytest.approx(-5000.0 + 0.5 * math.log(2.0))
        assert row[2] == pytest.approx(-5000.0)

    def test_sobolev_weighting(self):
        spec = make_spectrum("quadratic", {}, 4)
        cloud = dict_cloud([{3: (1, 0.0)}, {}], spectrum=spec, s=2.0)
        # |e_3|_{H^2} = lambda_3 = 9
        assert cloud.distance_log_row(0)[1] == pytest.approx(math.log(9.0))

    def test_planar_block_weight_one_at_every_s(self):
        spec = make_spectrum("quadratic", {}, 4)
        for s in (0.0, 1.0, 3.0):
            cloud = dict_cloud([{PLANAR_X: (1, 0.0)}, {}], spectrum=spec, s=s)
            assert cloud.distance_log_row(0)[1] == pytest.approx(0.0, abs=1e-14)


class TestCovering:
    def test_separated_collinear_points(self):
        cloud = dense_cloud([[0.0], [1.0], [2.0], [3.0], [4.0]])
        assert len(covering_number(cloud, math.log(0.5))) == 5

    def test_orthonormal_basis(self):
        cloud = dense_cloud(np.eye(6))
        assert len(covering_number(cloud, math.log(0.5))) == 6

    def test_grid_exact_vs_auto(self):
        # the estimator used on small fixtures (auto) takes the exact branch
        cloud = grid_cloud(4, 1.0)
        exact = covering_number(cloud, math.log(1.1), method="exact")
        auto = covering_number(cloud, math.log(1.1), method="auto")
        greedy = covering_number(cloud, math.log(1.1), method="greedy")
        assert len(exact) == 4  # pinwheel of four edge-centered balls
        assert len(auto) - len(exact) <= 1
        assert len(greedy) >= len(exact)

    def test_monotone_in_scale(self):
        cloud = grid_cloud(4, 1.0)
        scales = [0.6, 0.9, 1.4, 2.1, 3.0, 4.5]
        counts = [len(covering_number(cloud, math.log(e), method="exact")) for e in scales]
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
            assert listed == arrayed
            assert all(type(c) is int for c in listed + arrayed)
            assert set(listed) <= set(rows)

    def test_greedy_ties_go_to_first_member(self):
        # every point covers the whole segment, so the first member listed wins
        cloud = segment_cloud(6)
        assert covering_number(cloud, math.log(10.0),
                               member_rows=np.array([4, 2, 5])) == (4,)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=12, deadline=None)
    def test_scale_invariance_under_log_shift(self, shift):
        cloud = grid_cloud(5, 1.0)
        base = len(covering_number(cloud, log_eps=math.log(1.3)))
        moved = len(covering_number(shifted(cloud, shift), log_eps=math.log(1.3) + shift))
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


def row_by_row_doubling(cloud, log_eps):
    """Reference doubling factor: the max over every row's eps-ball of its
    row_cover at eps/2, exact up to 24 members and greedy above.  The
    covers ask for the same distance rows many times, so each is computed
    once."""
    rows = SimpleNamespace(distance_log_row=functools.cache(cloud.distance_log_row))
    worst = 1
    for i in range(len(cloud)):
        members = np.flatnonzero(rows.distance_log_row(i) <= log_eps + 1e-12)
        method = "exact" if len(members) <= 24 else "greedy"
        worst = max(worst, len(row_cover(rows, log_eps - math.log(2.0), method, members)))
    return worst


@st.composite
def clouds_with_members(draw):
    """Small dense clouds on a coarse grid (duplicate points and ties at the
    ball radius are common) and a member subset in drawn order, or None."""
    n, m = draw(st.integers(1, 18)), draw(st.integers(1, 3))
    flat = draw(st.lists(st.integers(-6, 6), min_size=n * m, max_size=n * m))
    members = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True))
    return dense_cloud(0.5 * np.array(flat, dtype=float).reshape(n, m)), members


class TestCoverOracle:
    @pytest.mark.parametrize("method", ["greedy", "exact"])
    @given(clouds_with_members(), st.sampled_from([-2.0, -0.7, 0.0, math.log(1.5), 1.1, 2.5]))
    @example((dense_cloud(np.zeros((3, 2))), None), 0.0)  # no stored coordinate
    @settings(max_examples=60, deadline=None)
    def test_matches_row_by_row_cover(self, method, drawn, log_eps):
        cloud, members = drawn
        got = covering_number(cloud, log_eps, method=method, member_rows=members)
        want = row_cover(cloud, log_eps, method, members)
        assert got == tuple(want)
        assert all(type(c) is int for c in got)

    @given(clouds_with_members(), st.sampled_from([-0.7, 0.0, 1.1, 2.5]))
    @settings(max_examples=30, deadline=None)
    def test_doubling_matches_row_by_row_covers(self, drawn, log_eps):
        cloud, _ = drawn
        assert doubling_factor(cloud, log_eps) == row_by_row_doubling(cloud, log_eps)

    def test_doubling_matches_row_by_row_covers_above_exact_cap(self, cube_vertex_cloud):
        cloud = cube_vertex_cloud
        greedy_scales = 0
        for log_eps in logs(np.geomspace(0.3, 0.01, 5)):
            balls = np.stack([cloud.distance_log_row(i) <= log_eps + 1e-12
                              for i in range(len(cloud))])
            # some ball takes the greedy branch, and some ball repeats
            greedy_scales += (balls.sum(axis=1).max() > 24
                              and len(np.unique(balls, axis=0)) < len(cloud))
            assert doubling_factor(cloud, log_eps) == row_by_row_doubling(cloud, log_eps)
        assert greedy_scales >= 4

    def test_greedy_matches_row_cover_on_tied_ball(self, cube_vertex_cloud):
        cloud = cube_vertex_cloud
        log_half = math.log(0.3) - math.log(2.0)
        members = np.flatnonzero(cloud.distance_log_row(0) <= math.log(0.3) + 1e-12)
        ball = np.stack([cloud.distance_log_row(i)[members] <= log_half + 1e-12
                         for i in members])
        gains = ball.sum(axis=1)
        assert len(members) >= 60 and np.count_nonzero(gains == gains.max()) > 1
        got = members[_greedy_cover(ball)].tolist()
        assert got == row_cover(cloud, log_half, "greedy", members)

    def test_matrix_is_stacked_rows_per_view(self):
        spec = make_spectrum("quadratic", {}, 10)
        rng = np.random.default_rng(5)
        base = dict_cloud([{int(i): (1, float(rng.normal(-3, 2)))
                            for i in rng.choice(10, size=2, replace=False) + 1}
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

    def test_ball_matrix_follows_the_radius_per_view(self):
        base = wide_cloud(20, 10)
        flat, heavy = base.with_norm(0.0), base.with_norm(2.0)
        radius = float(np.median(flat.distance_log_matrix()))
        ball = flat.ball_matrix(radius)
        assert flat.ball_matrix(radius) is ball
        assert np.array_equal(ball, flat.distance_log_matrix() <= radius + 1e-12)
        assert np.array_equal(ball, ball.T)
        smaller = flat.ball_matrix(radius - 1.0)
        assert np.array_equal(smaller, flat.distance_log_matrix() <= radius - 1.0 + 1e-12)
        assert ball.sum() > smaller.sum()
        assert np.array_equal(flat.ball_matrix(radius), ball)  # recomputed, not stale
        assert not np.array_equal(heavy.ball_matrix(radius), ball)
        assert "ball" not in base._cache

    def test_deep_closed_ball_holds_its_cube(self):
        # A k = 10 cube's vertices, each exactly sqrt(10) eps / 2 from its
        # centre.  At |log eps| = 40000 the computed distance lands one ulp
        # (7.3e-12) above that radius, so an absolute 1e-12 slack left the
        # centre's ball short and the greedy cover took 33 balls.
        k = 10
        for log_eps in (-40000.0, -50000.5):
            modes = range(1, k + 1)
            vertices = [{i: (1, log_eps) for b, i in enumerate(modes) if (p >> b) & 1}
                        for p in range(2**k)]
            centre = {i: (1, log_eps - math.log(2.0)) for i in modes}
            cloud = dict_cloud(vertices + [centre])
            radius = log_eps + math.log(math.sqrt(k) / 2.0)
            assert np.max(cloud.distance_log_row(2**k)) > radius + 1e-12
            assert covering_number(cloud, radius) == (2**k,)

    def test_matrix_cap_names_limit(self):
        cloud = dense_cloud(np.zeros((4801, 1)))
        with pytest.raises(GeometryError, match="4800 points; the cloud has 4801"):
            covering_number(cloud, 0.0)
        with pytest.raises(GeometryError, match="4800"):
            doubling_factor(cloud, 0.0)


def dense_tables(cloud):
    """The cloud as dense n x m sign and log-magnitude matrices over its
    stored modes, built straight from its coordinates, and each mode's log
    weight from the spectrum."""
    points = point_dicts(cloud)
    idx = sorted({i for p in points for i in p})
    signs = np.zeros((len(cloud), len(idx)))
    logmags = np.full((len(cloud), len(idx)), -np.inf)
    for r, p in enumerate(points):
        for k, i in enumerate(idx):
            if i in p:
                signs[r, k], logmags[r, k] = p[i]
    w = np.array([0.0 if cloud.spectrum is None or i in (PLANAR_X, PLANAR_Y)
                  else cloud.s * math.log(cloud.spectrum.lam(i)) for i in idx])
    return signs, logmags, w


def reference_coords(cloud):
    """Reference coordinates: the norm-weighted points as one dense n x m
    matrix."""
    signs, logmags, w = dense_tables(cloud)
    return signs * np.exp(logmags + 0.5 * w)


def dense_distance_log_row(cloud, i):
    """Reference log distances from point i, as PointCloud.distance_log_row
    computed them over dense n x m matrices at commit d9f0f82: every column
    gives a term, the larger magnitude factored out, and one np.sum over
    all columns sums each row."""
    S, L, w = dense_tables(cloud)
    li, si = L[i], S[i]
    m = np.maximum(L, li[None, :])
    ms = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = S * np.exp(L - ms) - si[None, :] * np.exp(li[None, :] - ms)
        terms = w[None, :] + 2.0 * (ms + np.log(np.abs(diff)))
    terms[np.isnan(terms)] = -np.inf
    top = np.max(terms, axis=1, initial=-np.inf)
    out = np.full(len(S), -np.inf)
    live = top > -np.inf
    out[live] = top[live] + np.log(np.sum(np.exp(terms[live] - top[live][:, None]), axis=1))
    return 0.5 * out


def sorted_box_count(cloud, log_eps):
    """Reference count: the same lattice cells, distinct rows by a sort."""
    coords = reference_coords(cloud)
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


SPARSE_SPECTRUM = make_spectrum("quadratic", {}, 12)


def sparse_cloud(rows, s, log_shift=0.0):
    """One point per {index: value} dict, scaled by exp(log_shift), under
    the H^s norm of a quadratic spectrum."""
    return dict_cloud([{i: (1 if v > 0 else -1, math.log(abs(v)) + log_shift)
                        for i, v in row.items()} for row in rows], SPARSE_SPECTRUM, s)


@st.composite
def sparse_rows(draw):
    """Up to 30 points over 12 columns (the planar pair and 10 modes), each
    storing at most 3 signed values from a coarse grid; the values near
    zero often land in their column's zero-cell."""
    index = st.sampled_from([PLANAR_Y, PLANAR_X, *range(1, 11)])
    value = st.sampled_from([-1.0, -0.75, -0.5, -0.25, -0.01, 0.01, 0.25, 0.5, 0.75, 1.0, 1.5])
    return draw(st.lists(st.dictionaries(index, value, max_size=3), min_size=1, max_size=30))


class TestSlotDistances:
    """Log distances from each point's stored slots, against the dense
    n x m formula they replace."""

    @given(sparse_rows(), st.sampled_from([0.0, 1.0, 2.5]), st.sampled_from([0.0, -5000.0]))
    @example([{}, {PLANAR_X: -0.5, 4: 1.0}, {}], 1.0, 0.0)  # empty points
    @example([{1: 0.5, 3: 0.75}, {2: 0.25}, {1: 0.5, 3: 0.75}], 0.0, 0.0)  # duplicates
    @example([{1: 0.5, 2: 0.25}, {1: 0.5, 3: -1.0}], 2.5, 0.0)  # shared column, equal values
    @example([{3: 1.0}, {4: 1.0}, {3: 1.0, 4: -0.25}, {}], 1.0, -5000.0)  # far below doubles
    @example([{PLANAR_X: 0.75, PLANAR_Y: -0.25}, {PLANAR_X: -0.5, 5: 1.5}, {PLANAR_Y: 1.0}],
             2.5, 0.0)  # the planar block, weight one at every s
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle(self, rows, s, log_shift):
        # Each term is the dense formula's own; only the grouping of the sum
        # differs.  A sum's round-off is relative, so it moves a log distance
        # by a few ulp of 1 however close to 0 the log is: the bound is 4 ulp
        # of the larger of |log distance| and 1.
        cloud = sparse_cloud(rows, s, log_shift)
        for i in range(len(cloud)):
            got, want = cloud.distance_log_row(i), dense_distance_log_row(cloud, i)
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            assert not np.any(np.isnan(got))
            live = ~np.isneginf(want)
            ulp = np.spacing(np.maximum(np.abs(want[live]), 1.0))
            assert np.all(np.abs(got[live] - want[live]) <= 4 * ulp)
        D = cloud.distance_log_matrix()
        assert np.array_equal(D, D.T)  # the same sum from either point

    @pytest.mark.parametrize("terms", [1, 64, 2**13])
    @given(sparse_rows(), st.sampled_from([0.0, 2.5]))
    @example([{}, {PLANAR_X: -0.5, 4: 1.0}, {}, {}], 1.0)  # empty points
    @example([{1: 0.5, 3: 0.75}, {2: 0.25}, {1: 0.5, 3: 0.75}, {2: 0.25}], 0.0)  # duplicates
    @settings(max_examples=40, deadline=None)
    def test_triangle_fill_is_stacked_rows(self, terms, rows, s):
        # the matrix is filled from each block's diagonal rightward and
        # mirrored; at 1 and 64 terms every block is one row or a few
        cloud = sparse_cloud(rows, s)
        with mock.patch.object(geometry, "_BLOCK_TERMS", terms):
            D = cloud.distance_log_matrix()
        stacked = np.stack([cloud.distance_log_row(i) for i in range(len(cloud))])
        assert D.tobytes() == stacked.tobytes()
        assert np.array_equal(D, D.T)

    def test_memory_below_one_dense_matrix(self):
        n, m = 2000, 400
        cloud = wide_cloud(n, m)
        first = point_dicts(cloud)[:288]
        tracemalloc.start()
        try:
            built = PointCloud(cloud.points, cloud.spectrum, 2.0, [])
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sub = dict_cloud(first, cloud.spectrum, 2.0)
            D = sub.distance_log_matrix()
            matrix_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < n * m * 8  # one dense float64 n x m matrix, 6.4 MB
        assert matrix_peak < D.nbytes + 2**20
        assert built._signs.shape == built._logmags.shape == built._cols.shape == (n, 3)
        # the matrix is filled in blocks of a few rows; rows on both sides of
        # block edges read as distance_log_row computes them alone
        for i in (0, 3, 4, 7, 286, 287):
            assert D[i].tobytes() == sub.distance_log_row(i).tobytes()
        assert np.array_equal(D, D.T)


# Box counts of the n_max 24 section-4 cloud (3382 points) at scales
# geomspace(1e-1, 1e-4, 6), obtained by running test_section4_box_counts_pinned's
# construction at commit 8824d1f, where box_count sorted the cells with
# np.unique(cells, axis=0).
SECTION4_BOX_COUNTS = {
    0: (342, 1891, 1906, 1923, 1935, 1954),
    2: (343, 1897, 1917, 1949, 1995, 2079),
    4: (357, 1984, 2126, 2257, 2389, 2511),
}

# Box counts of the `section4` benchmark config (perfbench/configs/section4.json:
# the quadratic spectrum and the thm44 cloud at n_max 120, 9622 points) at the
# scales "1e-1:1e-4:9", as box_count read them at commit 141cb3b, which
# compacted (column, cell) key pairs by a stable argsort.
SECTION4_BENCHMARK_COUNTS = {
    0: (342, 1716, 1896, 1908, 1924, 1943, 1979, 2016, 2047),
    2: (343, 1719, 1902, 1919, 1940, 1973, 2027, 2097, 2178),
    4: (437, 1992, 2550, 2952, 3388, 3799, 4249, 4682, 5114),
}


class TestBoxCount:
    @given(coarse_arrays(), st.sampled_from([-3.0, -1.2, -0.3, 0.0, 0.9]))
    @example(np.array([[0.5, -0.25], [0.5, -0.25], [-1.0, 0.75]]), -1.2)  # duplicates
    @example(np.array([[-0.75], [0.25], [-0.75], [1.0]]), -0.3)  # one column
    @example(np.array([[-0.5, 0.0, 1.0]]), 0.0)  # one point
    @example(np.zeros((3, 2)), 0.0)  # no stored coordinate at all
    @settings(max_examples=60, deadline=None)
    def test_matches_sorted_distinct_rows(self, arr, log_eps):
        cloud = dense_cloud(arr)
        got = box_count(cloud, log_eps=log_eps)
        assert type(got) is int
        assert got == sorted_box_count(cloud, log_eps)

    @given(sparse_rows(), st.sampled_from([0.0, 1.0, 2.5]),
           st.sampled_from([-3.0, -1.2, -0.3, 0.0, 0.9]))
    # equal cells, but the second point's index-2 entry lands in the zero-cell
    # of its column from the middle slot: only the compaction makes them equal
    @example([{1: 0.5, 3: 0.75}, {1: 0.5, 2: 0.01, 3: 0.75}], 0.0, 0.0)
    # index 1 is stored by every point, so its minimum counts no implicit zero
    @example([{1: 0.5, 2: 0.25}, {1: 1.4}], 0.0, 0.0)
    @example([{}, {PLANAR_X: -0.5, 4: 1.0}, {}], 1.0, -1.2)  # empty points
    @example([{}, {}], 0.0, 0.0)  # only empty points
    @settings(max_examples=80, deadline=None)
    def test_sparse_matches_dense_distinct_rows(self, rows, s, log_eps):
        cloud = sparse_cloud(rows, s)
        got = box_count(cloud, log_eps=log_eps)
        assert type(got) is int
        assert got == sorted_box_count(cloud, log_eps)

    def test_memory_below_one_dense_matrix(self):
        n, m = 2000, 400
        view = wide_cloud(n, m).with_norm(2.0)
        tracemalloc.start()
        try:
            assert view.weighted_slots() is not None
            for le in np.linspace(0.0, -8.0, 9):
                box_count(view, log_eps=le)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8  # one dense float64 n x m matrix, 6.4 MB

    def test_section4_box_counts_pinned(self):
        spec = make_spectrum("quadratic", {}, 24)
        cloud, _ = section4_attractor(thm44_laws(), spec, 24)
        log_scales = [math.log(e) for e in np.geomspace(1e-1, 1e-4, 6)]
        for s, want in SECTION4_BOX_COUNTS.items():
            view = cloud.with_norm(s)
            assert tuple(box_count(view, log_eps=le) for le in log_scales) == want
            assert tuple(sorted_box_count(view, le) for le in log_scales) == want

    def test_section4_benchmark_counts_pinned(self):
        spec = make_spectrum("quadratic", {}, 120)
        cloud, _ = section4_attractor(thm44_laws(), spec, 120)
        log_scales = [math.log(e) for e in parse_scales("1e-1:1e-4:9")]
        for s, want in SECTION4_BENCHMARK_COUNTS.items():
            view = cloud.with_norm(s)
            assert tuple(box_count(view, log_eps=le) for le in log_scales) == want
        # the dense reference at the index with the most boxes, at the first,
        # middle and last scales (each dense count takes about 0.3 s)
        for k in (0, 4, 8):
            assert sorted_box_count(view, log_scales[k]) == want[k]

    def test_key_overflow_refused(self):
        # three points on one mode: at a side of 1e-25 their cells reach
        # 8e24, past int64, where the cast once gave 2 boxes without an error
        cloud = dense_cloud([[0.1], [0.5], [0.9]])
        assert box_count(cloud, math.log(1e-18)) == 3
        for log_eps in (math.log(1e-25), -690.8):
            with pytest.raises(GeometryError, match="smallest box side this cloud can count"
                               ) as err:
                box_count(cloud, log_eps)
        least = float(str(err.value).split("count, ")[1].split(":")[0])
        # the keys pack a column and a cell: 2 x (0.8 / side + 1) must stay below 2^63
        assert least == pytest.approx(0.8 * 2 / 2.0**63, rel=1e-5)
        assert box_count(cloud, math.log(least)) == 3
        with pytest.raises(GeometryError, match="overflow the int64 box keys"):
            box_count(cloud, math.log(least / 1.001))

    def test_underflow_refused(self):
        cloud = dict_cloud([{3: (1, -5000.0)}, {}])
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
            pts.append({int(i): (int(rng.choice([-1, 1])), float(rng.normal(-2, 3)))
                        for i in modes})
        pts += [pts[3], {}]  # a duplicate point and the origin
        tags = [f"p{k}" for k in range(len(pts))]
        base = dict_cloud(pts, spec, 0.0, tags)
        base.distance_log_row(0)
        base.weighted_slots()
        before = dict(base._cache)
        for s in (0.0, 1.5, 4.0):
            view = base.with_norm(s)
            fresh = dict_cloud(pts, spec, s, tags)
            assert view.s == s and view.tags == fresh.tags
            assert view.points is base.points
            assert view._signs is base._signs and view._logmags is base._logmags
            assert view._cols is base._cols
            for i in range(len(pts)):
                assert view.distance_log_row(i).tobytes() == fresh.distance_log_row(i).tobytes()
            for got, want in zip(view.weighted_slots(), fresh.weighted_slots()):
                assert got.tobytes() == want.tobytes()
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
        cloud = dict_cloud([{1: (1, 0.0)}])
        scan = fractal_dimension_estimate(cloud, log_scales=logs([0.1, 0.05, 0.02, 0.01]))
        assert scan.slope == 0.0

    def test_needs_four_scales(self):
        with pytest.raises(GeometryError):
            fractal_dimension_estimate(segment_cloud(16), log_scales=logs([0.1, 0.05, 0.02]))

    @pytest.mark.parametrize("local,want", [
        ((0.25, 0.5, math.nextafter(0.75, 1.0)), True),  # one ulp above first + 0.5
        ((0.25, 2.0, 0.75), False),  # exactly first + 0.5 is not above it
        ((0.25, 0.1, 0.0, 3.0), True),  # only the first and last slopes count
        ((0.25, 3.0, 0.7), False),
        ((0.25, 3.0), False),  # fewer than three slopes certify nothing
        ((), False),
    ])
    def test_slope_rule(self, local, want):
        assert slopes_diverge(local) is want

    @pytest.mark.parametrize("diverging_s,want", [(None, "finite"), (2.0, "diverging")])
    def test_scan_verdict_is_any_index_diverging(self, monkeypatch, diverging_s, want):
        # the verdict reads "diverging" when the local slopes of one Sobolev
        # index diverge, and only then
        def scan(view, log_scales):
            local = (0.25, 0.5, 1.0) if view.s == diverging_s else (0.25, 0.5, 0.75)
            return DimensionScan(tuple(log_scales), (1, 2, 4, 8), 0.5, local, "boxes")

        monkeypatch.setattr(geometry, "fractal_dimension_estimate", scan)
        out = sobolev_scan(segment_cloud(16), [0.0, 2.0], logs([0.1, 0.05, 0.02, 0.01]), False)
        assert out.verdict == want
        assert out.constants == {"slopes": {"0.0": 0.5, "2.0": 0.5}}
        name, header, rows, _ = out.tables[0]
        assert name == "dimension_scan.csv" and len(rows) == 8
        slopes = [r[5] for r in rows]
        assert math.isnan(slopes[0]) and math.isnan(slopes[4])
        assert slopes[1:4] == [0.25, 0.5, 0.75]
        assert slopes[5:] == [0.25, 0.5, 1.0 if want == "diverging" else 0.75]

    def test_projection_monotonicity(self):
        rng = np.random.default_rng(3)
        full = dense_cloud(rng.normal(size=(18, 4)))
        # dropping coordinates 3, 4 is a coordinate-restriction projection
        proj = dict_cloud([{i: v for i, v in p.items() if i <= 2} for p in point_dicts(full)])
        for eps in (0.5, 1.0, 2.0):
            assert (len(covering_number(proj, math.log(eps), method="exact"))
                    <= len(covering_number(full, math.log(eps), method="exact")))


class TestDoubling:
    def test_single_point(self):
        cloud = dict_cloud([{1: (1, 0.0)}])
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
        log_scales = logs(np.geomspace(0.5, 0.004, 7))
        out = log_doubling_estimate(
            log_scales, [math.log(doubling_factor(cloud, le)) for le in log_scales])
        assert out["verdict"] == "finite"
        assert out["estimate"] <= 3.0

    def test_memory_below_matrix_and_one_ball_matrix(self):
        # covers gather their members from the bool ball matrices, so past
        # the distance matrix itself a doubling factor never holds a float
        # copy of it, whole or gathered
        for log_eps in logs([0.3, 0.05, 0.01]):
            fresh, warm = almost_cube_cloud(20), almost_cube_cloud(20)
            D = warm.distance_log_matrix()
            n = len(D)
            peaks = []
            for cloud in (fresh, warm):
                tracemalloc.start()
                try:
                    doubling_factor(cloud, log_eps)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert n == 285
            assert peaks[0] < D.nbytes + n * n + 2**20
            assert peaks[1] < D.nbytes

    def test_scale_span_validated(self):
        with pytest.raises(GeometryError, match="decades"):
            log_doubling_estimate(logs([0.5, 0.3, 0.1]), [0.0, 0.0, 0.0])


def cube_levels(drop_from=None, duplicate=None):
    """Full almost-cubes at levels 4, 5, 6 (widths 2, 3, 3), as bad_cube_cloud
    lays them out; drop_from names a level whose last vertex goes missing,
    duplicate one whose last vertex is stored twice."""
    points, levels = [], {}
    for n, log_eps in ((4, -83.0), (5, -136.5), (6, -183.0)):
        modes = [2 * (n + j) for j in range(1, cube_width(n) + 1)]
        ids, vertices = [], list(range(2 ** len(modes)))
        if n == duplicate:
            vertices.append(vertices[-1])
        for p in vertices:
            ids.append(len(points))
            points.append({m: (1, log_eps) for b, m in enumerate(modes) if (p >> b) & 1})
        levels[n] = {"log_eps": log_eps, "point_ids": ids, "cube_indices": modes}
    if drop_from is not None:
        levels[drop_from]["point_ids"].pop()
    return dict_cloud(points), levels


def configured_cubes(n_max=None, kick_max_level=None):
    """The bad-cube cloud and levels of the `cubes` benchmark config, or of
    that config deepened to the given spectrum.n_max and kick_max_level."""
    with open(os.path.join(REPO, "perfbench", "configs", "cubes.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    if n_max is not None:
        cfg["spectrum"]["n_max"], cfg["dynamics"]["kick_max_level"] = n_max, kick_max_level
    scen = scenario_from_config(resolve_config(cfg))
    cloud, meta = bad_cube_cloud(scen, poincare_predicted(scen.spectrum, scen.drive.half_period))
    return cloud, meta["levels"]


def enumerated_level(cloud, points, info):
    """A level's half-scale greedy cover over its own points, and the log
    distances from the cube centre to each of them, enumerated from the
    distance rows; points are the cloud's point_dicts."""
    points = [points[i] for i in info["point_ids"]]
    half = info["log_eps"] - math.log(2.0)
    cover = covering_number(dict_cloud(points, cloud.spectrum), half, "greedy")
    centre = {m: (1, half) for m in info["cube_indices"]}
    row = dict_cloud(points + [centre], cloud.spectrum).distance_log_row(len(points))
    return len(cover), row[:-1]


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
        bounds = [lvl["log2_doubling_bound"] for lvl in out["levels"]]
        assert bounds == sorted(bounds)
        assert out["log_doubling"]["verdict"] == "finite"

    @pytest.mark.parametrize("build", [
        pytest.param(configured_cubes, id="cubes"),
        pytest.param(functools.partial(configured_cubes, 160, 36), id="kick_max_level 36"),
        pytest.param(cube_levels, id="full"),
        pytest.param(functools.partial(cube_levels, drop_from=5), id="drop_from"),
        pytest.param(functools.partial(cube_levels, duplicate=6), id="duplicate"),
    ])
    def test_closed_form_matches_enumeration(self, build):
        # every level here has k <= 6, so at most 65 points to enumerate
        cloud, levels = build()
        out = cube_doubling_report(cloud, levels)
        points = point_dicts(cloud)
        assert [lvl["level"] for lvl in out["levels"]] == sorted(levels)
        for lvl in out["levels"]:
            info = levels[lvl["level"]]
            k = len(info["cube_indices"])
            assert k <= 6 and lvl["all_in_ball"]
            n_cover, row = enumerated_level(cloud, points, info)
            assert lvl["n_half_cover"] == n_cover
            assert lvl["count_bound_ok"] is (n_cover >= 2**k)
            radius = info["log_eps"] + math.log(math.sqrt(k) / 2.0)
            assert np.all(np.abs(row - radius) <= 4 * np.spacing(abs(radius)))

    @pytest.mark.parametrize("field,value", [
        ("log", np.nextafter(-136.5, 0.0)),  # one ulp off the vertex scale
        ("sign", -1),
        ("mode", 2 * (5 + 4)),  # the mode after the cube's last
    ], ids=["log", "sign", "mode"])
    def test_a_point_off_the_cube_fails_its_level(self, field, value):
        cloud, levels = cube_levels()
        t = cloud.points
        entry = np.searchsorted(t.point, levels[5]["point_ids"][-1], side="right") - 1
        getattr(t, field)[entry] = value
        out = cube_doubling_report(cloud, levels)
        assert [lvl["all_in_ball"] for lvl in out["levels"]] == [True, False, True]
        assert out["all_bounds_ok"] is False
        assert out["log_doubling"]["verdict"] == "finite"

    def test_reads_no_distance(self, monkeypatch):
        cloud, levels = cube_levels()

        def forbidden(*args, **kwargs):
            raise AssertionError("the report enumerated distances")

        monkeypatch.setattr(geometry, "covering_number", forbidden)
        monkeypatch.setattr(PointCloud, "_distance_logs", forbidden)
        monkeypatch.setattr(PointCloud, "__post_init__", forbidden)
        assert cube_doubling_report(cloud, levels)["all_bounds_ok"] is True

    def test_other_norms_refused(self):
        cloud, levels = cube_levels()
        with pytest.raises(GeometryError, match="H\\^0"):
            cube_doubling_report(cloud.with_norm(2.0), levels)

    def test_level_100_in_ball(self):
        # an ulp of |log eps| ~ 33,260 is 7.3e-12, so a vertex-to-centre log
        # distance rounded one ulp high must not fail the level
        out = cube_doubling_report(*configured_cubes(420, 100))
        assert out["levels"][-1]["level"] == 100
        assert out["levels"][-1]["all_in_ball"] is True
        assert out["all_bounds_ok"] is True
        assert out["log_doubling"]["verdict"] == "diverging"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_free_centres_cover_with_half_the_vertices(self, k):
        # the unit k-cube: 2^(k-1) balls of radius 1/2 at the midpoints of
        # the edges along the first axis cover it, and no such ball (diameter
        # 1) holds three vertices, since three vertices pairwise at most 1
        # apart would be a triangle of the cube graph
        vertices = np.array([[(p >> b) & 1 for b in range(k)] for p in range(2**k)], float)
        centres = vertices[vertices[:, 0] == 0] + np.eye(k)[0] / 2.0
        assert len(centres) == 2 ** (k - 1)
        sq = ((vertices[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        assert np.all(np.any(sq <= 0.25, axis=1))
        pair = ((vertices[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2)
        assert not any(pair[a, b] <= 1 and pair[a, c] <= 1 and pair[b, c] <= 1
                       for a, b, c in itertools.combinations(range(2**k), 3))
