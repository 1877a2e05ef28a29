"""Covering numbers, box-counting dimension, doubling and log-doubling
factors over point clouds kept in sign/log-magnitude coordinates, plus the
smoothness criterion for the forcing laws.

Every scale is passed as its log (log_eps, log_scales), since the scales of
interest underflow doubles; every ball cover reads one cached log-distance
matrix per norm view."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .fits import line_fit, local_slopes, monotone_increase
from .logspace import NEG_INF, PLANAR_X, PLANAR_Y, LogModeVector
from .spectral import Spectrum, cube_width

__all__ = [
    "GeometryError",
    "PointCloud",
    "CoverReport",
    "covering_number",
    "box_count",
    "DimensionScan",
    "fractal_dimension_estimate",
    "doubling_factor",
    "log_doubling_estimate",
    "smoothness_criterion",
    "dimension_vs_s_scan",
    "cube_doubling_report",
    "separated_count_exact",
    "separated_count_log",
]

# closed-ball membership in log coordinates allows this additive slack
_LOG_SLACK = 1e-12
_EXACT_COVER_CAP = 24
# one float64 log-distance matrix per norm view: 4800^2 doubles is 184 MB
_MATRIX_CAP = 4800


class GeometryError(ValueError):
    """Invalid scale, window, or cloud for the requested estimator."""


def _logsumexp_rows(terms: np.ndarray) -> np.ndarray:
    m = np.max(terms, axis=1, initial=NEG_INF)  # a cloud may store no coordinate
    out = np.full(terms.shape[0], NEG_INF)
    finite = m > NEG_INF
    if np.any(finite):
        t = terms[finite] - m[finite][:, None]
        t[np.isnan(t)] = NEG_INF
        out[finite] = m[finite] + np.log(np.sum(np.exp(t), axis=1))
    return out


@dataclass
class PointCloud:
    """Finite point set with a Sobolev-index norm selector.

    Distances are computed entirely in log space: the dominant coordinate is
    factored out per pair, so magnitudes like exp(-beta n^2) never underflow.
    The planar block (reserved indices) carries weight one at every s.
    """

    points: list[LogModeVector]
    spectrum: Spectrum | None = None
    s: float = 0.0
    tags: list[str] = field(default_factory=list)
    _indices: list[int] = field(init=False, repr=False)
    _signs: np.ndarray = field(init=False, repr=False)
    _logmags: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.points:
            raise GeometryError("empty point cloud")
        if not self.tags:
            self.tags = ["" for _ in self.points]
        if len(self.tags) != len(self.points):
            raise GeometryError("one tag per point required")
        idx = sorted({i for p in self.points for i in p.entries})
        self._indices = idx
        pos = {i: k for k, i in enumerate(idx)}
        n, m = len(self.points), len(idx)
        self._signs = np.zeros((n, m))
        self._logmags = np.full((n, m), NEG_INF)
        for r, p in enumerate(self.points):
            for i, (sg, lg) in p.entries.items():
                self._signs[r, pos[i]] = sg
                self._logmags[r, pos[i]] = lg

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_dense(cls, array, spectrum: Spectrum | None = None, s: float = 0.0,
                   first_index: int = 1, tags=None) -> "PointCloud":
        pts = [LogModeVector.from_dense(row, first_index) for row in np.asarray(array, dtype=float)]
        return cls(pts, spectrum, s, list(tags) if tags else [])

    def with_norm(self, s: float) -> "PointCloud":
        """The same points under the H^s norm: a view that shares the points,
        tags and dense sign/log-magnitude matrices with this cloud (no
        rebuild) and starts an empty cache of its own, so cache keys need no s."""
        view = copy.copy(self)
        view.s = s
        view._cache = {}
        return view

    def scaled(self, log_factor: float) -> "PointCloud":
        return PointCloud([p.scaled(log_factor) for p in self.points],
                          self.spectrum, self.s, list(self.tags))

    def _weight_logs(self) -> np.ndarray:
        """Per-coordinate log weights s log(lambda_i), zero on the planar
        block; computed once per view."""
        w = self._cache.get("w")
        if w is None:
            w = np.zeros(len(self._indices))
            if self.spectrum is not None:
                for k, i in enumerate(self._indices):
                    if i not in (PLANAR_X, PLANAR_Y):
                        w[k] = self.s * math.log(self.spectrum.lam(i))
            self._cache["w"] = w
        return w

    def distance_log_row(self, i: int) -> np.ndarray:
        """log distances from point i to every point, in the selected norm."""
        w = self._weight_logs()
        L, S = self._logmags, self._signs
        li, si = L[i], S[i]
        m = np.maximum(L, li[None, :])
        ms = np.where(np.isneginf(m), 0.0, m)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            diff = S * np.exp(L - ms) - si[None, :] * np.exp(li[None, :] - ms)
            terms = w[None, :] + 2.0 * (ms + np.log(np.abs(diff)))
        terms[np.isnan(terms)] = NEG_INF
        return 0.5 * _logsumexp_rows(terms)

    def distance_log_matrix(self) -> np.ndarray:
        """All log distances in the selected norm: the distance_log_row
        rows stacked once per view and cached; callers must not write to it."""
        D = self._cache.get("matrix")
        if D is None:
            n = len(self.points)
            if n > _MATRIX_CAP:
                raise GeometryError(f"log-distance matrix capped at {_MATRIX_CAP} points; "
                                    f"the cloud has {n}")
            D = self._cache["matrix"] = np.stack([self.distance_log_row(i) for i in range(n)])
        return D

    def dense_weighted(self) -> np.ndarray | None:
        """Norm-weighted dense coordinates (distances become plain Euclidean),
        or None when some magnitude underflows doubles.  Computed once per
        view and cached, the None verdict included; callers must not write to it."""
        if "dense" in self._cache:
            return self._cache["dense"]
        logs = self._logmags + 0.5 * self._weight_logs()[None, :]
        present = self._signs != 0
        out = None
        if not np.any(logs[present] < math.log(2.0**-1000)):
            with np.errstate(under="ignore"):
                out = self._signs * np.exp(np.where(present, logs, NEG_INF))
        self._cache["dense"] = out
        return out


@dataclass(frozen=True)
class CoverReport:
    log_eps: float
    n_balls: int
    method: str
    centers: tuple[int, ...]


def _greedy_cover(ball: np.ndarray) -> list[int]:
    """Max-coverage greedy set cover over a boolean ball matrix (row a is the
    ball around member a): each round picks the member whose ball covers the
    most uncovered members (lowest index on ties)."""
    uncovered = np.ones(len(ball), dtype=bool)
    centers: list[int] = []
    while np.any(uncovered):
        gains = ball[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise GeometryError("cover stalled; a point covers nothing, not even itself")
        centers.append(best)
        uncovered &= ~ball[best]
    return centers


def _exact_cover(ball: np.ndarray) -> list[int]:
    """Branch-and-bound minimal cover over a boolean ball matrix.  Branches
    on the lowest-index uncovered member; the greedy cover seeds the bound."""
    k = len(ball)
    if k > _EXACT_COVER_CAP:
        raise GeometryError(f"exact covers limited to {_EXACT_COVER_CAP} points")
    masks = [sum(1 << b for b in np.flatnonzero(row).tolist()) for row in ball]
    full = (1 << k) - 1
    best = _greedy_cover(ball)
    best_size = len(best)
    order = sorted(range(k), key=lambda i: -bin(masks[i]).count("1"))

    def search(covered: int, chosen: list[int]):
        nonlocal best_size, best
        if covered == full:
            if len(chosen) < best_size:
                best_size, best = len(chosen), list(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        uncovered = ~covered & full
        low_bit = uncovered & -uncovered
        for i in order:
            if masks[i] & low_bit:
                search(covered | masks[i], chosen + [i])

    search(0, [])
    return best


_COVERS = {"greedy": _greedy_cover, "exact": _exact_cover}


def covering_number(cloud: PointCloud, log_eps: float, method: str = "greedy",
                    member_rows=None) -> CoverReport:
    """Number of closed balls of log radius log_eps (centers at data points)
    covering the cloud, or the members listed in member_rows.

    "greedy" is the deterministic max-coverage heuristic, "exact"
    branch-and-bound for <= 24 points, "auto" picks between them by size.
    """
    ids = (np.arange(len(cloud)) if member_rows is None
           else np.asarray(member_rows, dtype=np.intp))
    if method == "auto":
        method = "exact" if len(ids) <= _EXACT_COVER_CAP else "greedy"
    if method not in _COVERS:
        raise GeometryError(f"unknown covering method {method!r}")
    ball = cloud.distance_log_matrix()[np.ix_(ids, ids)] <= log_eps + _LOG_SLACK
    local = _COVERS[method](ball)
    if not np.all(np.any(ball[local], axis=0)):
        raise GeometryError("cover validity re-check failed")
    return CoverReport(log_eps, len(local), method, tuple(ids[local].tolist()))


@dataclass(frozen=True)
class DimensionScan:
    s: float
    log_scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    r_squared: float
    local_slopes: tuple[float, ...]
    counter: str = "boxes"


def box_count(cloud: PointCloud, log_eps: float) -> int:
    """Occupied-lattice-box count at side exp(log_eps) in the norm-weighted
    coordinates (anchored at the cloud's min corner).

    Exact: the integer cell rows are counted as distinct byte strings in a
    hash set, which compares whole rows, so the count equals the number of
    distinct rows without the lexicographic sort a row-unique pass needs."""
    coords = cloud.dense_weighted()
    if coords is None:
        raise GeometryError("cloud magnitudes underflow doubles; box counting "
                            "needs representable coordinates")
    eps = math.exp(log_eps)
    shifted = coords - np.min(coords, axis=0)
    cells = np.floor(shifted / eps + 1e-12).astype(np.int64)  # C-contiguous rows
    return len(set(map(bytes, cells)))


def fractal_dimension_estimate(cloud: PointCloud, log_scales,
                               method: str = "boxes") -> DimensionScan:
    """Least-squares slope of log N_eps against log(1/eps) over the declared
    window of log scales, with per-scale local slopes for divergence
    detection.

    The default counter is lattice box occupancy (clean slopes, same
    dimension as minimal ball covers); clouds whose magnitudes underflow
    doubles automatically fall back to greedy ball covering in log space.
    """
    log_scales = sorted(log_scales, reverse=True)  # scales strictly decreasing
    if len(log_scales) < 4:
        raise GeometryError("need at least four scales in the window")
    if len(cloud) == 1:
        return DimensionScan(cloud.s, tuple(log_scales), (1,) * len(log_scales),
                             0.0, 1.0, (), "degenerate")
    counter = method
    if method == "boxes" and cloud.dense_weighted() is None:
        counter = "greedy"
    if counter == "boxes":
        counts = [box_count(cloud, log_eps=le) for le in log_scales]
    else:
        counts = [covering_number(cloud, log_eps=le, method=counter).n_balls
                  for le in log_scales]
    x = -np.asarray(log_scales)
    y = np.log(counts)
    fit = line_fit(x, y)
    return DimensionScan(cloud.s, tuple(log_scales), tuple(counts), fit.slope,
                         fit.r_squared, tuple(local_slopes(x, y)), counter)


def doubling_factor(cloud: PointCloud, log_eps: float) -> int:
    """Worst case over data-point centers of the number of eps/2-balls needed
    to cover the eps-ball (eps = exp(log_eps)); brute force over the rows of
    the view's log-distance matrix."""
    log_half = log_eps - math.log(2.0)
    worst = 1
    for row in cloud.distance_log_matrix():
        members = np.nonzero(row <= log_eps + _LOG_SLACK)[0]
        if len(members) <= worst:
            continue
        method = "exact" if len(members) <= _EXACT_COVER_CAP else "greedy"
        report = covering_number(cloud, log_eps=log_half, method=method, member_rows=members)
        worst = max(worst, report.n_balls)
    return worst


def log_doubling_estimate(cloud: PointCloud | None, log_scales,
                          log_d_values=None) -> dict:
    """Slope of log D_eps against log log(1/eps) plus a trend verdict:
    "diverging" certifies non-embeddability into any log-Lipschitz manifold,
    "finite" proves nothing (one-sided test).  Without log_d_values the
    doubling factors are computed on the cloud."""
    log_scales = sorted(log_scales, reverse=True)
    if len(log_scales) < 3:
        raise GeometryError("need at least three scales")
    if -log_scales[-1] < -log_scales[0] + 2.0 * math.log(10.0) - 1e-9:
        raise GeometryError("scales must span at least two decades")
    if log_d_values is None:
        if cloud is None:
            raise GeometryError("need a cloud or explicit doubling values")
        log_d_values = [math.log(max(doubling_factor(cloud, le), 1)) for le in log_scales]
    x = np.log(-np.asarray(log_scales, dtype=float))
    y = np.asarray(log_d_values, dtype=float)
    fit = line_fit(x, y)
    slopes = local_slopes(x, y)
    diverging = monotone_increase(y) and len(y) >= 3 and y[-1] > y[0]
    return {
        "estimate": fit.slope,
        "r_squared": fit.r_squared,
        "verdict": "diverging" if diverging else "finite",
        "log_scales": list(log_scales),
        "log_d_values": list(map(float, y)),
        "local_slopes": list(map(float, slopes)),
    }


def smoothness_criterion(log_b_law, log_a_law, spec: Spectrum | None, s: float, k: int,
                         n_max: int = 1_000_000, n_min: int = 2) -> dict:
    """Boundedness of sup_n B_n * lambda_n^(s/2) * A_n^(-k), evaluated in log
    space (membership of the forcing in C^k of the H^s scale).

    Verdict by the trend of the last quartile: monotone increase means
    unbounded; the witness is the argmax.
    """
    n = np.arange(n_min, n_max + 1, dtype=float)
    if spec is not None and spec.family == "explicit":
        n = n[n <= spec.n_max]
    if spec is None or spec.family == "quadratic":
        log_lam = 2.0 * np.log(n)
    elif spec.family == "linear":
        log_lam = np.log(spec.params["c"] * n)
    elif spec.family == "power":
        log_lam = spec.params["kappa"] * np.log(n)
    else:
        log_lam = np.log(spec.values[(n - 1).astype(int)])
    values = np.asarray(log_b_law(n)) + 0.5 * s * log_lam - k * np.asarray(log_a_law(n))
    tail = values[int(0.75 * len(values)):]
    unbounded = monotone_increase(tail, window_fraction=1.0) and tail[-1] > values[0]
    arg = int(np.argmax(values))
    return {
        "verdict": "unbounded" if unbounded else "bounded",
        "sup_log": float(np.max(values)),
        "witness_n": int(n[arg]),
        "first_log": float(values[0]),
        "last_log": float(values[-1]),
        "s": s,
        "k": k,
    }


def dimension_vs_s_scan(cloud: PointCloud, s_list, log_scales,
                        include_doubling: bool = False) -> dict:
    """Re-norm the same cloud under each Sobolev index and re-run the
    box-counting estimate; emits plot-ready rows (s, log_eps, N, D, slope)."""
    results = {}
    rows = []
    for s in s_list:
        view = cloud.with_norm(s)
        scan = fractal_dimension_estimate(view, log_scales=log_scales)
        results[s] = scan
        slopes = (float("nan"),) + scan.local_slopes
        for le, cnt, sl in zip(scan.log_scales, scan.counts, slopes):
            d_val = doubling_factor(view, le) if include_doubling else None
            rows.append({"s": s, "log_eps": le, "n_eps": cnt,
                         "d_eps": d_val, "local_slope": sl})
    return {"scans": results, "rows": rows}


def cube_doubling_report(cloud: PointCloud, levels: dict) -> dict:
    """Exhaustive log-space verification of the almost-cube lower bounds.

    For each level n (vertex scale eps_n, cube width k = ceil(sqrt(n))):
    every vertex lies in the ball of radius r_n * eps_n around the cube
    center, r_n = sqrt(k) / 2 being their exact distance; covering those
    vertices at eps_n/2 needs at least 2^k balls; chaining the doubling
    bound over max(1, ceil(log2 r_n)) halvings yields log2 D >= k / chain,
    checked against sqrt(n)/2.  The "diverging" verdict stands only when
    every level passes all three checks; otherwise it reads "finite", which
    certifies nothing.
    """
    per_level = []
    log2_d_bounds = []
    log_scales = []
    for n, info in sorted(levels.items()):
        k = cube_width(n)
        log_eps = info["log_eps"]
        rows = info["point_ids"]
        r_n = math.sqrt(k) / 2.0
        log_ball = log_eps + math.log(r_n)
        center = LogModeVector(
            {idx: (1, log_eps - math.log(2.0)) for idx in info["cube_indices"]}
        )
        aug = PointCloud(
            [cloud.points[i] for i in rows] + [center], cloud.spectrum, cloud.s
        )
        center_row = aug.distance_log_row(len(rows))
        in_ball = bool(np.all(center_row[:-1] <= log_ball + _LOG_SLACK))
        sub = PointCloud([cloud.points[i] for i in rows], cloud.spectrum, cloud.s)
        cover = covering_number(sub, log_eps=log_eps - math.log(2.0), method="greedy")
        chain = max(1, math.ceil(math.log2(r_n)))
        log2_d = math.log2(cover.n_balls) / chain
        per_level.append({
            "level": n,
            "vertices": len(rows),
            "log_eps": log_eps,
            "all_in_ball": in_ball,
            "n_half_cover": cover.n_balls,
            "count_bound_ok": cover.n_balls >= 2**k,
            "chain_length": chain,
            "log2_doubling_bound": log2_d,
            "half_sqrt_bound_ok": log2_d >= 0.5 * math.sqrt(n) - 1e-9,
        })
        log2_d_bounds.append(log2_d)
        log_scales.append(log_eps)
    estimate = log_doubling_estimate(
        None, log_scales=log_scales,
        log_d_values=[v * math.log(2.0) for v in log2_d_bounds],
    )
    all_ok = all(l["count_bound_ok"] and l["half_sqrt_bound_ok"] and l["all_in_ball"]
                 for l in per_level)
    if not all_ok:
        estimate["verdict"] = "finite"
    return {
        "levels": per_level,
        "all_bounds_ok": all_ok,
        "log_doubling": estimate,
    }


def separated_count_exact(norm_logs, log_eps: float) -> int:
    """Closed-form covering count for a well-separated orthogonal cloud:
    points with norm >= 2 eps each need their own ball."""
    threshold = log_eps + math.log(2.0)
    return int(np.sum(np.asarray(norm_logs) >= threshold - _LOG_SLACK))


def separated_count_log(lognorm_of_n, log_eps: float, log_n_hi: float = 600.0) -> float:
    """log of the separated-cloud count when the count itself is astronomical:
    bisection solves lognorm(n) = log(2 eps) for continuous n in log space."""
    threshold = log_eps + math.log(2.0)
    lo, hi = 0.0, log_n_hi
    if lognorm_of_n(math.exp(lo + 0.7)) < threshold:
        return NEG_INF
    if lognorm_of_n(math.exp(hi)) >= threshold:
        raise GeometryError("separated-count bisection bracket too small")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lognorm_of_n(math.exp(mid)) >= threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
