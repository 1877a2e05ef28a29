"""Covering numbers, box-counting dimension, doubling and log-doubling
factors over point clouds kept in sign/log-magnitude coordinates.

A cloud's points are one coordinate table: flat, aligned (point, mode,
sign, log magnitude) arrays sorted by (point, mode), since the coordinates
of interest sit far below the double range.  Every scale is passed as its
log (log_eps, log_scales), for the same reason.  A cloud keeps only the
few coordinates each point stores, as n x K slot arrays (K the most any
point stores), never an n x m matrix over all stored modes: every log
distance sums over the union of a pair's stored columns, the log-distance
matrix is computed once per norm view from its upper triangle, every ball
cover gathers its members from one cached ball matrix per radius, and every
box count packs each stored slot's column and cell into one int64 key.  The
dimension command's entry points are `sobolev_scan` (section-4 and file
clouds) and `cube_dimension` (bad cubes).  Each returns its tables with
a `%` format per column; `cloud_rows` hands cloud.csv to the writer as
column chunks sliced straight from the cloud's arrays."""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .fits import line_fit, local_slopes, monotone_increase
from .outcome import ColumnTable, Outcome
from .spectral import Spectrum, cube_width

__all__ = [
    "NEG_INF",
    "PLANAR_X",
    "PLANAR_Y",
    "GeometryError",
    "CoordTable",
    "PointCloud",
    "covering_number",
    "box_count",
    "DimensionScan",
    "fractal_dimension_estimate",
    "doubling_factor",
    "log_doubling_estimate",
    "slopes_diverge",
    "sobolev_scan",
    "cube_doubling_report",
    "cube_dimension",
    "cloud_rows",
    "CLOUD_HEADER",
    "CLOUD_FORMATS",
]

NEG_INF = float("-inf")
# Reserved mode indices of the planar (x, y) block that rides along with the
# eigenmode coordinates; Sobolev weights treat them as weight-one directions.
PLANAR_X = -1
PLANAR_Y = -2
# cloud.csv's columns and their `reports.write_csv` formats (`cloud_rows`)
CLOUD_HEADER = ("point_id", "tag", "mode_index", "sign", "logmag")
CLOUD_FORMATS = ("%d", "%s", "%d", "%d", "%.17g")

# closed-ball membership in log coordinates allows at least this additive slack
_LOG_SLACK = 1e-12
_EXACT_COVER_CAP = 24
# one float64 log-distance matrix per norm view: 4800^2 doubles is 184 MB
_MATRIX_CAP = 4800
# terms per block of distance rows (rows x points x 2K), 64 KB of doubles
_BLOCK_TERMS = 2**13
# the packed box key of a dropped slot, above every kept key
_DROPPED = int(np.iinfo(np.int64).max)


class GeometryError(ValueError):
    """Invalid scale, window, or cloud for the requested estimator."""


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of x, left to right, so a row's sum does not depend on the
    rows around it."""
    total = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += x[:, j]
    return total


@dataclass
class CoordTable:
    """The stored coordinates of n points as four aligned arrays: entry e
    puts sign[e] * exp(log[e]) on mode mode[e] of point point[e].  Entries
    are sorted by (point, mode) with no pair twice, signs are +-1 and logs
    finite; every other coordinate is zero, and a point may store none (the
    origin).  Mode 0 is unused; PLANAR_X and PLANAR_Y carry the planar
    block."""

    n: int
    point: np.ndarray
    mode: np.ndarray
    sign: np.ndarray
    log: np.ndarray

    def __post_init__(self):
        for name in ("point", "mode", "sign"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.intp))
        self.log = np.asarray(self.log, dtype=float)

    @classmethod
    def from_entries(cls, n: int, entries) -> "CoordTable":
        """The table of n points from (point, mode, sign, log) entries in any
        order."""
        entries = sorted(entries)
        return cls(n, *(zip(*entries) if entries else ((),) * 4))


@dataclass
class PointCloud:
    """Finite point set, stored as one coordinate table, with a
    Sobolev-index norm selector.

    Distances are computed entirely in log space: the dominant coordinate is
    factored out per pair, so magnitudes like exp(-beta n^2) never underflow.
    The planar block (reserved indices) carries weight one at every s.
    """

    points: CoordTable
    spectrum: Spectrum | None
    s: float
    tags: list[str]
    # the distinct stored modes, ascending: column j of the column table
    _indices: list[int] = field(init=False, repr=False)
    # row r's stored columns, in mode order, padded with the sentinel m
    # to K = max(1, most coordinates a point stores)
    _cols: np.ndarray = field(init=False, repr=False)
    # the sign and log magnitude at each slot of _cols; padding holds 0, -inf
    _signs: np.ndarray = field(init=False, repr=False)
    _logmags: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        t = self.points
        if t.n == 0:
            raise GeometryError("empty point cloud")
        if not self.tags:
            self.tags = [""] * t.n
        if len(self.tags) != t.n:
            raise GeometryError("one tag per point required")
        self._indices = sorted(set(t.mode.tolist()))
        cols = np.searchsorted(np.array(self._indices, dtype=np.intp), t.mode)
        n, m = t.n, len(self._indices)
        stored = np.bincount(t.point, minlength=n)
        slots = np.arange(len(cols)) - np.repeat(np.cumsum(stored) - stored, stored)
        shape = (n, max(1, int(stored.max())))
        self._cols = np.full(shape, m, dtype=np.intp)
        self._signs = np.zeros(shape)
        self._logmags = np.full(shape, NEG_INF)
        self._cols[t.point, slots] = cols
        self._signs[t.point, slots] = t.sign
        self._logmags[t.point, slots] = t.log

    def __len__(self) -> int:
        return self.points.n

    def with_norm(self, s: float) -> "PointCloud":
        """The same points under the H^s norm: a view that shares the
        coordinate table, tags and slot arrays (column, sign and log
        magnitude tables) with this cloud (no rebuild) and starts an empty
        cache of its own, so cache keys need no s."""
        view = copy.copy(self)
        view.s = s
        view._cache = {}
        return view

    def _weight_logs(self) -> np.ndarray:
        """Per-column log weights s log(lambda_i), zero on the planar block
        and on the padding column m; computed once per view."""
        w = self._cache.get("w")
        if w is None:
            w = np.zeros(len(self._indices) + 1)
            if self.spectrum is not None:
                for k, i in enumerate(self._indices):
                    if i not in (PLANAR_X, PLANAR_Y):
                        w[k] = self.s * math.log(self.spectrum.lam(i))
            self._cache["w"] = w
        return w

    def _distance_logs(self, rows: np.ndarray, lo: int) -> np.ndarray:
        """log distances from each listed point to points lo..n-1, in the
        selected norm, as a (len(rows), n - lo) array.

        A pair's terms live on the union of its stored columns, so a row is
        n x 2K work.  Each listed point's slot positions are scattered into a
        (rows, m + 1) lookup, which is gathered on every point's columns to
        find the shared ones.  A shared column's term is w_j + 2 log|x_j -
        y_j| with the larger magnitude factored out; a column only one point
        stores gives w_j + 2 log|x_j|.  The shared terms are summed in column
        order, and the two one-sided sums are added to each other first, so
        the distance from a to b is bit for bit the one from b to a, and an
        entry depends only on its pair, not on the block or on lo."""
        C, L, S = self._cols[lo:], self._logmags[lo:], self._signs[lo:]
        Ci, Li, Si = self._cols[rows], self._logmags[rows], self._signs[rows]
        r, K = len(rows), C.shape[1]
        m = len(self._indices)
        w = self._weight_logs()
        lookup = np.full((r, m + 1), K)  # slot K: a column the listed point leaves out
        lookup[np.arange(r)[:, None], Ci] = np.arange(K)
        lookup[:, m] = K
        at = lookup[:, C]
        every = np.arange(r)[:, None, None]
        li = np.append(Li, np.full((r, 1), NEG_INF), axis=1)[every, at]
        si = np.append(Si, np.zeros((r, 1)), axis=1)[every, at]
        # a term on each of the other point's columns
        big = np.maximum(L, li)
        big = np.where(np.isneginf(big), 0.0, big)
        with np.errstate(divide="ignore"):
            diff = S * np.exp(L - big) - si * np.exp(li - big)
            theirs = w[C] + 2.0 * (big + np.log(np.abs(diff)))
        # and on each of the listed point's columns that the other leaves out
        covered = np.zeros((r, len(C), K + 1), dtype=bool)
        np.put_along_axis(covered, at, True, axis=2)
        own = np.where(covered[:, :, :K], NEG_INF, (w[Ci] + 2.0 * Li)[:, None, :])
        top = np.maximum(np.max(theirs, axis=2), np.max(own, axis=2))
        out = np.full(top.shape, NEG_INF)
        live = top > NEG_INF  # else a duplicate point, or two points storing nothing
        top = top[live][:, None]
        scaled = np.exp(theirs[live] - top)
        shared = at[live] < K
        total = _slot_sum(np.where(shared, scaled, 0.0)) + (
            _slot_sum(np.where(shared, 0.0, scaled)) + _slot_sum(np.exp(own[live] - top)))
        out[live] = 0.5 * (top[:, 0] + np.log(total))
        return out

    def distance_log_row(self, i: int) -> np.ndarray:
        """log distances from point i to every point, in the selected norm."""
        return self._distance_logs(np.array([i]), 0)[0]

    def distance_log_matrix(self) -> np.ndarray:
        """All log distances in the selected norm, once per view and cached;
        callers must not write to it.  The matrix is exactly symmetric, so
        each block of rows a..b-1 is computed only from its diagonal
        rightward, over points a..n-1, in at most _BLOCK_TERMS terms (one row
        when a row has more), and its transpose fills the column block below.
        Every entry equals distance_log_row's bit for bit."""
        D = self._cache.get("matrix")
        if D is None:
            n, K = len(self), self._cols.shape[1]
            if n > _MATRIX_CAP:
                raise GeometryError(f"log-distance matrix capped at {_MATRIX_CAP} points; "
                                    f"the cloud has {n}")
            D = np.empty((n, n))
            a = 0
            while a < n:
                b = min(n, a + max(1, _BLOCK_TERMS // (2 * (n - a) * K)))
                D[a:b, a:] = self._distance_logs(np.arange(a, b), a)
                D[b:, a:b] = D[a:b, b:].T
                a = b
            self._cache["matrix"] = D
        return D

    def ball_matrix(self, log_eps: float) -> np.ndarray:
        """Closed-ball membership at log radius log_eps: entry (a, b) holds
        when b lies in the ball around a, so the matrix is exactly
        symmetric.  The radius allows a slack of 4 ulp of |log_eps|, or
        _LOG_SLACK where that is larger (below |log_eps| = 2048).  A log
        distance rounds at three additions, each within half an ulp of
        2|log d| before the exact halving, and the radius was itself rounded
        once, so a distance equal to the radius in exact arithmetic computes
        within 2 ulp of it; the factor 2 covers |log d| and |log_eps| in
        adjacent binades.  Only the last radius asked is cached, per view;
        callers must not write to it."""
        last = self._cache.get("ball")
        if last is None or last[0] != log_eps:
            slack = max(_LOG_SLACK, 4.0 * np.spacing(abs(log_eps)))
            last = (log_eps, self.distance_log_matrix() <= log_eps + slack)
            self._cache["ball"] = last
        return last[1]

    def weighted_slots(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Norm-weighted coordinates (distances become plain Euclidean) at the
        column table's slots, shifted by the min corner lo, and each column's
        value 0.0 - lo_j at a point that does not store it, one more 0.0
        standing for the padding column m; or None when some magnitude
        underflows doubles.  lo_j counts the implicit zeros of column j, and
        every value is the same IEEE operation on the same numbers as in a
        dense n x m weighting.  Padding slots hold 0.0.  Computed once per
        view and cached, the None verdict included; callers must not write
        to it."""
        if "slots" in self._cache:
            return self._cache["slots"]
        cols = self._cols
        n, m = len(self), len(self._indices)
        stored = cols < m
        at = cols[stored]
        logs = self._logmags[stored] + 0.5 * self._weight_logs()[at]
        out = None
        if not np.any(logs < math.log(2.0**-1000)):
            vals = np.zeros(cols.shape)
            vals[stored] = self._signs[stored] * np.exp(logs)
            lo = np.full(m + 1, np.inf)
            np.minimum.at(lo, at, vals[stored])
            # columns some point leaves out, and the padding column, hold 0.0
            gaps = np.append(np.bincount(at, minlength=m) < n, True)
            lo[gaps] = np.minimum(lo[gaps], 0.0)
            out = (vals - lo[cols], 0.0 - lo)
        self._cache["slots"] = out
        return out


def _greedy_cover(ball: np.ndarray) -> list[int]:
    """Max-coverage greedy set cover over a symmetric boolean ball matrix
    (row a is the ball around member a): each round picks the member whose
    ball covers the most uncovered members (lowest index on ties).  The gains
    are kept up to date between rounds: each pick subtracts the newly
    covered members of every ball, which by symmetry is a sum of the newly
    covered rows, so every row is summed twice in all."""
    uncovered = np.ones(len(ball), dtype=bool)
    gains = ball.sum(axis=1)
    centers: list[int] = []
    while uncovered.any():
        best = int(gains.argmax())
        if gains[best] == 0:
            raise GeometryError("cover stalled; a point covers nothing, not even itself")
        centers.append(best)
        newly = ball[best] & uncovered
        uncovered &= ~newly
        gains -= ball[newly].sum(axis=0)
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
                    member_rows=None) -> tuple[int, ...]:
    """Centres (point indices) of closed balls of log radius log_eps that
    cover the cloud, or the members listed in member_rows; their count is
    the covering number.

    "greedy" is the deterministic max-coverage heuristic, "exact"
    branch-and-bound for <= 24 points, "auto" picks between them by size.
    """
    ids = (np.arange(len(cloud)) if member_rows is None
           else np.asarray(member_rows, dtype=np.intp))
    if method == "auto":
        method = "exact" if len(ids) <= _EXACT_COVER_CAP else "greedy"
    if method not in _COVERS:
        raise GeometryError(f"unknown covering method {method!r}")
    ball = cloud.ball_matrix(log_eps)[np.ix_(ids, ids)]
    local = _COVERS[method](ball)
    if not np.all(np.any(ball[local], axis=0)):
        raise GeometryError("cover validity re-check failed")
    return tuple(ids[local].tolist())


@dataclass(frozen=True)
class DimensionScan:
    log_scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    local_slopes: tuple[float, ...]
    counter: str


def box_count(cloud: PointCloud, log_eps: float) -> int:
    """Occupied-lattice-box count at side exp(log_eps) in the norm-weighted
    coordinates (anchored at the cloud's min corner).

    Exact, from each point's stored slots only.  Each slot packs its column
    and cell into one int64 key, col * span + cell, span the largest cell
    plus one; a slot whose cell equals its column's zero-cell (the cell of
    a point that does not store the column), padding included, is dropped
    and holds the sentinel _DROPPED.  A row's stored columns ascend, so its
    kept keys already do, and one sort of each row moves the sentinels to
    its end.  Two points share a box exactly when their n x K key rows are
    equal, so the distinct rows, found by a lexsort, are the count, and no
    n x m cell matrix is built.  A side whose keys would reach the sentinel
    (span * (m + 1), m the stored columns) is refused, naming the smallest
    side the cloud can count."""
    form = cloud.weighted_slots()
    if form is None:
        raise GeometryError("cloud magnitudes underflow doubles; box counting "
                            "needs representable coordinates")
    shifted, absent = form
    cols, m = cloud._cols, len(absent) - 1
    eps = math.exp(log_eps)
    cells = np.floor(shifted / eps + 1e-12)
    dropped = cells == np.floor(absent / eps + 1e-12)[cols]  # padding slots always are
    span_max = _DROPPED // (m + 1) - 1  # so span * (m + 1) < _DROPPED
    top = float(cells.max())
    if not top < span_max:  # nan and inf too
        least = max(float(shifted.max()) / (span_max - 1) * (1.0 + 1e-6), math.ulp(0.0))
        raise GeometryError(
            f"box side {eps:.6g} is below the smallest box side this cloud can count, "
            f"{least:.6g}: a smaller side's cells overflow the int64 box keys")
    keys = np.where(dropped, _DROPPED, cols * (int(top) + 1) + cells.astype(np.int64))
    keys = np.sort(keys, axis=1)
    keys = keys[np.lexsort(keys.T)]
    return 1 + int(np.count_nonzero(np.any(keys[1:] != keys[:-1], axis=1)))


def fractal_dimension_estimate(cloud: PointCloud, log_scales) -> DimensionScan:
    """Least-squares slope of log N_eps against log(1/eps) over the declared
    window of log scales, with per-scale local slopes for divergence
    detection.

    The counter is lattice box occupancy (clean slopes, same dimension as
    minimal ball covers); when the view's weighted slots are None, because
    some magnitude underflows doubles, it falls back to greedy ball
    covering in log space.
    """
    log_scales = sorted(log_scales, reverse=True)  # scales strictly decreasing
    if len(log_scales) < 4:
        raise GeometryError("need at least four scales in the window")
    if len(cloud) == 1:
        return DimensionScan(tuple(log_scales), (1,) * len(log_scales), 0.0, (),
                             "degenerate")
    counter = "boxes" if cloud.weighted_slots() is not None else "greedy"
    if counter == "boxes":
        counts = [box_count(cloud, log_eps=le) for le in log_scales]
    else:
        counts = [len(covering_number(cloud, log_eps=le, method=counter))
                  for le in log_scales]
    x = -np.asarray(log_scales)
    y = np.log(counts)
    return DimensionScan(tuple(log_scales), tuple(counts), line_fit(x, y),
                         tuple(local_slopes(x, y)), counter)


def doubling_factor(cloud: PointCloud, log_eps: float) -> int:
    """Worst case over data-point centers of the number of eps/2-balls needed
    to cover the eps-ball (eps = exp(log_eps)).

    One cover per distinct eps-ball: the distinct rows of the ball matrix
    are found by one sort of their packed bits, and visited from the most
    members down.  A repeated ball would repeat its cover, and once a ball
    has no more members than the worst cover so far, no later ball's cover
    can be larger, so the visit stops there.  Neither skip can change the
    max.  All covers share the cloud's one ball matrix at eps/2."""
    log_half = log_eps - math.log(2.0)
    ball = cloud.ball_matrix(log_eps)
    counts = ball.sum(axis=1)
    first = np.unique(np.packbits(ball, axis=1), axis=0, return_index=True)[1]
    worst = 1
    for i in first[np.argsort(-counts[first], kind="stable")]:
        if counts[i] <= worst:
            break
        worst = max(worst, len(covering_number(cloud, log_eps=log_half, method="auto",
                                               member_rows=np.flatnonzero(ball[i]))))
    return worst


def log_doubling_estimate(log_scales, log_d_values) -> dict:
    """Slope of the log doubling factors log D_eps against log log(1/eps),
    both listed from the largest scale down, plus a trend verdict:
    "diverging" certifies non-embeddability into any log-Lipschitz manifold,
    "finite" proves nothing (one-sided test)."""
    log_scales = sorted(log_scales, reverse=True)
    if len(log_scales) < 3:
        raise GeometryError("need at least three scales")
    if -log_scales[-1] < -log_scales[0] + 2.0 * math.log(10.0) - 1e-9:
        raise GeometryError("scales must span at least two decades")
    x = np.log(-np.asarray(log_scales, dtype=float))
    y = np.asarray(log_d_values, dtype=float)
    diverging = monotone_increase(y) and len(y) >= 3 and y[-1] > y[0]
    return {"estimate": line_fit(x, y), "verdict": "diverging" if diverging else "finite"}


def slopes_diverge(local_slopes) -> bool:
    """The section-4 verdict rule: at least three local slopes, the last
    more than 0.5 above the first."""
    return len(local_slopes) >= 3 and bool(local_slopes[-1] > local_slopes[0] + 0.5)


def _scan_tables(rows: list, cloud: PointCloud) -> tuple:
    """The dimension command's tables: rows (s, log_eps, N_eps, D_eps, local
    slope) as dimension_scan.csv, eps = exp(log_eps) put after s (0.0 below
    exp(-700)), D_eps an int or None, so a free column; and the cloud as
    cloud.csv."""
    return (("dimension_scan.csv", ("s", "eps", "log_eps", "n_eps", "d_eps", "local_slope"),
             [(s, math.exp(le) if le > -700 else 0.0, le, *rest) for s, le, *rest in rows],
             ("%.17g", "%.17g", "%.17g", "%d", None, "%.17g")),
            ("cloud.csv", CLOUD_HEADER, cloud_rows(cloud), CLOUD_FORMATS))


def sobolev_scan(cloud: PointCloud, s_list, log_scales, include_doubling: bool) -> Outcome:
    """The dimension command on a section-4 or file cloud: re-norm the cloud
    under each Sobolev index and re-run the box-counting estimate.  It reads
    "diverging" when some index's local slopes diverge (`slopes_diverge`),
    else "finite"; the constants hold each index's slope.  Its scan rows
    are one per index and scale, D_eps None without doubling and the first
    scale's local slope nan (`_scan_tables`).  A cloud too large for the
    doubling factors' log-distance matrix is refused before any scan."""
    if include_doubling and len(cloud) > _MATRIX_CAP:
        raise GeometryError(
            f"geometry.include_doubling needs the n x n log-distance matrix, capped at "
            f"{_MATRIX_CAP} points ({_MATRIX_CAP**2 * 8 // 10**6} MB of doubles); the cloud "
            f"has {len(cloud)} points")
    rows, slopes, diverging = [], {}, False
    for s in s_list:
        view = cloud.with_norm(s)
        scan = fractal_dimension_estimate(view, log_scales=log_scales)
        slopes[str(s)] = scan.slope
        diverging = diverging or slopes_diverge(scan.local_slopes)
        for le, cnt, sl in zip(scan.log_scales, scan.counts, (math.nan,) + scan.local_slopes):
            d_val = doubling_factor(view, le) if include_doubling else None
            rows.append((s, le, cnt, d_val, sl))
    return Outcome("diverging" if diverging else "finite", {"slopes": slopes},
                   tables=_scan_tables(rows, cloud), summary=())


def cube_doubling_report(cloud: PointCloud, levels: dict) -> dict:
    """The almost-cube lower bounds of each level n (vertex scale eps_n, cube
    width k = ceil(sqrt(n))), in closed form from its vertex structure.

    The structure check, O(2^k k) integer work and exact at any depth, asks
    that each coordinate the level's points store sit on a cube mode with
    sign +1 and log magnitude exactly log_eps, so each point is the vertex
    of {0, eps_n}^k named by its modes' bit mask; any other point fails the
    level.  In H^0 each vertex is exactly r_n eps_n from the cube centre,
    r_n = sqrt(k)/2 (all_in_ball).  Vertices are at least eps_n apart, so a closed eps_n/2
    ball centred at a vertex holds one, and the cover takes one ball per
    distinct mask (n_half_cover; count_bound_ok asks for 2^k).  Chaining
    over max(1, ceil(log2 r_n)) halvings gives log2 D >= log2(n_half_cover)
    / chain, checked against sqrt(n)/2.  "diverging" stands only when every
    level passes all three checks; "finite" certifies nothing.

    The count 2^k holds for vertex centres, as covering_number's data
    centres are, and for any centres below radius eps_n/2.  Free centres at
    eps_n/2 need exactly 2^(k-1): a ball of diameter eps_n holds at most one
    cube edge, as the cube graph has no triangles, and the edges of a
    perfect matching cover the cube.  So log2 D >= (k-1)/chain, which grows
    like sqrt(n) too."""
    if cloud.s != 0:
        raise GeometryError(f"the almost-cube bounds hold in H^0; the view has s = {cloud.s}")
    t = cloud.points
    per_level = []
    for n, info in sorted(levels.items()):
        k = cube_width(n)
        log_eps = info["log_eps"]
        rows = np.asarray(info["point_ids"], dtype=np.intp)
        modes = np.sort(np.asarray(info["cube_indices"], dtype=np.intp))
        # each row's run of entries in the (point, mode)-sorted table
        first = np.searchsorted(t.point, rows)
        stored = np.searchsorted(t.point, rows, side="right") - first
        at = np.arange(stored.sum()) + np.repeat(first - np.cumsum(stored) + stored, stored)
        bit = np.searchsorted(modes, t.mode[at])
        on_cube = modes[np.minimum(bit, len(modes) - 1)] == t.mode[at]
        # each point's bit mask, a sum of distinct powers of two: exact in doubles for k < 53
        masks = np.bincount(np.repeat(np.arange(len(rows)), stored)[on_cube],
                            np.ldexp(1.0, bit[on_cube]), len(rows))
        n_half = len(set(masks.tolist()))
        chain = max(1, math.ceil(math.log2(math.sqrt(k) / 2.0)))
        log2_d = math.log2(n_half) / chain
        per_level.append({
            "level": n,
            "vertices": len(rows),
            "log_eps": log_eps,
            "all_in_ball": bool(np.all(on_cube) and np.all(t.sign[at] == 1)
                                and np.all(t.log[at] == log_eps)),
            "n_half_cover": n_half,
            "count_bound_ok": n_half >= 2**k,
            "chain_length": chain,
            "log2_doubling_bound": log2_d,
            "half_sqrt_bound_ok": log2_d >= 0.5 * math.sqrt(n) - 1e-9,
        })
    estimate = log_doubling_estimate([l["log_eps"] for l in per_level],
                                     [l["log2_doubling_bound"] * math.log(2.0) for l in per_level])
    all_ok = all(l["count_bound_ok"] and l["half_sqrt_bound_ok"] and l["all_in_ball"]
                 for l in per_level)
    if not all_ok:
        estimate["verdict"] = "finite"
    return {"levels": per_level, "all_bounds_ok": all_ok, "log_doubling": estimate}


def cube_dimension(cloud: PointCloud, levels: dict) -> Outcome:
    """The dimension command on the bad-cube cloud: `cube_doubling_report`'s
    verdict, levels, log-doubling estimate and all_bounds_ok.  Its levels
    are written in `sobolev_scan`'s dimension_scan.csv columns: s is 0.0,
    n_eps holds the level's n_half_cover, d_eps is empty, and local_slope
    holds its log2_doubling_bound.  The cloud is written as cloud.csv."""
    cube = cube_doubling_report(cloud, levels)
    rows = [(0.0, lvl["log_eps"], lvl["n_half_cover"], None, lvl["log2_doubling_bound"])
            for lvl in cube["levels"]]
    return Outcome(cube["log_doubling"]["verdict"], {
        "levels": cube["levels"],
        "log_doubling_estimate": cube["log_doubling"]["estimate"],
        "all_bounds_ok": cube["all_bounds_ok"],
    }, tables=_scan_tables(rows, cloud), summary=())


def cloud_rows(cloud: PointCloud) -> ColumnTable:
    """The cloud as cloud.csv's rows (point_id, tag, mode_index, sign,
    logmag), CLOUD_HEADER and CLOUD_FORMATS: the coordinate table in its
    (point, mode) order, with a (0, 0, -inf) placeholder row put in at the
    position of each point that stores nothing.  The table is made
    reports.CSV_CHUNK table entries at a time, as five columns of Python
    ints, strs and floats: the `.tolist()` slices of the table's arrays
    with the chunk's placeholders inserted, and each row's tag looked up by
    its point."""
    return ColumnTable(lambda: _cloud_columns(cloud))


def _cloud_columns(cloud: PointCloud):
    from .reports import CSV_CHUNK  # reports imports this module

    t, tags = cloud.points, cloud.tags
    empty = np.flatnonzero(np.bincount(t.point, minlength=t.n) == 0).tolist()
    at = np.searchsorted(t.point, empty).tolist()  # the entry each placeholder goes before
    for a in range(0, len(t.point) + 1, CSV_CHUNK):
        b = a + CSV_CHUNK
        point, mode, sign, log = (x[a:b].tolist() for x in (t.point, t.mode, t.sign, t.log))
        for k in reversed(range(bisect_left(at, a), bisect_left(at, b))):
            i = at[k] - a
            point.insert(i, empty[k])
            mode.insert(i, 0)
            sign.insert(i, 0)
            log.insert(i, NEG_INF)
        yield [point, list(map(tags.__getitem__, point)), mode, sign, log]
