import math
import random

import numpy as np
import pytest

from attractorlab.cutoffs import PeriodicDrive
from attractorlab.floquet import make_periodic_operator, poincare_predicted
from attractorlab.geometry import CoordTable, PointCloud
from attractorlab.spectral import make_spectrum, site_pairs


def dict_cloud(points, spectrum=None, s=0.0, tags=None) -> PointCloud:
    """A cloud from one {mode: (sign, log magnitude)} dict per point, each
    entry a stored coordinate."""
    entries = [(p, i, sign, log) for p, point in enumerate(points)
               for i, (sign, log) in point.items()]
    return PointCloud(CoordTable.from_entries(len(points), entries), spectrum, s, tags or [])


def point_dicts(cloud) -> list[dict]:
    """Inverse of dict_cloud: one {mode: (sign, log magnitude)} dict per
    point of the cloud's coordinate table, with Python numbers."""
    t = cloud.points
    dicts = [{} for _ in range(t.n)]
    for p, i, sign, log in zip(t.point.tolist(), t.mode.tolist(), t.sign.tolist(),
                               t.log.tolist()):
        dicts[p][i] = (sign, log)
    return dicts


@pytest.fixture(scope="session")
def linear_spectrum_big():
    return make_spectrum("linear", {"c": 1.0}, 300)


def almost_cube_cloud(last_level: int) -> PointCloud:
    """Seeded almost-cube cloud, after perfbench/gen_cover.py: level n
    (4..last_level) gives all 2^k vertices, k = ceil(sqrt(n)), of a cube on
    modes 2(n+1)..2(n+k) at log scale -0.35 n, each coordinate jittered in
    log magnitude by up to 0.05.  One more point sits on mode 34 far below
    double range (log magnitude near -800), so box counting cannot represent
    the cloud."""
    rng = random.Random(16)
    points, tags = [], []
    for n in range(4, last_level + 1):
        k = math.ceil(math.sqrt(n))
        for p in range(2**k):
            bits = [j for j in range(1, k + 1) if (p >> (j - 1)) & 1]
            points.append({2 * (n + j): (1, -0.35 * n + rng.uniform(-0.05, 0.05))
                           for j in bits})
            tags.append(f"cube:n={n}:p={p}")
    points.append({34: (1, -800.0 + rng.uniform(-0.05, 0.05))})
    tags.append("deep")
    return dict_cloud(points, tags=tags)


@pytest.fixture(scope="session")
def cube_vertex_cloud():
    """The almost-cube cloud of levels 4..12 (93 points).  At eps from 0.3
    down to 0.02 some eps-balls hold more than 24 members (up to all 93), so
    doubling covers take the greedy branch, and the cube symmetry repeats
    balls and ties the greedy gains."""
    return almost_cube_cloud(12)


@pytest.fixture(scope="session")
def shift_t1(linear_spectrum_big):
    return poincare_predicted(linear_spectrum_big, 1.0)


@pytest.fixture(scope="session")
def operator_t2():
    spec = make_spectrum("linear", {"c": 1.0}, 12)
    drive = PeriodicDrive(1.0, 2.0, 0.75)
    return make_periodic_operator(spec, drive, 12)


def dense_log_columns(matrix) -> tuple:
    """A dense map's columns as the signed logs (rows, sign, log) that
    `phases.poincare_columns` gives, every row an entry, so
    `shift_match_report` reads the numeric oracle as it reads the closed
    form."""
    rows = np.broadcast_to(np.arange(matrix.shape[0])[:, None], matrix.shape)
    with np.errstate(divide="ignore"):
        return rows, np.sign(matrix), np.log(np.abs(matrix))


def coefficient_rows(op, t):
    """Phi's four coefficient rows (tm, r1m, tp, r1p) at the times t, from
    the operator's drive, cut-offs and epsilon alone: theta2(-x), eps
    theta1(-x), theta2(x) and eps theta1(x), x the drive at t."""
    x = op.drive.value(t)
    return (op.theta2.value(-x), op.epsilon * op.theta1.value(-x),
            op.theta2.value(x), op.epsilon * op.theta1.value(x))


def dense_templates(op):
    """Phi's four constant n x n templates (D-, R-, D+, R+), so that Phi(t) =
    theta2(-x) D- + eps theta1(-x) R- + theta2(x) D+ + eps theta1(x) R+: the
    dense form that `PeriodicOperator.tabulated_rhs` applies through its
    diagonals and signed gathers."""
    lam = op.lam
    n = op.n_modes
    dm, rm, dp, rp = (np.zeros((n, n)) for _ in range(4))
    dp[0, 0] = 0.5 * lam[0] * op.anchor_scale
    for d, r, site in ((dm, rm, "minus"), (dp, rp, "plus")):
        a, b = site_pairs(n, site)
        half_gap = 0.5 * (lam[a] - lam[b])
        d[a, a] += half_gap
        d[b, b] -= half_gap
        r[a, b] = 1.0
        r[b, a] = -1.0
    return dm, rm, dp, rp


@pytest.fixture(scope="session")
def one_column_rhs():
    """Builder of a one-column rhs over any window, both halves' terms at
    every stage: Phi(t) u as four dense matmuls, with the coefficients of
    `coefficient_rows` on the stage grid np.linspace(t0, t1, 2 steps + 1),
    the stage read as round((t - t0) / (h / 2)).  The oracles step vectors
    and dense matrices with it."""

    def build(op, t0, t1, steps):
        dm, rm, dp, rp = dense_templates(op)
        stages = 2 * steps
        tm, r1m, tp, r1p = coefficient_rows(op, np.linspace(t0, t1, stages + 1))
        half = (t1 - t0) / stages

        def rhs(t, u):
            k = int(round((t - t0) / half))
            return tm[k] * (dm @ u) + r1m[k] * (rm @ u) + tp[k] * (dp @ u) + r1p[k] * (rp @ u)

        return rhs

    return build
