"""Coupled planar/parabolic systems: the super-exponential trajectory-pair
experiment checked against the shift walk's closing law, the high-mode kick
perturbation with its almost-cube point clouds, and the projected-attractor
sample."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoffs import BumpFunction, CutoffError, PeriodicDrive, mollifier_bump
from .floquet import (
    WeightedShift,
    closing_law,
    iterate_norm,
    make_periodic_operator,
    period_advance,
    poincare_predicted,
    ratio_bounds_check,
)
# lawson_rk4 and adaptive_simpson are not called here, but the layer tracer
# in perfbench/layers.py wraps these module bindings; drop them together.
from .integrators import lawson_rk4, lawson_rk4_adaptive, propagate_periods  # noqa: F401
from .geometry import NEG_INF, PLANAR_X, PLANAR_Y, CoordTable, PointCloud
from .quadrature import adaptive_simpson  # noqa: F401
from .spectral import Spectrum, cube_width, regime_bound

__all__ = [
    "SimulationError",
    "Scenario",
    "trajectory_pair_experiment",
    "KickOperator",
    "build_kick_operator",
    "bad_cube_cloud",
    "Section4Laws",
    "thm44_laws",
    "smooth_forcing_laws",
    "section4_attractor",
]

# Relative bound on the pair's log distance against the shift walk's, per period.
WALK_REL_TOL = 1e-9
# First level of the section-4 laws; thm44's log(log lambda_n) is -inf at n = 1.
FIRST_LEVEL = 2
# Section-4 sample: rings of the planar disk, and points per fibre segment.
DISK_RINGS = 24
SEGMENT_POINTS = 64
# Relative tolerance of the step doubling in `_window_kernel`.
KERNEL_TOL = 1e-12


class SimulationError(RuntimeError):
    """Scenario validation or integration failure."""


@dataclass(frozen=True)
class Scenario:
    """Full experiment description for the rotation-coupled system, built
    by `config.scenario_from_config` from a resolved config.

    Refuses an unbounded spectral gap, a Lipschitz budget at or below
    `regime_bound` = max(L0/2, lambda_1) (the regime the parity obstruction
    certifies), a kick window outside (0, 1) and kick levels out of order.
    """

    spectrum: Spectrum
    lipschitz_budget: float
    drive: PeriodicDrive
    n_trunc: int
    kick_base_level: int
    kick_max_level: int
    kick_window: float
    steps_per_period: int

    def __post_init__(self):
        bound = regime_bound(self.spectrum)
        if math.isinf(bound):
            raise SimulationError(
                "unbounded spectral gap: the rotation construction needs sup gaps finite"
            )
        if not self.lipschitz_budget > bound:
            raise SimulationError(
                f"Lipschitz budget {self.lipschitz_budget} must exceed "
                f"max(L0/2, lambda_1) = {bound}"
            )
        if not 0 < self.kick_window < 1:
            raise SimulationError("kick window width must lie in (0, 1)")
        if self.kick_base_level < 1 or self.kick_max_level < self.kick_base_level:
            raise SimulationError(
                f"kick levels must satisfy 1 <= n0 <= kick_max_level (got n0 "
                f"{self.kick_base_level}, kick_max_level {self.kick_max_level})")


def trajectory_pair_experiment(
    scenario: Scenario,
    n_periods: int = 6,
    rotation_on: bool = True,
) -> dict:
    """Integrate the pair u = (x, y, 0), v = (x, y, w), w(0) = e_1, over
    whole periods, and read the regime from the shift walk's closing law.

    The drive is periodic, so every period has the same one-period map P M:
    `floquet.period_advance` builds the two half-periods' 2x2 blocks once,
    at steps_per_period / 2 Lawson steps each over [0, 2T], and applies them
    to all periods' start columns at once.

    With the calibrated rotation the distance closes super-exponentially
    when the law's p exceeds 1.  Projecting onto the proven support pattern
    at period boundaries removes the double-precision round-off floor that
    would otherwise dominate once the relative decay gaps grow (the
    continuous solution is exactly zero on the projected coordinates).  The
    pair is then an oracle for the walk: its log distance must match the
    walk's at every period to WALK_REL_TOL relative, or SimulationError
    names the first period that fails.  The rotation-free control keeps
    mode 1, where its solution stays; it is never super-exponential and is
    not compared with the walk.
    """
    spec = scenario.spectrum
    if spec.n_max < 2 * n_periods + 3:
        raise SimulationError(
            f"{n_periods} periods need spectrum n_max >= {2 * n_periods + 3} "
            f"(got {spec.n_max})")
    # the shift moves mode 1 to mode 2k + 1 by period k (0-based position 2k)
    if rotation_on and scenario.n_trunc < 2 * n_periods + 1:
        raise SimulationError(
            f"{n_periods} periods need n_trunc >= {2 * n_periods + 1} "
            f"(got {scenario.n_trunc}): the orbit of mode 1 exits a smaller truncation")
    drive = scenario.drive
    op = make_periodic_operator(spec, drive, scenario.n_trunc,
                                epsilon=None if rotation_on else 0.0)
    advance = period_advance(op, scenario.steps_per_period)
    w0 = np.zeros(scenario.n_trunc)
    w0[0] = 1.0

    # one walk of mode 1's shift orbit gives the projected mode of each
    # period and the log distance it predicts; without the rotation mode 1
    # only decays, its other coordinates stay exact zeros and the projection
    # discards nothing
    walk = (iterate_norm(poincare_predicted(spec, drive.half_period), 1, n_periods)
            if rotation_on else None)
    modes = ([walk.orbit[k] - 1 for k in range(1, n_periods + 1)] if rotation_on
             else [0] * n_periods)
    log = propagate_periods(advance, w0, op.period, scenario.steps_per_period, modes)

    law = closing_law(spec, drive.half_period)
    walk_rel_err = None
    if rotation_on:
        errs = [abs(got - want) / -want for got, want in zip(log.lognorms[1:], walk.lognorms[1:])]
        for k, err in enumerate(errs, start=1):
            if not err <= WALK_REL_TOL:
                raise SimulationError(
                    f"period {k}: the pair's log distance {log.lognorms[k]:.17g} is off "
                    f"the shift walk's {walk.lognorms[k]:.17g} by {err:.3e} relative "
                    f"(WALK_REL_TOL {WALK_REL_TOL:g})")
        walk_rel_err = max(errs)
    return {
        "law": law,
        "superexponential": rotation_on and law.superexponential,
        "walk_rel_err": walk_rel_err,
        "epsilon": op.epsilon,
        "projection_discard_max": log.discard_max,
        "log": log,
    }


@dataclass(frozen=True)
class KickOperator:
    """The high-mode kick as the almost-cube cloud reads it: the deposit
    scale eps_n = e^{-beta n^2 / 2} B(n) of each level, beta the least
    quadratic separation rate over the levels.

    The window kernels of the cube modes (`_window_kernel`) are positive
    whenever the window's bump exists, and no output reads their values, so
    the kick no longer computes them: kernel_logs is always empty.  The
    field stays because the benchmark's layer tracer counts its entries."""

    kernel_logs: dict[int, float]
    eps_logs: dict[int, float]

    @staticmethod
    def cube_modes(level: int) -> list[int]:
        return [2 * (level + j) for j in range(1, cube_width(level) + 1)]


def _window_kernel(spec: Spectrum, mode: int, theta2, theta: BumpFunction,
                   drive: PeriodicDrive, kappa: float) -> float:
    """Deposit kernel of an even mode over the pre-period window: the unit
    response of w' = (-lambda_a + pair-mean correction) w + theta(x(t)),
    w(-kappa) = 0, evaluated at t = 0 by the same exponential stepper used
    in the simulations.  Each step doubling evaluates the cut-offs once, on
    its own stage grid -kappa + k h/2.  No command calls it; it stays while
    the benchmark's layer tracer wraps it, and the tests check it against
    the scalar cut-off rhs."""
    lam_a = spec.lam(mode)
    coupling = 0.5 * (lam_a - spec.lam(mode + 1))

    def rhs_for(steps):
        x = drive.value(np.linspace(-kappa, 0.0, 2 * steps + 1))
        a = coupling * theta2.value(x)
        b = theta.value(x)
        half = kappa / (2 * steps)

        def rhs(t, w):
            k = int(round((t + kappa) / half))
            return a[k] * w + b[k]

        return rhs

    out, _ = lawson_rk4_adaptive(np.array([lam_a]), rhs_for, np.zeros(1),
                                 -kappa, 0.0, tol=KERNEL_TOL, initial_steps=128)
    return float(out[0])


def _window_bump(drive: PeriodicDrive, kappa: float) -> BumpFunction | None:
    """The deposit profile theta on the drive's range [0, x(-kappa)] over the
    window [-kappa, 0], or None when x(-kappa) is too small in doubles for
    the bump's knots to be ordered (x(-kappa) rounds to 0 at small kappa)."""
    x_edge = float(drive.value(-kappa))
    try:
        return mollifier_bump(0.05 * x_edge, 0.95 * x_edge, 0.4 * x_edge, 0.6 * x_edge)
    except CutoffError:
        return None


def _smallest_window(drive: PeriodicDrive, kappa: float, t0: float) -> float | None:
    """The smallest window width in (kappa, t0] that carries the deposit bump,
    by bisection to 1e-12 of the half-period as `plateau_entry_time` does;
    None when not even t0 does.  The drive, and with it the bump's knots,
    grows with the width up to the plateau entry time t0."""
    if _window_bump(drive, t0) is None:
        return None
    lo, hi = kappa, t0
    while hi - lo > 1e-12 * drive.half_period:
        mid = 0.5 * (lo + hi)
        if _window_bump(drive, mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def build_kick_operator(scenario: Scenario, shift: WeightedShift) -> KickOperator:
    """Assemble the kick: the equalized deposit scale of each level and the
    runtime residual check that the base level is large enough (first-mode
    leftovers must stay well below the deposited scale).

    Before any numerics the window [-kappa, 0] must end before the plateau
    entry and must carry the deposit bump.  On it the drive is positive and
    monotone with range [0, x(-kappa)], which covers the bump's support, so
    every cube mode's window kernel is then positive."""
    drive = scenario.drive
    kappa = scenario.kick_window
    t0 = drive.plateau_entry_time()
    if kappa > t0:
        raise SimulationError(
            f"dynamics.kappa {kappa} must not exceed the plateau entry "
            f"time {t0:.6f}, otherwise the rotation is active during the deposit"
        )
    if _window_bump(drive, kappa) is None:
        least = _smallest_window(drive, kappa, t0)
        raise SimulationError(
            f"dynamics.kappa {kappa!r} puts the window edge at x(-kappa) = "
            f"{float(drive.value(-kappa))!r}, too small for the deposit bump's knots; "
            + (f"the smallest admissible dynamics.kappa is {least!r}" if least is not None
               else f"no dynamics.kappa up to the plateau entry time {t0!r} has one"))

    levels = range(scenario.kick_base_level, scenario.kick_max_level + 1)
    checks = {}
    for n in levels:
        checks[n] = ratio_bounds_check(shift, n)
        if checks[n]["beta"] <= 0:
            raise SimulationError(f"level {n}: no quadratic separation in the shift")
    beta = min(check["beta"] for check in checks.values())
    # B(n), the smallest band iterate norm, is the scale the band equalizes to
    eps_logs = {n: min(check["band_lognorms"].values()) - 0.5 * beta * n**2
                for n, check in checks.items()}

    # the first-mode leftover must stay a factor 100 below the deposit scale
    margin = math.log(100.0)
    ok = {n: check["first_mode_lognorm"] <= eps_logs[n] - margin
          for n, check in checks.items()}
    if not all(ok.values()):
        admissible = None
        for n0 in levels:
            if all(ok[m] for m in levels if m >= n0):
                admissible = n0
                break
        raise SimulationError(
            f"first-mode leftover exceeds the deposit scale; minimal admissible "
            f"base level is {admissible if admissible is not None else 'beyond the range'}"
        )
    return KickOperator({}, eps_logs)


def bad_cube_cloud(scenario: Scenario, shift: WeightedShift) -> tuple[PointCloud, dict]:
    """Almost-cube vertex cloud: for each level n all 2^ceil(sqrt(n)) vertices
    at scale eps_n = e^{-beta n^2/2} B(n) on modes 2(n+1)..2(n+sqrt(n)),
    generated analytically in log coordinates."""
    kick = build_kick_operator(scenario, shift)
    entries: list[tuple] = []  # (point, mode, sign, log) of the coordinate table
    tags: list[str] = []
    levels_meta: dict[int, dict] = {}
    for n in range(scenario.kick_base_level, scenario.kick_max_level + 1):
        k = cube_width(n)
        modes = kick.cube_modes(n)
        eps_log = kick.eps_logs[n]
        ids = list(range(len(tags), len(tags) + 2**k))
        for p in range(2**k):
            entries += [(len(tags), modes[j], 1, eps_log) for j in range(k) if (p >> j) & 1]
            tags.append(f"cube:n={n}:p={p}")
        levels_meta[n] = {"log_eps": eps_log, "point_ids": ids, "cube_indices": modes}
    max_mode = max(levels_meta[max(levels_meta)]["cube_indices"])
    spec = scenario.spectrum if scenario.spectrum.n_max >= max_mode else scenario.spectrum.truncated(max_mode)
    cloud = PointCloud(CoordTable.from_entries(len(tags), entries), spec, 0.0, tags)
    return cloud, {"levels": levels_meta}


@dataclass(frozen=True)
class Section4Laws:
    """Interval-length and fiber-height laws of the projected-attractor
    construction, as log-space callables of the level index."""

    log_a: object
    log_b: object
    log_lam: object


def thm44_laws() -> Section4Laws:
    """lambda_n = n^2, A_n = lambda^(-1/2) (log lambda)^(-2), B_n = A_n / log
    lambda: the finite-smoothness laws whose attractor dimension grows past
    s = 2."""
    log_lam = lambda n: 2.0 * np.log(n)
    log_a = lambda n: -0.5 * log_lam(n) - 2.0 * np.log(log_lam(n))
    log_b = lambda n: log_a(n) - np.log(log_lam(n))
    return Section4Laws(log_a, log_b, log_lam)


def smooth_forcing_laws(n_max: int) -> Section4Laws:
    """B_n = e^{-sqrt n} with A_n = c / n^2 packed to total 2 pi - 0.1 and
    lambda_n = n^2: the infinitely smooth variant."""
    n = np.arange(FIRST_LEVEL, n_max + 1, dtype=float)
    c = (2.0 * math.pi - 0.1) / float(np.sum(1.0 / n**2))
    log_a = lambda n: math.log(c) - 2.0 * np.log(n)
    log_b = lambda n: -np.sqrt(n)
    log_lam = lambda n: 2.0 * np.log(n)
    return Section4Laws(log_a, log_b, log_lam)


def section4_attractor(laws: Section4Laws, spec: Spectrum, n_max: int,
                       beta_scale: float = 1.0) -> tuple[PointCloud, dict]:
    """Analytic attractor sample: the planar disk on DISK_RINGS rings, the
    per-level equilibria (cos phi_n, sin phi_n, B_n / lambda_n e_n), and the
    connecting segments, SEGMENT_POINTS points each, discretized
    geometrically toward zero.

    The coordinate table is filled directly in (point, mode) order: each
    point's y, x and fibre coordinates, a zero one left out.  The cosines,
    sines, logs and per-level law calls stay scalar (`math`, one-element
    arrays), because numpy's vector paths for the transcendental functions
    may round differently by an ulp, and every cloud coordinate is written
    to cloud.csv at 17 digits; the fibre logs top_log - 0.25 j are one
    array subtraction, the same IEEE operation as a scalar one.  The report
    is empty."""
    ns = np.arange(FIRST_LEVEL, n_max + 1, dtype=float)
    a_n = np.exp(laws.log_a(ns))
    total = float(np.sum(a_n))
    if total >= 2.0 * math.pi:
        raise SimulationError(f"interval lengths sum to {total:.4f} >= 2 pi")
    b_n = np.exp(laws.log_b(ns))
    if np.any(np.diff(b_n) >= 0):
        raise SimulationError("fiber heights must decrease monotonically")
    edges = np.concatenate([[0.0], np.cumsum(a_n)])
    phis = 0.5 * (edges[:-1] + edges[1:])

    # the (sign, log) of y and x at every disk point, the origin last
    disk = []
    for i in range(1, DISK_RINGS + 1):
        r = i / DISK_RINGS
        m = max(6, int(round(2.0 * math.pi * r * DISK_RINGS)))
        for j in range(m):
            ang = 2.0 * math.pi * j / m
            disk.append((_signed_log(r * math.sin(ang)), _signed_log(r * math.cos(ang))))
    disk.append(((0, NEG_INF), (0, NEG_INF)))
    tags = ["cone"] * len(disk)

    # one row per point of (y, x, fibre) columns, modes ascending; sign 0
    # marks a zero coordinate, which is not stored
    per_level = SEGMENT_POINTS + 1
    rows = len(disk) + per_level * len(ns)
    mode = np.zeros((rows, 3), dtype=np.intp)
    mode[:, 0], mode[:, 1] = PLANAR_Y, PLANAR_X
    sign = np.zeros((rows, 3), dtype=np.intp)
    log = np.full((rows, 3), NEG_INF)
    planar = np.array(disk)
    sign[:len(disk), :2], log[:len(disk), :2] = planar[..., 0], planar[..., 1]

    log_beta = math.log(beta_scale)
    # geometric spacing toward the base
    steps = 0.25 * np.arange(SEGMENT_POINTS)
    for idx, n in enumerate(ns.astype(int)):
        top_log = float(laws.log_b(np.array([float(n)]))[0]) - float(
            laws.log_lam(np.array([float(n)]))[0]
        ) + log_beta
        start = len(disk) + idx * per_level
        # the level's equilibrium, segment points and base; the base stores no fibre
        level, fibre = slice(start, start + per_level), slice(start, start + SEGMENT_POINTS)
        phi = phis[idx]
        sign[level, 1], log[level, 1] = _signed_log(math.cos(phi))
        sign[level, 0], log[level, 0] = _signed_log(math.sin(phi))
        mode[fibre, 2], sign[fibre, 2], log[fibre, 2] = n, 1, top_log - steps
        tags.append(f"equilibrium:n={n}")
        tags += [f"segment:n={n}:j={j}" for j in range(1, SEGMENT_POINTS)]
        tags.append(f"segment:n={n}:base")

    point, slot = np.nonzero(sign)
    table = CoordTable(rows, point, mode[point, slot], sign[point, slot], log[point, slot])
    full_spec = spec if spec.n_max >= n_max else spec.truncated(n_max)
    return PointCloud(table, full_spec, 0.0, tags), {}


def _signed_log(v: float) -> tuple[int, float]:
    if v == 0.0:
        return (0, NEG_INF)
    return (1 if v > 0 else -1, math.log(abs(v)))
