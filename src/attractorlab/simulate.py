"""Coupled planar/parabolic systems: the super-exponential trajectory-pair
experiment, the high-mode kick perturbation with its almost-cube point
clouds, the projected-attractor sample, and the log-Lipschitz modulus."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoffs import BumpFunction, PeriodicDrive, mollifier_bump, smooth_step
from .fits import line_fit, monotone_increase, quadratic_fit
from .floquet import (
    WeightedShift,
    iterate_norm,
    make_periodic_operator,
    poincare_predicted,
    ratio_bounds_check,
)
# lawson_rk4 and adaptive_simpson are not called here, but the layer tracer
# in perfbench/layers.py wraps these module bindings; drop them together.
from .integrators import lawson_rk4, lawson_rk4_adaptive, propagate_periods  # noqa: F401
from .logspace import NEG_INF, PLANAR_X, PLANAR_Y, LogModeVector
from .geometry import PointCloud
from .quadrature import adaptive_simpson  # noqa: F401
from .spectral import Spectrum, cube_width, regime_bound

__all__ = [
    "SimulationError",
    "Scenario",
    "TrajectoryRecord",
    "trajectory_pair_experiment",
    "KickOperator",
    "build_kick_operator",
    "bad_cube_cloud",
    "Section4Laws",
    "thm44_laws",
    "smooth_forcing_laws",
    "section4_attractor",
    "log_lipschitz_modulus",
]

# Relative bound on |kappa_fit - kappa_expected| for `consistent_with_shift`.
KAPPA_REL_TOL = 1e-6


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


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory: unit-scale dense mode states plus the running log
    factor, so norms stay exact far below double range."""

    times: np.ndarray
    states: list[np.ndarray]
    logscales: np.ndarray
    spectrum: Spectrum

    def lognorm(self, k: int, s: float = 0.0) -> float:
        w = self.states[k]
        lam = self.spectrum.values[: len(w)]
        val = float(np.linalg.norm(lam ** (0.5 * s) * w))
        return NEG_INF if val == 0.0 else self.logscales[k] + math.log(val)

    def a_lognorm(self, k: int, s: float = 0.0) -> float:
        w = self.states[k]
        lam = self.spectrum.values[: len(w)]
        val = float(np.linalg.norm(lam ** (1.0 + 0.5 * s) * w))
        return NEG_INF if val == 0.0 else self.logscales[k] + math.log(val)

    def mode_point(self, k: int) -> LogModeVector:
        return LogModeVector.from_dense(self.states[k]).scaled(self.logscales[k])


def trajectory_pair_experiment(
    scenario: Scenario,
    n_periods: int = 6,
    rotation_on: bool = True,
) -> dict:
    """Integrate the pair u = (x, y, 0), v = (x, y, w), w(0) = e_1, and fit
    -log ||u - v|| ~ kappa t^2 + b t + c over whole periods.

    With the calibrated rotation the distance closes super-exponentially;
    projecting onto the proven support pattern at period boundaries removes
    the double-precision round-off floor that would otherwise dominate once
    the relative decay gaps grow (the continuous solution is exactly zero on
    the projected coordinates).  The rotation-free control runs unprojected
    and reports an exponential-only verdict.
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
    period = op.period
    rhs = op.tabulated_rhs(0.0, n_periods * period,
                           n_periods * scenario.steps_per_period)
    w0 = np.zeros(scenario.n_trunc)
    w0[0] = 1.0

    # one walk of mode 1's shift orbit gives the projection schedule and the
    # predicted curvature
    walk = (iterate_norm(poincare_predicted(spec, drive.half_period), 1, n_periods)
            if rotation_on else None)
    schedule = (lambda k: {walk.orbit[k] - 1}) if rotation_on else None
    log = propagate_periods(op.lam, rhs, w0, period, n_periods,
                            scenario.steps_per_period, support_schedule=schedule)

    times = log.times
    y = -log.lognorms
    kappa, _, _, r_squared = quadratic_fit(times, y)
    if rotation_on:
        sums = walk.lognorms
        beta_pred = -(sums[n_periods] - 2.0 * sums[n_periods - 1] + sums[n_periods - 2]) / 2.0
    else:
        beta_pred = 0.0
    kappa_expected = beta_pred / period**2
    # the regime verdict compares the two pure-power line fits
    fit_t2 = line_fit(times**2, y)
    fit_t = line_fit(times, y)
    exponential_only = (not rotation_on) or fit_t2.slope <= 1e-12 or fit_t.r_squared > fit_t2.r_squared
    consistent = (
        not exponential_only
        and kappa_expected > 0
        and abs(kappa - kappa_expected) <= KAPPA_REL_TOL * kappa_expected
    )
    record = TrajectoryRecord(times, log.states, log.lognorms, spec)
    return {
        "kappa_fit": kappa,
        "r_squared": r_squared,
        "kappa_expected": kappa_expected,
        "consistent_with_shift": consistent,
        "exponential_only": exponential_only,
        "window": (float(times[0]), float(times[-1])),
        "projected": log.projection_applied,
        "epsilon": op.epsilon,
        "record": record,
        "distance_logs": list(map(float, log.lognorms)),
    }


@dataclass(frozen=True)
class KickOperator:
    """The high-mode kick as the almost-cube cloud reads it: the quadratic
    separation rate beta, the deposit scale eps_n = e^{-beta n^2 / 2} B(n)
    of each level, the first-mode residual check, and the window-kernel
    logs of the cube modes."""

    beta: float
    kernel_logs: dict[int, float]
    eps_logs: dict[int, float]
    residual_report: dict

    @staticmethod
    def cube_modes(level: int) -> list[int]:
        return [2 * (level + j) for j in range(1, cube_width(level) + 1)]


def _window_kernel(spec: Spectrum, mode: int, theta2, theta: BumpFunction,
                   drive: PeriodicDrive, kappa: float, tol: float = 1e-12) -> float:
    """Deposit kernel of an even mode over the pre-period window: the unit
    response of w' = (-lambda_a + pair-mean correction) w + theta(x(t)),
    w(-kappa) = 0, evaluated at t = 0 by the same exponential stepper used
    in the simulations."""
    lam_a = spec.lam(mode)
    lam_b = spec.lam(mode + 1)

    def rhs(t, w):
        x = float(drive.value(t))
        return 0.5 * (lam_a - lam_b) * float(theta2.value(x)) * w + float(theta.value(x))

    out, _ = lawson_rk4_adaptive(np.array([lam_a]), rhs, np.zeros(1),
                                 -kappa, 0.0, tol=tol, initial_steps=128)
    return float(out[0])


def build_kick_operator(scenario: Scenario, shift: WeightedShift) -> KickOperator:
    """Assemble the kick: the equalized deposit scale of each level, the
    window kernel of each distinct cube mode, and the runtime residual check
    that the base level is large enough (first-mode leftovers must stay well
    below the deposited scale)."""
    drive = scenario.drive
    theta2 = smooth_step(0.0, drive.amplitude / 4.0)
    t0 = drive.plateau_entry_time(0.25)
    if scenario.kick_window > t0:
        raise SimulationError(
            f"kick window {scenario.kick_window} must not exceed the plateau entry "
            f"time {t0:.6f}, otherwise the rotation is active during the deposit"
        )
    x_edge = float(drive.value(-scenario.kick_window))
    theta = mollifier_bump(0.05 * x_edge, 0.95 * x_edge, 0.4 * x_edge, 0.6 * x_edge)

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

    residuals = {}
    margin = math.log(100.0)
    for n, check in checks.items():
        leftover = check["first_mode_lognorm"]
        residuals[n] = {
            "leftover_log": leftover,
            "eps_log": eps_logs[n],
            "ok": leftover <= eps_logs[n] - margin,
        }
    if not all(r["ok"] for r in residuals.values()):
        admissible = None
        for n0 in levels:
            if all(residuals[m]["ok"] for m in levels if m >= n0):
                admissible = n0
                break
        raise SimulationError(
            f"first-mode leftover exceeds the deposit scale; minimal admissible "
            f"base level is {admissible if admissible is not None else 'beyond the range'}"
        )

    # No output reads kernel_logs; the benchmark's layer tracer counts them.
    kernel_logs: dict[int, float] = {}
    for n in levels:
        for mode in KickOperator.cube_modes(n):
            if mode not in kernel_logs:
                kernel = _window_kernel(scenario.spectrum, mode, theta2, theta,
                                        drive, scenario.kick_window)
                if kernel <= 0:
                    raise SimulationError("kick kernel vanished; empty window support")
                kernel_logs[mode] = math.log(kernel)
    return KickOperator(beta, kernel_logs, eps_logs,
                        {"levels": residuals, "margin_log": margin})


def bad_cube_cloud(scenario: Scenario, shift: WeightedShift) -> tuple[PointCloud, dict]:
    """Almost-cube vertex cloud: for each level n all 2^ceil(sqrt(n)) vertices
    at scale eps_n = e^{-beta n^2/2} B(n) on modes 2(n+1)..2(n+sqrt(n)),
    generated analytically in log coordinates."""
    kick = build_kick_operator(scenario, shift)
    points: list[LogModeVector] = []
    tags: list[str] = []
    levels_meta: dict[int, dict] = {}
    for n in range(scenario.kick_base_level, scenario.kick_max_level + 1):
        k = cube_width(n)
        modes = kick.cube_modes(n)
        eps_log = kick.eps_logs[n]
        ids = []
        for p in range(2**k):
            entries = {}
            for j in range(1, k + 1):
                if (p >> (j - 1)) & 1:
                    entries[modes[j - 1]] = (1, eps_log)
            ids.append(len(points))
            points.append(LogModeVector(entries))
            tags.append(f"cube:n={n}:p={p}")
        levels_meta[n] = {"log_eps": eps_log, "point_ids": ids, "cube_indices": modes}
    max_mode = max(levels_meta[max(levels_meta)]["cube_indices"])
    spec = scenario.spectrum if scenario.spectrum.n_max >= max_mode else scenario.spectrum.truncated(max_mode)
    cloud = PointCloud(points, spec, 0.0, tags)
    return cloud, {"levels": levels_meta, "beta": kick.beta,
                   "residuals": kick.residual_report}


@dataclass(frozen=True)
class Section4Laws:
    """Interval-length and fiber-height laws of the projected-attractor
    construction, as log-space callables of the level index."""

    name: str
    log_a: object
    log_b: object
    log_lam: object
    n_min: int = 2


def thm44_laws() -> Section4Laws:
    """lambda_n = n^2, A_n = lambda^(-1/2) (log lambda)^(-2), B_n = A_n / log
    lambda: the finite-smoothness laws whose attractor dimension grows past
    s = 2."""
    log_lam = lambda n: 2.0 * np.log(n)
    log_a = lambda n: -0.5 * log_lam(n) - 2.0 * np.log(log_lam(n))
    log_b = lambda n: log_a(n) - np.log(log_lam(n))
    return Section4Laws("thm44", log_a, log_b, log_lam)


def smooth_forcing_laws(n_max: int, kappa: float = 2.0) -> Section4Laws:
    """B_n = e^{-sqrt n} with A_n = c / n^2 packed to total 2 pi - 0.1: the
    infinitely smooth variant (criterion holds at every order)."""
    n = np.arange(2, n_max + 1, dtype=float)
    c = (2.0 * math.pi - 0.1) / float(np.sum(1.0 / n**2))
    log_a = lambda n: math.log(c) - 2.0 * np.log(n)
    log_b = lambda n: -np.sqrt(n)
    log_lam = lambda n: kappa * np.log(n)
    return Section4Laws("smooth", log_a, log_b, log_lam)


def section4_attractor(laws: Section4Laws, spec: Spectrum, n_max: int,
                       beta_scale: float = 1.0, disk_rings: int = 24,
                       segment_points: int = 64) -> tuple[PointCloud, dict]:
    """Analytic attractor sample: the planar disk, the per-level equilibria
    (cos phi_n, sin phi_n, B_n / lambda_n e_n), and the connecting segments
    discretized geometrically toward zero."""
    ns = np.arange(laws.n_min, n_max + 1, dtype=float)
    a_n = np.exp(laws.log_a(ns))
    total = float(np.sum(a_n))
    if total >= 2.0 * math.pi:
        raise SimulationError(f"interval lengths sum to {total:.4f} >= 2 pi")
    b_n = np.exp(laws.log_b(ns))
    if np.any(np.diff(b_n) >= 0):
        raise SimulationError("fiber heights must decrease monotonically")
    edges = np.concatenate([[0.0], np.cumsum(a_n)])
    phis = 0.5 * (edges[:-1] + edges[1:])

    points: list[LogModeVector] = []
    tags: list[str] = []

    for i in range(1, disk_rings + 1):
        r = i / disk_rings
        m = max(6, int(round(2.0 * math.pi * r * disk_rings)))
        for j in range(m):
            ang = 2.0 * math.pi * j / m
            points.append(LogModeVector({
                PLANAR_X: _signed_log(r * math.cos(ang)),
                PLANAR_Y: _signed_log(r * math.sin(ang)),
            }))
            tags.append("cone")
    points.append(LogModeVector({}))
    tags.append("cone")

    log_beta = math.log(beta_scale)
    fiber_logs = {}
    for idx, n in enumerate(ns.astype(int)):
        phi = phis[idx]
        top_log = float(laws.log_b(np.array([float(n)]))[0]) - float(
            laws.log_lam(np.array([float(n)]))[0]
        ) + log_beta
        fiber_logs[n] = top_log
        px = _signed_log(math.cos(phi))
        py = _signed_log(math.sin(phi))
        points.append(LogModeVector({PLANAR_X: px, PLANAR_Y: py, int(n): (1, top_log)}))
        tags.append(f"equilibrium:n={n}")
        for j in range(1, segment_points):
            pt_log = top_log - 0.25 * j  # geometric spacing toward the base
            points.append(LogModeVector({PLANAR_X: px, PLANAR_Y: py, int(n): (1, pt_log)}))
            tags.append(f"segment:n={n}:j={j}")
        points.append(LogModeVector({PLANAR_X: px, PLANAR_Y: py}))
        tags.append(f"segment:n={n}:base")

    full_spec = spec if spec.n_max >= n_max else spec.truncated(n_max)
    cloud = PointCloud(points, full_spec, 0.0, tags)
    report = {
        "interval_sum": total,
        "levels": list(map(int, ns)),
        "anchors": dict(zip(map(int, ns), map(float, phis))),
        "fiber_logs": fiber_logs,
        "laws": laws.name,
    }
    return cloud, report


def _signed_log(v: float) -> tuple[int, float]:
    if v == 0.0:
        return (0, NEG_INF)
    return (1 if v > 0 else -1, math.log(abs(v)))


def log_lipschitz_modulus(distance_logs, a_distance_logs, gamma: float,
                          c0_log: float | None = None) -> dict:
    """Sup over samples of ||A(u1-u2)|| / (d (log(C0/d))^gamma), in log space.

    Zero-distance samples are skipped and flagged; the verdict reports
    whether the running ratio stabilizes (bounded modulus) or trends upward
    (modulus violated, e.g. plain Lipschitz against super-exponential
    closing).
    """
    d = np.asarray(distance_logs, dtype=float)
    ad = np.asarray(a_distance_logs, dtype=float)
    keep = np.isfinite(d) & np.isfinite(ad)
    skipped = int(np.sum(~keep))
    d, ad = d[keep], ad[keep]
    if len(d) == 0:
        return {"ratios_log": [], "sup_log": None, "verdict": "empty",
                "skipped_samples": skipped, "gamma": gamma}
    if c0_log is None:
        c0_log = float(np.max(d)) + 1.0
    loglog = np.log(c0_log - d)
    ratios = ad - d - gamma * loglog
    upward = monotone_increase(ratios) and len(ratios) >= 4 and ratios[-1] > ratios[0] + 0.5
    return {
        "ratios_log": list(map(float, ratios)),
        "sup_log": float(np.max(ratios)),
        "verdict": "divergent" if upward else "bounded",
        "skipped_samples": skipped,
        "gamma": gamma,
        "c0_log": c0_log,
    }
