"""The bad-cube kick builds without its window kernels and with one drive
evaluation; the kernels, as the kick passed them on the `cubes` scenario,
against the scalar cut-off rhs their tabulated rhs replaced, and one drive
evaluation per step doubling."""

import numpy as np
import pytest

from attractorlab import simulate as sim
from attractorlab.config import resolve_config, scenario_from_config
from attractorlab.cutoffs import PeriodicDrive, SmoothStep
from attractorlab.floquet import poincare_predicted
from attractorlab.integrators import lawson_rk4

# The `cubes` scenario: kick levels 4..6, cube modes 10..18.
CUBES = {
    "spectrum": {"family": "linear", "n_max": 32, "params": {"c": 1.0}},
    "drive": {"tau": 0.5},
    "dynamics": {"L": 3.0, "n0": 4, "kick_max_level": 6, "kappa": 0.04},
    "geometry": {"cloud": {"kind": "bad_cubes"}},
}
# Where the kernels' step doubling stops on this scenario: 128 -> 1024.
FINAL_STEPS = 1024
DOUBLING_LEVELS = 4


def cubes_kick():
    scen = scenario_from_config(resolve_config(CUBES))
    return scen, poincare_predicted(scen.spectrum, scen.drive.half_period)


def test_kick_builds_without_window_kernels(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("window kernel solved while the kick was built")

    monkeypatch.setattr(sim, "_window_kernel", refused)
    monkeypatch.setattr(sim, "lawson_rk4_adaptive", refused)
    kick = sim.build_kick_operator(*cubes_kick())
    assert kick.kernel_logs == {}


def test_kick_evaluates_drive_once(monkeypatch):
    # the window edge x(-kappa) of `_window_bump`; the plateau entry time is
    # closed form, so a scalar root search would show here as more calls
    drive_value = PeriodicDrive.value
    calls = []

    def counted_value(self, t):
        calls.append(t)
        return drive_value(self, t)

    scen, shift = cubes_kick()
    monkeypatch.setattr(PeriodicDrive, "value", counted_value)
    sim.build_kick_operator(scen, shift)
    assert calls == [-scen.kick_window]


@pytest.fixture(scope="module")
def kernel_calls():
    """(arguments, value, drive evaluations made inside) of `_window_kernel`
    on each distinct cube mode of the `cubes` scenario, in the order and with
    the cut-offs the kick passed before it stopped computing the kernels."""
    scen, _ = cubes_kick()
    drive, kappa = scen.drive, scen.kick_window
    theta2 = SmoothStep(0.0, drive.amplitude / 4.0)
    theta = sim._window_bump(drive, kappa)
    modes = dict.fromkeys(mode for n in range(scen.kick_base_level, scen.kick_max_level + 1)
                          for mode in sim.KickOperator.cube_modes(n))
    drive_value = PeriodicDrive.value
    calls, inside = [], []

    def counted_value(self, t):
        if inside:
            inside[-1] += 1
        return drive_value(self, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PeriodicDrive, "value", counted_value)
        for mode in modes:
            args = (scen.spectrum, mode, theta2, theta, drive, kappa)
            inside.append(0)
            value = sim._window_kernel(*args)
            calls.append((args, value, inside.pop()))
    return calls


def test_window_kernel_matches_scalar_rhs(kernel_calls):
    assert [args[1] for args, _, _ in kernel_calls] == [10, 12, 14, 16, 18]
    for (spec, mode, theta2, theta, drive, kappa), value, _ in kernel_calls:
        lam_a, lam_b = spec.lam(mode), spec.lam(mode + 1)

        def rhs(t, w):
            x = float(drive.value(t))
            return 0.5 * (lam_a - lam_b) * float(theta2.value(x)) * w + float(theta.value(x))

        ref = float(lawson_rk4(np.array([lam_a]), rhs, np.zeros(1), -kappa, 0.0,
                               FINAL_STEPS)[0])
        assert abs(value - ref) <= 1e-12 * ref


def test_window_kernel_evaluates_drive_once_per_doubling(kernel_calls):
    # the scalar rhs evaluated the drive 4 times per step: 7,680 calls per kernel
    assert [count for _, _, count in kernel_calls] == [DOUBLING_LEVELS] * 5
