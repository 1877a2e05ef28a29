"""End-to-end runs of every command through `cli.main`, plus the config
checks that refuse a run before any numerics start.  The `floquet` and
`simulate` runs share one small linear c=1 spectrum and run twice each."""

import hashlib
import importlib.util
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab import cli, integrators, quadrature
from attractorlab import floquet as fl
from attractorlab import geometry as geo
from attractorlab import phases
from attractorlab import simulate as sim
from attractorlab.config import (KEYS, ConfigError, dimension_from_config, drive_from_config,
                                 resolve_config, scenario_from_config, spectrum_from_config)
from attractorlab.cutoffs import PeriodicDrive
from attractorlab.geometry import PLANAR_X, PLANAR_Y, PointCloud, cloud_rows
from attractorlab.integrators import PROJECTION_GUARD
from attractorlab.phases import floquet_check
from attractorlab.reports import CSV_CHUNK, load_cloud_csv, unmet_expectation, write_csv
from attractorlab.spectral import gap_check, make_spectrum
from conftest import dense_log_columns, dict_cloud, point_dicts

LINEAR = {"family": "linear", "n_max": 16, "params": {"c": 1.0}}
SCAN_CSVS = ("dimension_scan.csv", "cloud.csv")
SMALL_SECTION4 = {
    "spectrum": {"family": "quadratic", "n_max": 12},
    "geometry": {"cloud": {"kind": "section4", "n_max": 12},
                 "s_list": [0, 2], "scales": "1e-1:1e-3:4"}}
SMALL_DYNAMICS = {
    "spectrum": {"family": "linear", "n_max": 14, "params": {"c": 1.0}},
    "dynamics": {"n_trunc": 8, "n_periods": 3, "steps_per_period": 1024},
    "expectations": {"gap_check": "obstruction", "floquet": "pattern_ok",
                     "simulate": "superexponential"},
}


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layers():
    """perfbench/layers.py, the benchmark's layer tracer, as a module."""
    path = os.path.join(REPO, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def write_config(path, cfg) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return str(path)


def run(cfg_path, out, command, *extra) -> int:
    return cli.main(["--config", cfg_path, "--out", str(out), *extra, command])


def report(out, command) -> dict:
    with open(os.path.join(out, f"{command}_report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(out, names=SCAN_CSVS) -> dict:
    got = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            got[name] = fh.read()
    return got


@pytest.fixture
def cube_cloud_file(tmp_path):
    """Three tiny cubes in log coordinates, written as a `kind: file` cloud."""
    points, tags = [], []
    for level, log_eps in ((2, -1.0), (3, -2.5), (4, -4.0)):
        modes = [2 * (level + j) for j in range(1, 3)]
        for p in range(4):
            points.append({m: (1, log_eps) for b, m in enumerate(modes) if (p >> b) & 1})
            tags.append(f"cube:n={level}:p={p}")
    path = str(tmp_path / "cubes.csv")
    write_csv(path, ["point_id", "tag", "mode_index", "sign", "logmag"],
              cloud_rows(dict_cloud(points, tags=tags)))
    return path


def file_config(cloud_path, s_list=(0.0,)):
    return {"spectrum": LINEAR,
            "geometry": {"cloud": {"kind": "file", "path": cloud_path},
                         "s_list": list(s_list), "scales": "1e0:1e-2:5",
                         "include_doubling": True}}


def bad_cube_config(family, n_max, kick_max_level):
    spectrum = {"family": family, "n_max": n_max}
    if family == "linear":
        spectrum["params"] = {"c": 1.0}
    else:
        spectrum["params"] = {"values": [float(k) for k in range(1, n_max + 1)]}
    return {"spectrum": spectrum,
            "dynamics": {"kick_max_level": kick_max_level},
            "geometry": {"cloud": {"kind": "bad_cubes"}}}


def bad_cubes_scan_config(kappa) -> dict:
    """The `cubes` benchmark config at the default L, with window width kappa."""
    return {"spectrum": {"family": "linear", "n_max": 32, "params": {"c": 1.0}},
            "drive": {"tau": 0.5},
            "dynamics": {"n0": 4, "kick_max_level": 6, "kappa": kappa},
            "geometry": {"cloud": {"kind": "bad_cubes"}},
            "expectations": {"dimension": "diverging"}}


def gap_check_config(case) -> dict:
    """The config of a GAP_CHECK_GOLDEN case: the `dynamics` benchmark
    config, or (family, n_max, L).  The explicit spectrum starts at 1 and
    steps by 0.5, 1.5, 0.25 and 2.0 in turn."""
    if case == "dynamics":
        with open(os.path.join(REPO, "perfbench", "configs", "dynamics.json"),
                  encoding="utf-8") as fh:
            return json.load(fh)
    family, n_max, coupling = case
    params = {"linear": {"c": 1.0}, "power": {"kappa": 0.5},
              "explicit": {"values": [1.0 + sum((0.5, 1.5, 0.25, 2.0)[j % 4] for j in range(k))
                                      for k in range(n_max)]}}[family]
    return {"spectrum": {"family": family, "n_max": n_max, "params": params},
            "dynamics": {"L": coupling}}


# gap-check as the dense-eigensolver count wrote it at commit 59037f5: the
# report constants (L0, L, minus and plus real counts, in_regime), and the
# sha256 of stdout with the output directory written as "<out>"
GAP_CHECK_CONSTANTS = ("L0", "L", "minus_real_count", "plus_real_count", "in_regime")
GAP_CHECK_GOLDEN = {
    "dynamics": (1.0, 0, 1, True,
        "35e7ba6aa48424e29e1fc3ede38018add2562d5b82bef22d4e84b35eab52b090"),
    ("explicit", 40, 0.25): (2.0, 20, 39, False,
        "e40ecea7cd29e3d29bb45cc199661c888f47ef0db3baed51b11403cd2f9d09bf"),
    ("explicit", 40, 0.6): (2.0, 0, 39, False,
        "ff1d769c2a2a76f1b76f148634a238610d9b957f9b9a743f15803c7825936511"),
    ("explicit", 40, 1.5): (2.0, 0, 1, True,
        "81a3c8a89983bbdfb721d8dc4c91d1692e598423c7e2b6cfa1fbe0e4279f48de"),
    ("explicit", 41, 0.25): (2.0, 20, 41, False,
        "55f8858a50624f97251eb83cd8b49a399e5e3898cc2f7502dcc75f7ccc169196"),
    ("explicit", 41, 0.6): (2.0, 0, 41, False,
        "7c340ea8223d5801c89f5b0f9c1d94b79949759bc1625f2745d5af134485a997"),
    ("explicit", 41, 1.5): (2.0, 0, 1, True,
        "088aa6b1f34018cca73405c33e0690c73baf192113f272f0bd5b94fb3c69dbf9"),
    ("linear", 40, 0.4): (1.0, 40, 39, False,
        "cc3c81080a6a864a680ba08e45c76a2745fe6a11780ae1837742f8610eb5faa5"),
    ("linear", 40, 0.5): (1.0, 40, 39, False,
        "cc3c81080a6a864a680ba08e45c76a2745fe6a11780ae1837742f8610eb5faa5"),
    ("linear", 40, 1.0): (1.0, 0, 1, False,
        "439c9180aa0ebf59ad213a7c74122bf477063ca32d3b9b46510c3090f4e40de5"),
    ("linear", 40, 3.0): (1.0, 0, 1, True,
        "35e7ba6aa48424e29e1fc3ede38018add2562d5b82bef22d4e84b35eab52b090"),
    ("linear", 41, 0.4): (1.0, 40, 41, False,
        "de887c50d135761bd60b55ae6e2a5c9f26dfb3d1532d74fe7d1099606eb24180"),
    ("linear", 41, 0.5): (1.0, 40, 41, False,
        "de887c50d135761bd60b55ae6e2a5c9f26dfb3d1532d74fe7d1099606eb24180"),
    ("linear", 41, 1.0): (1.0, 0, 1, False,
        "bbe47dbf9de45213744c01dc0ad5c188ca6bdda78240ce53a7f3e7f4267eafae"),
    ("linear", 41, 3.0): (1.0, 0, 1, True,
        "605a1de171e3ca18f3d36d3807890dd3015f909776fb05355e5ff1b597d55746"),
    ("power", 40, 0.1): (0.41421356237309515, 6, 5, False,
        "fcb2bdf8ac40472a76d44269d1e48283f41261a3a6f69558ac464b494567f19f"),
    ("power", 40, 1.0): (0.41421356237309515, 0, 1, False,
        "2b46d4345be9ca2e25fb5745ffb71b10c0a03b33d106f78921e1f306cee2a1a0"),
    ("power", 40, 2.0): (0.41421356237309515, 0, 1, True,
        "f2505f8397cb194a59cb9defee23d663490cd83fe096456a8e20ad21b07bcad9"),
    ("power", 41, 0.1): (0.41421356237309515, 6, 5, False,
        "47a84da8d4631436e1c6b90d4c861c41d7d3207f831b99e0762edef9653c2271"),
    ("power", 41, 1.0): (0.41421356237309515, 0, 1, False,
        "7510d8244cf8998f2b046d8ee72d86ca9c8868e57e953892f7dc05a6e3a49943"),
    ("power", 41, 2.0): (0.41421356237309515, 0, 1, True,
        "0c8f4d8fe731faed0ef7d55f4a04829f5cc36f88b83c665ad8e3f0dfaabed504"),
}


class TestGapCheck:
    def test_linear_obstruction(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"spectrum": LINEAR, "dynamics": {"L": 3.0},
                                                 "expectations": {"gap_check": "obstruction"}})
        assert run(cfg, tmp_path / "out", "gap-check") == 0
        got = report(tmp_path / "out", "gap-check")
        assert got["verdicts"] == {"gap_check": "obstruction"}
        assert got["constants"]["in_regime"] is True

    def test_outside_regime_says_so(self, tmp_path):
        # L = 0.9 < lambda_1 = 1: the plus site has no unstable mode, and the
        # report names the regime as the reason no obstruction is certified
        cfg = write_config(tmp_path / "c.json", {"spectrum": LINEAR, "dynamics": {"L": 0.9}})
        assert run(cfg, tmp_path / "out", "gap-check") == 0
        got = report(tmp_path / "out", "gap-check")
        assert got["verdicts"] == {"gap_check": "no_obstruction"}
        assert got["constants"]["in_regime"] is False

    @pytest.mark.parametrize("case", sorted(GAP_CHECK_GOLDEN, key=str), ids=str)
    def test_matches_eigensolver_golden(self, tmp_path, capsys, case):
        out = tmp_path / "out"
        assert run(write_config(tmp_path / "c.json", gap_check_config(case)), out,
                   "gap-check") == 0
        l0, minus, plus, in_regime, digest = GAP_CHECK_GOLDEN[case]
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest
        got = report(out, "gap-check")
        want = "obstruction" if in_regime else "no_obstruction"
        assert got["verdicts"] == {"gap_check": want}
        assert {k: got["constants"][k] for k in GAP_CHECK_CONSTANTS} == {
            "L0": l0, "L": gap_check_config(case)["dynamics"]["L"],
            "minus_real_count": minus, "plus_real_count": plus, "in_regime": in_regime}

    def test_margins_reported(self, tmp_path):
        # lambda_1 < L = 1.5 <= lambda_2: the parity clash holds, but
        # Theorem 0.1's hypothesis L > max(L0/2, lambda_2) does not
        cfg = write_config(tmp_path / "c.json", gap_check_config(("linear", 40, 1.5)))
        assert run(cfg, tmp_path / "out", "gap-check") == 0
        got = report(tmp_path / "out", "gap-check")
        assert got["verdicts"] == {"gap_check": "obstruction"}
        assert {k: got["constants"][k] for k in
                ("block_margin", "plus_margin", "theorem_margin")} == {
            "block_margin": 2.0, "plus_margin": 0.5, "theorem_margin": -0.5}

    def test_deep_truncation(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "linear", "n_max": 100_000, "params": {"c": 1.0}},
            "dynamics": {"L": 3.0}})
        assert run(cfg, tmp_path / "out", "gap-check") == 0
        got = report(tmp_path / "out", "gap-check")
        assert got["verdicts"] == {"gap_check": "obstruction"}
        assert (got["constants"]["minus_real_count"], got["constants"]["plus_real_count"]) == (0, 1)


def refuse_adaptive_simpson(*args, **kwargs):
    raise AssertionError("adaptive_simpson called")


@pytest.fixture(scope="module")
def dynamics_runs(tmp_path_factory):
    """gap-check, floquet and simulate, each run twice into the output dirs a
    and b, at the default Lipschitz budget, with every binding of
    adaptive_simpson refusing to run"""
    root = tmp_path_factory.mktemp("dynamics")
    cfg = write_config(root / "c.json", SMALL_DYNAMICS)
    with pytest.MonkeyPatch.context() as patch:
        for module in (quadrature, fl, sim):
            patch.setattr(module, "adaptive_simpson", refuse_adaptive_simpson)
        codes = {(out, command): run(cfg, root / out, command)
                 for out in ("a", "b") for command in ("gap-check", "floquet", "simulate")}
    return root, codes


def test_default_budget_runs_every_dynamics_command(dynamics_runs):
    # the obstruction and the scenario share one regime bound, so the
    # default L = 2 that gap-check certifies also builds the scenario
    root, codes = dynamics_runs
    assert "L" not in SMALL_DYNAMICS["dynamics"]
    assert resolve_config(SMALL_DYNAMICS)["dynamics"]["L"] == KEYS["dynamics.L"][0] == 2.0
    assert set(codes.values()) == {0}
    for command, key, want in (("gap-check", "gap_check", "obstruction"),
                               ("floquet", "floquet", "pattern_ok"),
                               ("simulate", "simulate", "superexponential")):
        assert report(root / "a", command)["verdicts"] == {key: want}


class TestReport:
    def test_matching_report_exits_zero(self, dynamics_runs, capsys):
        root, _ = dynamics_runs
        path = str(root / "a" / "gap-check_report.json")
        assert cli.main(["report", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("command: gap-check  hash: ")
        assert "  gap_check: obstruction" in lines
        assert "  L = 2.0" in lines
        assert "  minus_real_count = 0" in lines and "  plus_real_count = 1" in lines
        assert "  in_regime = True" in lines

    def test_violated_expectation_exits_two(self, dynamics_runs, tmp_path, capsys):
        root, _ = dynamics_runs
        payload = report(root / "a", "floquet")
        payload["expected"] = {"floquet": "pattern_broken"}
        path = write_config(tmp_path / "floquet_report.json", payload)
        assert cli.main(["report", path]) == 2
        captured = capsys.readouterr()
        assert "  floquet: pattern_ok" in captured.out.splitlines()
        assert ("expectation violated: floquet = pattern_ok, expected pattern_broken"
                in captured.err)

    def test_missing_verdict_violates_the_expectation(self, tmp_path, capsys):
        # a run's exit code and the report command's follow one rule, under
        # which an expected key with no verdict is unmet
        expected = {"floquet": "pattern_ok"}
        assert unmet_expectation(expected, {}) == "floquet"
        path = write_config(tmp_path / "floquet_report.json",
                            {"command": "floquet", "verdicts": {}, "expected": expected})
        assert cli.main(["report", path]) == 2
        assert ("expectation violated: floquet = None, expected pattern_ok"
                in capsys.readouterr().err)


def assert_matches_report(outcome, out, command):
    """The outcome's verdict, constants and table names are the ones the
    CLI's report for `command` in `out` holds."""
    got = report(out, command)
    assert got["verdicts"] == {command.replace("-", "_"): outcome.verdict}
    assert got["constants"] == json.loads(json.dumps(outcome.constants))
    assert [os.path.basename(f) for f in got["files"]] == [t[0] for t in outcome.tables]


class TestEntryPoints:
    """Each command's chain called as a library, with no output directory,
    gives the verdict and constants of the CLI's report."""

    def test_dynamics_commands(self, dynamics_runs, tmp_path, monkeypatch):
        root, _ = dynamics_runs
        monkeypatch.chdir(tmp_path)
        cfg = resolve_config(SMALL_DYNAMICS)
        spec, dyn = spectrum_from_config(cfg), cfg["dynamics"]
        outcomes = {
            "gap-check": gap_check(spec, dyn["L"]),
            "floquet": floquet_check(spec, drive_from_config(cfg), dyn["n_trunc"], dyn["L"]),
            "simulate": sim.pair_check(scenario_from_config(cfg), dyn["n_periods"]),
        }
        assert os.listdir(tmp_path) == []
        for command, outcome in outcomes.items():
            assert_matches_report(outcome, root / "a", command)

    @pytest.mark.parametrize("raw", [SMALL_SECTION4, bad_cubes_scan_config(0.04)],
                             ids=["section4", "bad_cubes"])
    def test_dimension(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.chdir(tmp_path)
        outcome = dimension_from_config(resolve_config(raw))
        assert os.listdir(tmp_path) == []
        assert run(write_config(tmp_path / "c.json", raw), tmp_path / "out", "dimension") == 0
        assert_matches_report(outcome, tmp_path / "out", "dimension")


class TestFloquet:
    def test_pattern_ok_byte_identical(self, dynamics_runs):
        root, codes = dynamics_runs
        assert codes["a", "floquet"] == 0 and codes["b", "floquet"] == 0
        got = report(root / "a", "floquet")
        assert got["verdicts"] == {"floquet": "pattern_ok"}
        assert got["constants"]["pattern_ok"] is True
        # tau = 2 on linear c = 1: every second difference from N = 2 on is 8
        assert got["constants"]["beta"] == 4.0
        assert "beta_analytic" not in got["constants"] and "r2" not in got["constants"]
        names = ("floquet_iterates.csv",)
        assert read_bytes(root / "a", names) == read_bytes(root / "b", names)

    def test_outputs_pinned(self, dynamics_runs):
        # the CSV as SMALL_DYNAMICS wrote it at commit 82ef4b6, when the
        # verdict came from the decay certificate.  The two error constants
        # come from the closed-form blocks since they replaced the Lawson
        # map (6.15e-14 and 2.06e-12, its step error): the log multipliers
        # match the shift's exactly, and the off-pattern mass is the quarter
        # turn's rounding, cos(theta) = 2.8e-16, times e^(2 tau + A)
        root, _ = dynamics_runs
        with open(root / "a" / "floquet_iterates.csv", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "5f8730ed2cee4af5eb6a5a3ca109ab6a502b7f282808fc46fee94ef5e7f2be69")
        got = report(root / "a", "floquet")["constants"]
        assert abs(got.pop("closing_exponent") - 2.0) <= 1.5e-3
        assert got == {
            "beta": 4.0,
            "epsilon": 1.00500488206889,
            "max_log_rel_err": 0.0,
            "max_off_pattern": 1.7922709113863204e-14,
            "n_trunc": 8,
            "pattern_ok": True,
            "L": 2.0,
            "coupling_norm_max": 1.50500488206889,
        }

    def test_propagator_steps_are_one_lawson_step_each(self):
        # every step of every doubling of the Lawson oracle is one column of
        # a one-step `lawson_rk4` call: 2 colours x 2 half-periods x 4
        # doublings, at SMALL_DYNAMICS' 8 columns
        cfg = resolve_config(SMALL_DYNAMICS)
        op = fl.make_periodic_operator(spectrum_from_config(cfg), drive_from_config(cfg))
        tracer = load_layers().Tracer()
        tracer.install()
        try:
            numeric = fl.poincare_numeric(op, 8)
        finally:
            tracer.uninstall()
        assert numeric.steps == 4096
        calls = tracer.calls["integrators.lawson"]
        assert calls == 16
        assert tracer.counters["integrators.steps"] == calls
        assert tracer.counters["floquet.tab_rhs_evals"] == 4 * calls
        assert tracer.counters["floquet.propagator_steps"] == 4096

    def test_runs_no_lawson_map(self, tmp_path, monkeypatch):
        # the closed-form blocks give every number floquet reports, so no
        # Lawson step, block build or numeric propagator runs
        def refused(*args, **kwargs):
            raise AssertionError("floquet called the Lawson map")

        for module, name in ((integrators, "lawson_rk4"), (fl, "lawson_rk4"),
                             (fl, "_half_period_blocks"), (fl, "poincare_numeric")):
            monkeypatch.setattr(module, name, refused)
        cfg = write_config(tmp_path / "c.json", SMALL_DYNAMICS)
        assert run(cfg, tmp_path / "out", "floquet") == 0
        assert report(tmp_path / "out", "floquet")["verdicts"] == {"floquet": "pattern_ok"}

    @pytest.mark.parametrize("family,params", [("linear", {"c": 1.0}),
                                               ("power", {"kappa": 0.5})])
    def test_pattern_at_depth(self, tmp_path, family, params):
        # at 1,000 columns the linear spectrum's entries reach e^-4,000, far
        # below the double range, which the Lawson map's dense columns could
        # not hold
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": family, "n_max": 1002, "params": params},
            "dynamics": {"n_trunc": 1000}, "expectations": {"floquet": "pattern_ok"}})
        assert run(cfg, tmp_path / "out", "floquet") == 0
        got = report(tmp_path / "out", "floquet")["constants"]
        assert got["n_trunc"] == 1000 and got["pattern_ok"] is True
        assert 0.0 <= got["max_log_rel_err"] <= 1e-15
        assert 0.0 < got["max_off_pattern"] <= 1e-13

    def test_underflowing_column_reports_off_pattern(self, tmp_path, capsys):
        # at tau = 12 the Lawson map's column 15 has its largest entry at
        # 1.7e-167, and its off-pattern mass, 0.0449 at 4,096 steps, is
        # step error; the library assertion below keeps it.  The closed form
        # reads the one leak a double quarter turn has: theta rounds to the
        # double nearest pi/2, whose cosine is 6.1e-17, and each odd column
        # amplifies it by e^(2 tau + A), 2.6e10 times e^A, past
        # OFF_PATTERN_TOL
        raw = {"spectrum": {"family": "linear", "n_max": 40, "params": {"c": 1.0}},
               "drive": {"tau": 12.0}}
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "floquet") == 0
        got = report(tmp_path / "out", "floquet")
        spec = make_spectrum("linear", {"c": 1.0}, 40)
        op = fl.make_periodic_operator(spec, drive_from_config(resolve_config(raw)))
        theta, ramp = phases.phase_constants(op)
        assert math.cos(theta) == math.cos(math.pi / 2.0)
        leak = math.cos(theta) * math.exp(24.0 + ramp)
        assert got["constants"]["max_off_pattern"] == pytest.approx(leak, rel=1e-9)
        assert math.isfinite(got["constants"]["max_log_rel_err"])
        assert got["constants"]["max_off_pattern"] > phases.OFF_PATTERN_TOL
        assert got["constants"]["pattern_ok"] is False
        assert got["verdicts"] == {"floquet": "pattern_broken"}
        lawson = phases.shift_match_report(dense_log_columns(fl.poincare_numeric(op, 16).matrix),
                                       fl.poincare_predicted(spec, 12.0))
        assert lawson["max_off_pattern"] == pytest.approx(0.0449, rel=1e-3)
        assert lawson["pattern_ok"] is False


def test_power_spectrum_closes_superexponentially(tmp_path, capsys):
    # lambda_n = n^(1/2): p = 3/2 and gamma_star = 1/3, and the pair matches
    # the walk at every period
    cfg = write_config(tmp_path / "c.json", {
        "spectrum": {"family": "power", "n_max": 40, "params": {"kappa": 0.5}},
        "expectations": {"floquet": "pattern_ok", "simulate": "superexponential"}})
    assert run(cfg, tmp_path / "out", "floquet") == 0
    assert run(cfg, tmp_path / "out", "simulate") == 0
    floquet = report(tmp_path / "out", "floquet")
    simulate = report(tmp_path / "out", "simulate")
    assert floquet["verdicts"] == {"floquet": "pattern_ok"}
    assert simulate["verdicts"] == {"simulate": "superexponential"}
    got = simulate["constants"]
    assert abs(got["closing_exponent"] - 1.5) <= 1.5e-3
    assert floquet["constants"]["closing_exponent"] == got["closing_exponent"]
    assert abs(got["gamma_star"] - 1.0 / 3.0) <= 2e-5
    assert got["walk_rel_err"] <= sim.WALK_REL_TOL
    assert (got["modulus_half_verdict"], got["modulus_zero_verdict"]) == ("bounded", "divergent")


class TestSimulate:
    CSVS = ("pair_distance.csv", "pair_trajectory.csv")

    def test_superexponential_byte_identical(self, dynamics_runs):
        root, codes = dynamics_runs
        assert codes["a", "simulate"] == 0 and codes["b", "simulate"] == 0
        assert report(root / "a", "simulate")["verdicts"] == {"simulate": "superexponential"}
        assert read_bytes(root / "a", self.CSVS) == read_bytes(root / "b", self.CSVS)

    def test_outputs_pinned(self, dynamics_runs):
        # the CSVs and constants as SMALL_DYNAMICS writes them since its
        # periods run through the half-period block map
        root, _ = dynamics_runs
        for name, digest in (
                ("pair_distance.csv",
                 "6b5f164059f0d0a6f6472854cf3d6bd851af8188771c2753d11a978b4b52474a"),
                ("pair_trajectory.csv",
                 "76e24e61c553dd098ab996d3da9e6f499f188156cb00e746348645c46f9e57e8")):
            with open(root / "a" / name, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest
        # the log distances as the sequential Lawson steps wrote them at
        # commit 0a1e161; block products round differently, so they hold to
        # 1e-13 relative (5.6e-16 moved), and the supports and signs exactly
        with open(root / "a" / "pair_distance.csv", encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0", "4", "8", "12"]
        want = [0.0, -7.9999999996921645, -23.999999999384311, -47.999999999076493]
        assert float(rows[0][1]) == 0.0
        assert all(abs(float(r[1]) - w) <= 1e-13 * -w for r, w in zip(rows[1:], want[1:]))
        with open(root / "a" / "pair_trajectory.csv", encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        assert [r[:3] for r in rows] == [["0", "1", "1"], ["4", "3", "1"], ["8", "5", "1"],
                                         ["12", "7", "1"]]
        got = report(root / "a", "simulate")["constants"]
        assert 0.0 < got.pop("projection_discard_max") <= PROJECTION_GUARD
        assert abs(got.pop("closing_exponent") - 2.0) <= 1.5e-3
        assert abs(got.pop("gamma_star") - 0.5) <= 2e-5
        assert 0.0 < got.pop("walk_rel_err") <= sim.WALK_REL_TOL
        assert got == {
            "epsilon": 1.00500488206889,
            "modulus_half_verdict": "bounded",
            "modulus_zero_verdict": "divergent",
        }

    def test_periods_take_one_lawson_pass(self, tmp_path):
        # perfbench's layer tracer counts the steps of every `lawson_rk4`
        # call and the calls of every tabulated rhs: the periods share one
        # build of the half-period blocks, one one-step call per colour and
        # half, each column one of the half's 512 steps
        cfg = write_config(tmp_path / "c.json", SMALL_DYNAMICS)
        tracer = load_layers().Tracer()
        tracer.install()
        try:
            assert run(cfg, tmp_path / "out", "simulate") == 0
        finally:
            tracer.uninstall()
        assert tracer.calls["integrators.lawson"] == 4
        assert tracer.counters["integrators.steps"] == 4
        assert tracer.counters["floquet.tab_rhs_evals"] == 16

    def test_pair_matches_walk(self, monkeypatch):
        # the pair is an oracle for the shift walk: 3.8e-11 relative at
        # 1,024 steps per period; moving the walk's second multiplier by
        # 1e-8 relative moves its log distance by 6.7e-9 from period 2 on,
        # and the error names period 2
        scen = scenario_from_config(resolve_config(SMALL_DYNAMICS))
        result = sim.trajectory_pair_experiment(scen, n_periods=3)
        assert result["superexponential"] is True
        assert 0.0 < result["walk_rel_err"] <= sim.WALK_REL_TOL
        predicted = sim.poincare_predicted

        def moved(spec, half_period):
            shift = predicted(spec, half_period)
            logmult = shift.log_multiplier.copy()
            logmult[shift.position[3]] *= 1 + 1e-8
            return fl.WeightedShift(shift.line, logmult)

        monkeypatch.setattr(sim, "poincare_predicted", moved)
        with pytest.raises(sim.SimulationError, match="^period 2: "):
            sim.trajectory_pair_experiment(scen, n_periods=3)

    def test_rotation_free_control_is_exponential_only(self):
        scen = scenario_from_config(resolve_config(SMALL_DYNAMICS))
        result = sim.trajectory_pair_experiment(scen, n_periods=3, rotation_on=False)
        assert result["superexponential"] is False
        assert result["walk_rel_err"] is None

    def test_constant_spectrum_is_exponential_only(self, tmp_path, capsys):
        # equal eigenvalues: mode 1's orbit closes with p = 1, so neither
        # command certifies super-exponential closing
        raw = dict(SMALL_DYNAMICS, expectations={},
                   spectrum={"family": "explicit", "n_max": 14,
                             "params": {"values": [1.0] * 14}})
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "floquet") == 0
        assert run(cfg, tmp_path / "out", "simulate") == 0
        assert report(tmp_path / "out", "floquet")["verdicts"] == {"floquet": "pattern_broken"}
        got = report(tmp_path / "out", "simulate")
        assert got["verdicts"] == {"simulate": "exponential_only"}
        assert got["constants"]["closing_exponent"] == 1.0
        assert got["constants"]["walk_rel_err"] <= sim.WALK_REL_TOL

    def test_truncation_past_the_spectrum_names_the_key(self, tmp_path, monkeypatch, capsys):
        def refused(*args, **kwargs):
            raise AssertionError("the operator was built before the truncation check")

        monkeypatch.setattr(sim, "make_periodic_operator", refused)
        raw = dict(SMALL_DYNAMICS, dynamics=dict(SMALL_DYNAMICS["dynamics"], n_trunc=15))
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "simulate") == 1
        err = capsys.readouterr().err
        assert "config error: config invalid at dynamics.n_trunc: " in err
        assert "want at most spectrum.n_max - 2 = 12" in err
        assert "got 15; the smallest invalid value is 13" in err

    def test_coarse_steps_name_the_step_count(self, tmp_path, capsys):
        # at 512 steps per period the first projection would discard 5.2e-5
        # of the norm: step error, not a wrong support
        raw = dict(SMALL_DYNAMICS, dynamics=dict(SMALL_DYNAMICS["dynamics"],
                                                 steps_per_period=512))
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "simulate") == 1
        err = capsys.readouterr().err
        assert "at 512 steps per period" in err and "dynamics.steps_per_period" in err


@pytest.mark.parametrize("command", ["floquet", "simulate"])
def test_dynamics_commands_share_the_truncation_bound(tmp_path, capsys, command):
    # one bound for both: n_trunc = n_max - 2 = 12 runs, 13 is refused
    # before any numerics, in the same words
    verdicts = {"floquet": "pattern_ok", "simulate": "superexponential"}
    for n_trunc, code in ((12, 0), (13, 1)):
        raw = dict(SMALL_DYNAMICS, dynamics=dict(SMALL_DYNAMICS["dynamics"], n_trunc=n_trunc))
        assert run(write_config(tmp_path / "c.json", raw), tmp_path / f"out{n_trunc}",
                   command) == code
    assert report(tmp_path / "out12", command)["verdicts"] == {command: verdicts[command]}
    assert capsys.readouterr().err.splitlines()[-1] == (
        "config error: config invalid at dynamics.n_trunc: want at most spectrum.n_max - 2 "
        "= 12, since floquet's shift images reach two modes past the truncation, got 13; "
        "the smallest invalid value is 13")
    assert not (tmp_path / "out13").exists()


class TestDimension:
    def test_section4_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", SMALL_SECTION4)
        assert run(cfg, tmp_path / "a", "dimension") == 0
        assert run(cfg, tmp_path / "b", "dimension", "--threads", "2") == 0
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")
        got = report(tmp_path / "a", "dimension")
        assert got["verdicts"] == {"dimension": "finite"}
        slopes = got["constants"]["slopes"]
        assert set(slopes) == {"0", "2"}
        assert (round(slopes["0"], 4), round(slopes["2"], 4)) == (0.3370, 0.3404)

    def test_file_cloud_with_doubling_byte_identical(self, tmp_path, cube_cloud_file, capsys):
        cfg = write_config(tmp_path / "c.json", file_config(cube_cloud_file))
        assert run(cfg, tmp_path / "a", "dimension") == 0
        assert run(cfg, tmp_path / "b", "dimension") == 0
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")
        with open(tmp_path / "a" / "dimension_scan.csv", encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        # n_eps and d_eps as this config wrote them at commit 8824d1f, before
        # hashed box keys, norm views and array-indexed covers
        assert [int(r[3]) for r in rows] == [1, 4, 4, 7, 10]
        assert [int(r[4]) for r in rows] == [1, 2, 3, 4, 1]

    def test_file_cloud_doubling_above_exact_cap_pinned(self, tmp_path, cube_vertex_cloud,
                                                         capsys):
        path = str(tmp_path / "vertices.csv")
        write_csv(path, ["point_id", "tag", "mode_index", "sign", "logmag"],
                  cloud_rows(cube_vertex_cloud))
        raw = file_config(path)
        raw["geometry"]["scales"] = "3e-1:1e-2:5"
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "dimension") == 0
        with open(tmp_path / "out" / "dimension_scan.csv", encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        # n_eps and d_eps as this config wrote them at commit 72a8bd6, before
        # doubling covered each distinct ball once; the first four scales
        # have balls of more than 24 members, so their covers are greedy
        assert [int(r[3]) for r in rows] == [1, 10, 25, 47, 76]
        assert [int(r[4]) for r in rows] == [9, 8, 15, 12, 3]
        # the cloud as written, and as loaded and written again, at commit
        # 33becc3, before clouds became one coordinate table
        for written in (path, tmp_path / "out" / "cloud.csv"):
            with open(written, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == (
                    "8ce8d9b0ad8299ff95888d2e38db5f10900c65b9d3b3077c6973c641c374aa84")

    @pytest.mark.parametrize("kind", ["section4", "file"])
    def test_traced_run_counts_stored_slots(self, tmp_path, cube_cloud_file, kind, capsys):
        # perfbench's layer tracer wraps the cloud build and reads the built
        # cloud's attributes; a traced run must still work, and its
        # geometry.dense_cells counts the n x K slots the cloud keeps
        raw = SMALL_SECTION4 if kind == "section4" else file_config(cube_cloud_file)
        cfg = write_config(tmp_path / "c.json", raw)
        tracer = load_layers().Tracer()
        tracer.install()
        try:
            assert run(cfg, tmp_path / "out", "dimension") == 0
        finally:
            tracer.uninstall()
        table = load_cloud_csv(str(tmp_path / "out" / "cloud.csv")).points
        stored = np.bincount(table.point, minlength=table.n)
        assert tracer.calls["geometry.cloud_build"] == 1
        assert tracer.counters["geometry.dense_cells"] == table.n * max(1, int(stored.max()))
        if kind == "file":  # include_doubling: the covers ran traced too
            assert tracer.calls["geometry.doubling"] == 5 and tracer.calls["geometry.cover"] > 0

    @staticmethod
    def count_builds(monkeypatch) -> list:
        builds = []
        original = PointCloud.__post_init__

        def counted(self):
            builds.append(self.s)
            original(self)

        monkeypatch.setattr(PointCloud, "__post_init__", counted)
        return builds

    def test_doubling_builds_one_cloud_per_s(self, tmp_path, cube_cloud_file, monkeypatch,
                                             capsys):
        builds = self.count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.json", file_config(cube_cloud_file))
        assert run(cfg, tmp_path / "out", "dimension") == 0
        assert len(builds) == 1  # the loaded file; the s = 0 view shares its slot arrays

    def test_bad_cubes_diverging(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", bad_cubes_scan_config(0.04))
        assert run(cfg, tmp_path / "out", "dimension") == 0
        got = report(tmp_path / "out", "dimension")
        assert got["verdicts"] == {"dimension": "diverging"}
        assert got["constants"]["all_bounds_ok"] is True
        assert [lvl["all_in_ball"] for lvl in got["constants"]["levels"]] == [True] * 3
        with open(tmp_path / "out" / "dimension_scan.csv", encoding="utf-8") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        # n_eps (half-scale covers of levels 4, 5, 6) and local_slope (log2
        # doubling bounds) as this config wrote them at commit 19c6238
        assert [r[3] for r in rows] == ["4", "8", "8"]
        assert [r[5] for r in rows] == ["2", "3", "3"]
        # the vertex cloud as this config wrote it at commit e477f43, before
        # the kick dropped its unread fields
        with open(tmp_path / "out" / "cloud.csv", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "b423492fcf10c667500c492d062de0674258eb64f87658f86eb98072f3a14b84")
        # every column, as this config wrote it at commit 93f298b, before the
        # shift became one line
        with open(tmp_path / "out" / "dimension_scan.csv", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "4352fa69788989da5f499118092b24a853d9581b64b775bdd731521a74e1ff95")

    def test_bad_cubes_depth_100(self, tmp_path, capsys):
        # kick_max_level 100 at n_max 420, one above the config's floor: both
        # CSVs as this config wrote them at commit 93f298b, before the shift
        # became one line and each level one bit matrix
        raw = bad_cubes_scan_config(0.04)
        raw["spectrum"]["n_max"] = 420
        raw["dynamics"]["kick_max_level"] = 100
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "dimension") == 0
        got = report(tmp_path / "out", "dimension")
        assert got["verdicts"] == {"dimension": "diverging"}
        assert got["constants"]["all_bounds_ok"] is True
        for name, digest in (
                ("cloud.csv", "36524ed346406401fec63aea6fda3c272413081cb9cf20c44d2da8ebe3b19072"),
                ("dimension_scan.csv",
                 "418a2ed59de656ac513a59561173eb1b91450fcf00f0589a5d3817d1ab3e29f3")):
            with open(tmp_path / "out" / name, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_bad_cubes_short_window_matches(self, tmp_path, capsys):
        # at kappa 1e-3 the window kernels' step doubling never converged
        # (2**22 steps); the deposit scales do not depend on kappa
        for kappa in (0.04, 1e-3):
            cfg = write_config(tmp_path / f"{kappa}.json", bad_cubes_scan_config(kappa))
            assert run(cfg, tmp_path / str(kappa), "dimension") == 0
        assert read_bytes(tmp_path / "0.001") == read_bytes(tmp_path / "0.04")
        with open(tmp_path / "0.001" / "cloud.csv", "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "b423492fcf10c667500c492d062de0674258eb64f87658f86eb98072f3a14b84")

    def test_section4_scan_builds_one_cloud(self, tmp_path, monkeypatch, capsys):
        builds = self.count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.json", SMALL_SECTION4)
        assert run(cfg, tmp_path / "out", "dimension") == 0
        assert len(builds) == 1  # both s views share the section-4 cloud's slot arrays
        # both CSVs as this config wrote them at commit 33becc3, before clouds
        # became one coordinate table
        for name, digest in (
                ("cloud.csv", "03af517c4a0d6b82f2ed9846b864255b8a632088eb3f9bc9c6881f9e5f783b40"),
                ("dimension_scan.csv",
                 "ede5e708f4a7f0b2e69b151fa027e392ab047ba4c68f8196613e0817c9cc2b4f")):
            with open(tmp_path / "out" / name, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestRemovedSurface:
    @pytest.mark.parametrize("raw", [
        {"output": {"formats": ["csv"]}},
        {"geometry": {"cloud": {"levels": [4, 5]}}},
        {"dynamics": {"segment_width": 0.5}},
    ])
    def test_removed_config_keys_rejected(self, raw):
        with pytest.raises(ConfigError, match="Additional properties"):
            resolve_config({"spectrum": LINEAR, **raw})

    def test_format_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"spectrum": LINEAR})
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", cfg, "--format", "csv", "gap-check"])
        assert exc.value.code == 2


class TestFailFast:
    @pytest.mark.parametrize("family,kick_max_level,bound", [
        ("linear", 6, 29), ("linear", 9, 41), ("linear", 10, 47), ("linear", 16, 71),
        ("explicit", 6, 31), ("explicit", 9, 43), ("explicit", 16, 73),
    ])
    def test_bad_cube_truncation_bound(self, family, kick_max_level, bound):
        resolve_config(bad_cube_config(family, bound, kick_max_level))
        with pytest.raises(ConfigError, match=f"n_max >= {bound} "):
            resolve_config(bad_cube_config(family, bound - 1, kick_max_level))

    def test_bad_cubes_fail_before_numerics(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", bad_cube_config("linear", 28, 6))
        assert run(cfg, tmp_path / "out", "dimension") == 1
        assert "n_max >= 29" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("key,value", [("include_doubling", False),
                                           ("s_list", [0, 1, 2]), ("scales", "1e-1:1e-5:9")])
    def test_bad_cubes_refuse_scan_keys(self, tmp_path, capsys, key, value):
        # only sobolev_scan reads these keys; the bad cubes' pipeline would
        # ignore them and exit 0
        raw = bad_cubes_scan_config(0.04)
        raw["geometry"][key] = value
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "dimension") == 1
        assert (f"config invalid at geometry.{key}: kind bad_cubes never reads it"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "out")

    def test_box_key_overflow_fails_the_run(self, tmp_path, capsys):
        raw = {**SMALL_SECTION4, "geometry": {**SMALL_SECTION4["geometry"],
                                              "scales": [0.1, 0.01, 0.001, 1e-25]}}
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "dimension") == 1
        err = capsys.readouterr().err
        assert re.search(r"GeometryError: box side 1e-25 is below the smallest box side this "
                         r"cloud can count, \S+: a smaller side's cells overflow", err)

    def test_window_without_bump_names_kappa(self, tmp_path, monkeypatch, capsys):
        def checked(*args, **kwargs):
            raise AssertionError("kick numerics ran before the window check")

        monkeypatch.setattr(sim, "ratio_bounds_check", checked)
        cfg = write_config(tmp_path / "c.json", bad_cubes_scan_config(1e-4))
        assert run(cfg, tmp_path / "out", "dimension") == 1
        err = capsys.readouterr().err
        assert "SimulationError: dynamics.kappa 0.0001 " in err
        assert "x(-kappa) = 0.0," in err
        least = float(re.search(r"smallest admissible dynamics.kappa is (\S+)$",
                                err.strip()).group(1))
        drive = drive_from_config(resolve_config(bad_cubes_scan_config(1e-4)))
        assert sim._window_bump(drive, least) is not None
        assert sim._window_bump(drive, least - 1e-12 * drive.half_period) is None

    def test_two_mode_spectrum_refused_by_config(self, tmp_path, capsys):
        # the obstruction needs three modes: n_max 2 once passed the config
        # and failed in gap-check with a SpectrumError
        raw = {"spectrum": {"family": "linear", "n_max": 2, "params": {"c": 1.0}}}
        assert run(write_config(tmp_path / "c.json", raw), tmp_path / "out", "gap-check") == 1
        assert ("config invalid at spectrum.n_max: want an integer >= 3, got 2"
                in capsys.readouterr().err)
        assert not os.path.exists(tmp_path / "out")
        raw["spectrum"]["n_max"] = 3
        assert run(write_config(tmp_path / "c.json", raw), tmp_path / "out", "gap-check") == 0

    def test_window_past_plateau_entry_names_kappa(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", bad_cubes_scan_config(0.3))
        assert run(cfg, tmp_path / "out", "dimension") == 1
        assert ("SimulationError: dynamics.kappa 0.3 must not exceed the plateau entry time"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("n_max,dynamics,need", [
        (40, {"n_periods": 8}, "n_trunc >= 17"),  # default n_trunc 16
        (18, {"n_periods": 8, "n_trunc": 16}, "n_max >= 19"),
    ])
    def test_simulate_truncation_names_minimum(self, tmp_path, monkeypatch, capsys,
                                               n_max, dynamics, need):
        def assembled(*args, **kwargs):
            raise AssertionError("operator assembled before the truncation check")

        monkeypatch.setattr(sim, "make_periodic_operator", assembled)
        cfg = write_config(tmp_path / "c.json", {"spectrum": dict(LINEAR, n_max=n_max),
                                                 "dynamics": dynamics})
        assert run(cfg, tmp_path / "out", "simulate") == 1
        err = capsys.readouterr().err
        assert "SimulationError" in err and need in err

    def test_kick_levels_name_config_keys(self):
        cfg = resolve_config({"spectrum": LINEAR,
                              "dynamics": {"n0": 5, "kick_max_level": 4}})
        with pytest.raises(sim.SimulationError,
                           match="1 <= n0 <= kick_max_level \\(got n0 5, kick_max_level 4\\)"):
            scenario_from_config(cfg)

    @staticmethod
    def refused_scales(tmp_path, monkeypatch, capsys, scales) -> str:
        """stderr of a section-4 `dimension` run refused for its scales
        before the cloud is built or the output directory made."""
        def built(*args, **kwargs):
            raise AssertionError("cloud built before the scale check")

        monkeypatch.setattr(sim, "section4_attractor", built)
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "quadratic", "n_max": 12},
            "geometry": {"cloud": {"kind": "section4", "n_max": 12}, "scales": scales}})
        assert run(cfg, tmp_path / "out", "dimension") == 1
        assert not os.path.exists(tmp_path / "out")
        return capsys.readouterr().err

    @pytest.mark.parametrize("scales", ["1e-1:1e-1:5", [0.1, 0.1, 0.05, 0.01]])
    def test_repeated_scale_refused_before_the_cloud(self, tmp_path, monkeypatch, capsys,
                                                     scales):
        err = self.refused_scales(tmp_path, monkeypatch, capsys, scales)
        assert "config error: scale 0.1 is repeated" in err

    @pytest.mark.parametrize("scales,need", [("1e-1:1e-3:3", "n >= 4"),
                                             ([0.1, 0.01, 0.001], "(at least 4)")])
    def test_three_scale_ladder_refused_before_the_cloud(self, tmp_path, monkeypatch, capsys,
                                                         scales, need):
        err = self.refused_scales(tmp_path, monkeypatch, capsys, scales)
        assert "config error" in err and need in err

    def test_explicit_spectrum_needs_matching_n_max(self, tmp_path, capsys):
        raw = {"spectrum": {"family": "explicit", "n_max": 40,
                            "params": {"values": [float(k) for k in range(1, 9)]}}}
        cfg = write_config(tmp_path / "c.json", raw)
        assert run(cfg, tmp_path / "out", "gap-check") == 1
        assert "explicit spectrum lists 8 values but n_max is 40" in capsys.readouterr().err
        raw["spectrum"]["n_max"] = 8
        assert resolve_config(raw)["spectrum"]["n_max"] == 8

    def test_doubling_over_matrix_cap_refused_before_the_scan(self, tmp_path, monkeypatch,
                                                             capsys):
        def scanned(*args, **kwargs):
            raise AssertionError("box scan ran before the matrix cap check")

        monkeypatch.setattr(geo, "fractal_dimension_estimate", scanned)
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "quadratic", "n_max": 48},
            "geometry": {"cloud": {"kind": "section4", "n_max": 48},
                         "include_doubling": True}})
        assert run(cfg, tmp_path / "out", "dimension") == 1
        err = capsys.readouterr().err
        assert "geometry.include_doubling" in err
        assert "capped at 4800 points" in err and "the cloud has 4942 points" in err

    def test_file_cloud_refuses_nonzero_s(self, cube_cloud_file):
        resolve_config(file_config(cube_cloud_file, [0.0]))
        with pytest.raises(ConfigError, match="s_list"):
            resolve_config(file_config(cube_cloud_file, [0.0, 1.0]))


def test_scenario_from_config():
    cfg = resolve_config({
        "spectrum": LINEAR,
        "drive": {"amplitude": 2.0, "tau": 1.5, "plateau_fraction": 0.8},
        "dynamics": {"L": 3.0, "n0": 5, "kappa": 0.04, "kick_max_level": 7, "n_trunc": 12,
                     "steps_per_period": 512}})
    scen = scenario_from_config(cfg)
    assert scen.spectrum.n_max == 16 and scen.spectrum.family == "linear"
    assert scen.drive == PeriodicDrive(2.0, 1.5, 0.8)
    assert scen.drive == drive_from_config(cfg)
    assert (scen.lipschitz_budget, scen.n_trunc, scen.steps_per_period) == (3.0, 12, 512)
    assert (scen.kick_base_level, scen.kick_max_level, scen.kick_window) == (5, 7, 0.04)


class TestCloudFile:
    GOOD = ("point_id,tag,mode_index,sign,logmag\n"
            "0,origin,0,0,-inf\n"
            "1,p,3,1,-2.5\n"
            "1,p,4,-1,-700.25\n")

    def test_placeholder_and_coordinates_load(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text(self.GOOD)
        cloud = load_cloud_csv(str(path))
        assert point_dicts(cloud) == [{}, {3: (1, -2.5), 4: (-1, -700.25)}]
        assert cloud.tags == ["origin", "p"]

    def test_repeated_coordinate_names_both_lines(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("point_id,tag,mode_index,sign,logmag\n"
                        "0,a,3,1,-2.5\n"
                        "0,b,3,-1,-9.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: point 0 mode 3 repeats line 2")):
            load_cloud_csv(str(path))

    def test_mixed_tags_name_both_lines(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("point_id,tag,mode_index,sign,logmag\n"
                        "0,a,3,1,-2.5\n"
                        "1,b,3,1,-2.5\n"
                        "0,c,4,-1,-9.0\n")
        want = f"{path}:4: point 0 tag 'c' differs from 'a' on line 2"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_cloud_csv(str(path))

    @pytest.mark.parametrize("sign,logmag", [
        ("5", "-1.0"),  # a sign that is no sign
        ("1", "nan"),  # a missing magnitude
        ("1", "inf"),  # an infinite magnitude
        ("-1", "-inf"),  # a zero coordinate stored as a coordinate
        ("0", "-2.0"),  # a placeholder with a magnitude
    ])
    def test_bad_row_names_its_line(self, tmp_path, sign, logmag):
        path = tmp_path / "cloud.csv"
        path.write_text(self.GOOD + f"2,q,5,{sign},{logmag}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: want sign")):
            load_cloud_csv(str(path))


def assert_table_invariants(cloud):
    """The coordinate table's invariants: aligned columns, sorted by (point,
    mode) with no pair twice, every point id in range, signs +-1 and finite
    logs."""
    t = cloud.points
    assert len(t.point) == len(t.mode) == len(t.sign) == len(t.log)
    assert len(cloud) == t.n == len(cloud.tags)
    assert np.all((t.point >= 0) & (t.point < t.n))
    dp, dm = np.diff(t.point), np.diff(t.mode)
    assert np.all((dp > 0) | ((dp == 0) & (dm > 0)))
    assert set(t.sign.tolist()) <= {-1, 1}
    assert np.all(np.isfinite(t.log))


def section4_tuple_build(laws, n_max, beta_scale):
    """The section-4 table and tags built one point at a time from (point,
    mode, sign, log) tuples, then sorted: the reference for the array build
    in `section4_attractor`."""
    def signed_log(v):
        return (0, -math.inf) if v == 0.0 else (1 if v > 0 else -1, math.log(abs(v)))

    ns = np.arange(sim.FIRST_LEVEL, n_max + 1, dtype=float)
    edges = np.concatenate([[0.0], np.cumsum(np.exp(laws.log_a(ns)))])
    phis = 0.5 * (edges[:-1] + edges[1:])
    entries, tags = [], []

    def add(coords, tag):
        entries.extend((len(tags), i, sign, log) for i, (sign, log) in coords if sign)
        tags.append(tag)

    for i in range(1, sim.DISK_RINGS + 1):
        r = i / sim.DISK_RINGS
        m = max(6, int(round(2.0 * math.pi * r * sim.DISK_RINGS)))
        for j in range(m):
            ang = 2.0 * math.pi * j / m
            add([(PLANAR_X, signed_log(r * math.cos(ang))),
                 (PLANAR_Y, signed_log(r * math.sin(ang)))], "cone")
    add([], "cone")
    log_beta = math.log(beta_scale)
    for idx, n in enumerate(ns.astype(int)):
        phi = phis[idx]
        top_log = float(laws.log_b(np.array([float(n)]))[0]) - float(
            laws.log_lam(np.array([float(n)]))[0]) + log_beta
        planar = [(PLANAR_X, signed_log(math.cos(phi))), (PLANAR_Y, signed_log(math.sin(phi)))]
        add(planar + [(int(n), (1, top_log))], f"equilibrium:n={n}")
        for j in range(1, sim.SEGMENT_POINTS):
            add(planar + [(int(n), (1, top_log - 0.25 * j))], f"segment:n={n}:j={j}")
        add(planar, f"segment:n={n}:base")
    return geo.CoordTable.from_entries(len(tags), entries), tags


@st.composite
def coordinate_dicts(draw):
    """Up to 12 points over the planar pair and modes 1..20, empty points
    included, with mixed signs and logs from -5000 to 50; tags that need
    CSV quoting."""
    entry = st.tuples(st.sampled_from([-1, 1]),
                      st.floats(-5000.0, 50.0, allow_nan=False, allow_infinity=False))
    points = draw(st.lists(st.dictionaries(
        st.sampled_from([PLANAR_Y, PLANAR_X, *range(1, 21)]), entry, max_size=4),
        min_size=1, max_size=12))
    tags = draw(st.lists(st.text(alphabet='ab:=," ', max_size=6),
                         min_size=len(points), max_size=len(points)))
    return points, tags


def entry_loop_cloud_rows(cloud):
    """cloud_rows as it was written at commit 141cb3b, one table entry at a
    time: the reference for the rows built from the table's arrays."""
    t = cloud.points
    ends = np.cumsum(np.bincount(t.point, minlength=t.n)).tolist()
    mode, sign, log = t.mode.tolist(), t.sign.tolist(), t.log.tolist()
    start = 0
    for pid, (end, tag) in enumerate(zip(ends, cloud.tags)):
        if start == end:
            yield (pid, tag, 0, 0, -math.inf)
        for e in range(start, end):
            yield (pid, tag, mode[e], sign[e], log[e])
        start = end


def gapped_cloud(stored, logs, tags):
    """A cloud whose point p stores stored[p] entries, on the planar pair and
    then mode 4, with signs alternating, logs and tags tiled."""
    point = np.repeat(np.arange(len(stored)), stored)
    slot = np.arange(len(point)) - np.repeat(np.cumsum(stored) - stored, stored)
    table = geo.CoordTable(len(stored), point, np.array([PLANAR_Y, PLANAR_X, 4])[slot],
                           np.where((point + slot) % 2, 1, -1), np.resize(logs, len(point)))
    return PointCloud(table, None, 0.0, [tags[p % len(tags)] for p in range(len(stored))])


@st.composite
def gapped_tables(draw):
    """gapped_cloud's arguments for up to two CSV chunks of table entries,
    each point storing one to three, with empty points put in before drawn
    entry positions: first, last, several in a row, and on either side of
    a chunk edge."""
    size = draw(st.sampled_from([0, 1, 7, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                 2 * CSV_CHUNK + 2]))
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts = np.cumsum([0] + widths * size)  # first entry of each point, past size
    starts = np.append(starts[starts < size], size)
    stored = np.diff(starts).tolist()
    edges = [p for p in (0, size, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1) if p <= size]
    gaps = draw(st.lists(st.one_of(st.integers(0, size), st.sampled_from(edges)), max_size=8))
    for pos in sorted(gaps, reverse=True):  # before the first point starting at pos or later
        stored.insert(int(np.searchsorted(starts, pos)), 0)
    return (stored or [0], draw(st.lists(st.floats(-800.0, 50.0), min_size=1, max_size=5)),
            draw(st.lists(st.text(alphabet='ab:=," ', max_size=4), min_size=1, max_size=5)))


class TestCoordTable:
    @given(coordinate_dicts())
    @example(([{}], [""]))  # one empty point
    @example(([{PLANAR_Y: (-1, -5000.0), PLANAR_X: (1, 0.0), 7: (-1, -0.0)}, {}],
              ["p,1", '"q"']))
    # a tag that needs quoting only in the second chunk write_csv formats
    @example(([{3: (1, -0.5)}] * CSV_CHUNK + [{PLANAR_Y: (-1, -2.0)}],
              ["p"] * CSV_CHUNK + ['q,"r"']))
    @settings(max_examples=60, deadline=None)
    def test_rows_written_and_loaded_are_bit_identical(self, tmp_path_factory, drawn):
        points, tags = drawn
        cloud = dict_cloud(points, tags=tags)
        path = str(tmp_path_factory.mktemp("cloud") / "cloud.csv")
        rows = list(cloud_rows(cloud))
        assert all(type(v) is int for r in rows for v in (r[0], r[2], r[3]))  # written as ints
        write_csv(path, ["point_id", "tag", "mode_index", "sign", "logmag"], rows)
        got = load_cloud_csv(path)
        assert_table_invariants(got)
        assert got.points.n == cloud.points.n and got.tags == cloud.tags
        for name in ("point", "mode", "sign", "log"):
            want = getattr(cloud.points, name)
            assert getattr(got.points, name).tobytes() == want.tobytes(), name

    @given(gapped_tables())
    # empty points first and in a row, on both sides of the first chunk
    # edge (before entries CSV_CHUNK - 1 and CSV_CHUNK), and last
    @example(([0, 0] + [1] * (CSV_CHUNK - 1) + [0, 1, 0, 2, 0, 0], [-0.5, -0.0], ["p"]))
    @example(([0, 0, 0], [0.0], ["q,r"]))  # only empty points
    @settings(max_examples=40, deadline=None)
    def test_rows_match_entry_loop(self, tmp_path_factory, drawn):
        cloud = gapped_cloud(*drawn)
        rows, want = list(cloud_rows(cloud)), list(entry_loop_cloud_rows(cloud))
        assert rows == want
        assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in want]
        out = tmp_path_factory.mktemp("rows")
        header = ["point_id", "tag", "mode_index", "sign", "logmag"]
        written = [write_csv(str(out / name), header, made) for name, made in
                   (("arrays.csv", cloud_rows(cloud)), ("loop.csv", iter(want)))]
        with open(written[0], "rb") as got, open(written[1], "rb") as ref:
            assert got.read() == ref.read()

    def test_section4_table(self):
        cloud, _ = sim.section4_attractor(sim.thm44_laws(), make_spectrum("quadratic", {}, 12), 12)
        assert_table_invariants(cloud)
        dicts = point_dicts(cloud)
        # the first disk point stores no y, sin(0) being 0; the origin, the
        # last cone point, stores nothing
        assert dicts[0] == {PLANAR_X: (1, math.log(1 / sim.DISK_RINGS))}
        assert dicts[cloud.tags.count("cone") - 1] == {}

    @pytest.mark.parametrize("n_max", [3, 12, 120])
    @pytest.mark.parametrize("beta_scale", [1.0, 0.5])
    @pytest.mark.parametrize("laws", ["thm44", "smooth"])
    def test_section4_table_matches_tuple_build(self, laws, beta_scale, n_max):
        made = sim.thm44_laws() if laws == "thm44" else sim.smooth_forcing_laws(n_max)
        spec = make_spectrum("quadratic", {}, 12)
        cloud, report = sim.section4_attractor(made, spec, n_max, beta_scale=beta_scale)
        want, tags = section4_tuple_build(made, n_max, beta_scale)
        assert report == {} and cloud.tags == tags
        for name in ("point", "mode", "sign", "log"):
            got, ref = getattr(cloud.points, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    def test_bad_cube_table(self):
        cfg = resolve_config({"spectrum": {"family": "linear", "n_max": 32, "params": {"c": 1.0}},
                              "drive": {"tau": 0.5},
                              "dynamics": {"n0": 4, "kick_max_level": 6, "kappa": 0.04}})
        scen = scenario_from_config(cfg)
        cloud, meta = sim.bad_cube_cloud(scen, fl.poincare_predicted(scen.spectrum,
                                                                     scen.drive.half_period))
        assert_table_invariants(cloud)
        assert sum(len(lvl["point_ids"]) for lvl in meta["levels"].values()) == len(cloud)
