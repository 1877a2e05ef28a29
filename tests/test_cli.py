"""End-to-end runs of every command through `cli.main`, plus the config
checks that refuse a run before any numerics start.  The `floquet` and
`simulate` runs share one small linear c=1 spectrum and run twice each."""

import hashlib
import json
import os

import pytest

from attractorlab import cli, quadrature
from attractorlab import floquet as fl
from attractorlab import simulate as sim
from attractorlab.config import (DEFAULTS, ConfigError, drive_from_config,
                                 resolve_config, scenario_from_config)
from attractorlab.cutoffs import periodic_drive
from attractorlab.geometry import PointCloud
from attractorlab.logspace import LogModeVector
from attractorlab.reports import cloud_rows, write_csv

LINEAR = {"family": "linear", "n_max": 16, "params": {"c": 1.0}}
SCAN_CSVS = ("dimension_scan.csv", "cloud.csv")
SMALL_DYNAMICS = {
    "spectrum": {"family": "linear", "n_max": 14, "params": {"c": 1.0}},
    "dynamics": {"n_trunc": 8, "n_periods": 3, "steps_per_period": 1024},
    "expectations": {"gap_check": "obstruction", "floquet": "pattern_ok",
                     "simulate": "superexponential"},
}


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
            points.append(LogModeVector({m: (1, log_eps) for b, m in enumerate(modes)
                                         if (p >> b) & 1}))
            tags.append(f"cube:n={level}:p={p}")
    path = str(tmp_path / "cubes.csv")
    write_csv(path, ["point_id", "tag", "mode_index", "sign", "logmag"],
              cloud_rows(PointCloud(points, tags=tags)))
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


class TestGapCheck:
    def test_linear_obstruction(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"spectrum": LINEAR, "dynamics": {"L": 3.0},
                                                 "expectations": {"gap_check": "obstruction"}})
        assert run(cfg, tmp_path / "out", "gap-check") == 0
        assert report(tmp_path / "out", "gap-check")["verdicts"] == {"gap_check": "obstruction"}


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
    assert resolve_config(SMALL_DYNAMICS)["dynamics"]["L"] == DEFAULTS["dynamics"]["L"] == 2.0
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


class TestSimulate:
    CSVS = ("pair_distance.csv", "pair_trajectory.csv")

    def test_superexponential_byte_identical(self, dynamics_runs):
        root, codes = dynamics_runs
        assert codes["a", "simulate"] == 0 and codes["b", "simulate"] == 0
        assert report(root / "a", "simulate")["verdicts"] == {"simulate": "superexponential"}
        assert read_bytes(root / "a", self.CSVS) == read_bytes(root / "b", self.CSVS)

    def test_kappa_fit_matches_shift(self, dynamics_runs):
        root, _ = dynamics_runs
        got = report(root / "a", "simulate")["constants"]
        assert got["kappa_expected"] > 0.0
        assert abs(got["kappa_fit"] - got["kappa_expected"]) <= (
            sim.KAPPA_REL_TOL * got["kappa_expected"])
        assert got["consistent_with_shift"] is True

    def test_rotation_free_control_is_exponential_only(self):
        scen = scenario_from_config(resolve_config(SMALL_DYNAMICS))
        result = sim.trajectory_pair_experiment(scen, n_periods=3, rotation_on=False)
        assert result["exponential_only"] is True
        assert result["consistent_with_shift"] is False


class TestDimension:
    def test_section4_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "quadratic", "n_max": 12},
            "geometry": {"cloud": {"kind": "section4", "n_max": 12},
                         "s_list": [0, 2], "scales": "1e-1:1e-3:4"}})
        assert run(cfg, tmp_path / "a", "dimension") == 0
        assert run(cfg, tmp_path / "b", "dimension", "--threads", "2") == 0
        assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")
        got = report(tmp_path / "a", "dimension")
        assert got["verdicts"]["dimension"] in ("finite", "diverging")
        assert set(got["constants"]["slopes"]) == {"0", "2"}

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
        assert len(builds) == 1  # the loaded file; the s = 0 view shares its matrices

    def test_bad_cubes_diverging(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "linear", "n_max": 32, "params": {"c": 1.0}},
            "drive": {"tau": 0.5},
            "dynamics": {"n0": 4, "kick_max_level": 6, "kappa": 0.04},
            "geometry": {"cloud": {"kind": "bad_cubes"}},
            "expectations": {"dimension": "diverging"}})
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

    def test_section4_scan_builds_one_cloud(self, tmp_path, monkeypatch, capsys):
        builds = self.count_builds(monkeypatch)
        cfg = write_config(tmp_path / "c.json", {
            "spectrum": {"family": "quadratic", "n_max": 12},
            "geometry": {"cloud": {"kind": "section4", "n_max": 12},
                         "s_list": [0, 2], "scales": "1e-1:1e-3:4"}})
        assert run(cfg, tmp_path / "out", "dimension") == 0
        assert len(builds) == 1  # both s views share the section-4 cloud's matrices


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

    @pytest.mark.parametrize("n_max,dynamics,need", [
        (40, {"n_periods": 8}, "n_trunc >= 17"),  # default n_trunc 16
        (18, {"n_periods": 8, "n_trunc": 20}, "n_max >= 19"),
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

    def test_file_cloud_refuses_nonzero_s(self, cube_cloud_file):
        resolve_config(file_config(cube_cloud_file, [0.0]))
        with pytest.raises(ConfigError, match="s_list"):
            resolve_config(file_config(cube_cloud_file, [0.0, 1.0]))


def test_scenario_from_config():
    cfg = resolve_config({
        "spectrum": LINEAR,
        "drive": {"amplitude": 2.0, "tau": 0.5, "T_scale": 3.0, "plateau_fraction": 0.8},
        "dynamics": {"L": 3.0, "n0": 5, "kappa": 0.04, "kick_max_level": 7, "n_trunc": 12,
                     "steps_per_period": 512}})
    scen = scenario_from_config(cfg)
    assert scen.spectrum.n_max == 16 and scen.spectrum.family == "linear"
    assert scen.drive == periodic_drive(2.0, 1.5, 0.8)
    assert scen.drive == drive_from_config(cfg)
    assert (scen.lipschitz_budget, scen.n_trunc, scen.steps_per_period) == (3.0, 12, 512)
    assert (scen.kick_base_level, scen.kick_max_level, scen.kick_window) == (5, 7, 0.04)
