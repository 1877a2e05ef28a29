"""The config table's checks: each bounded key at its bound and just past
it, a bool where a number goes, unknown and missing keys, and the
non-finite and non-integral numbers a config once let through."""

import copy
import math
from contextlib import nullcontext
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from attractorlab import cli
from attractorlab.config import ConfigError, config_hash, resolve_config, scenario_from_config
from attractorlab.floquet import FloquetError, poincare_predicted
from attractorlab.simulate import SimulationError, build_kick_operator
from attractorlab.spectral import cube_width, make_spectrum

BASE = {"spectrum": {"family": "linear", "n_max": 16, "params": {"c": 1.0}}}
EXPLICIT = {"family": "explicit", "n_max": 3, "params": {"values": [1.0, 2.0, 3.0]}}

# (key path, value, whether resolve_config takes it)
EDGES = [
    # exclusive bounds of numbers: the bound is refused, the next double taken
    *((key, bound, False) for key, bound in (
        ("drive.amplitude", 0.0), ("drive.tau", 0.0),
        ("drive.plateau_fraction", 0.5), ("drive.plateau_fraction", 1.0),
        ("dynamics.kappa", 0.0), ("dynamics.kappa", 1.0), ("dynamics.beta_scale", 0.0))),
    *((key, math.nextafter(bound, mid), True) for key, bound, mid in (
        ("drive.amplitude", 0.0, 1.0), ("drive.tau", 0.0, 1.0),
        ("drive.plateau_fraction", 0.5, 0.75), ("drive.plateau_fraction", 1.0, 0.75),
        ("dynamics.kappa", 0.0, 0.5), ("dynamics.kappa", 1.0, 0.5),
        ("dynamics.beta_scale", 0.0, 1.0))),
    # integer minimums: the minimum is taken, one below refused
    *((key, least + step, step == 0)
      for key, least in (("spectrum.n_max", 3), ("dynamics.n0", 1), ("dynamics.n_trunc", 4),
                         ("dynamics.kick_max_level", 1), ("dynamics.n_periods", 3),
                         ("dynamics.steps_per_period", 64), ("geometry.cloud.n_max", 3))
      for step in (0, -1)),
    # a one-mode spectrum stays refused
    ("spectrum.n_max", 1, False),
    # list lengths: the shortest list is taken, one shorter refused
    ("geometry.s_list", [0.0], True), ("geometry.s_list", [], False),
    ("geometry.scales", [1.0, 0.1, 0.01, 0.001], True),
    ("geometry.scales", [1.0, 0.1, 0.01], False),
    # a bool is no number, and neither is a float an integer
    ("drive.tau", True, False), ("dynamics.L", False, False),
    ("spectrum.params.c", True, False), ("geometry.s_list", [True], False),
    ("spectrum.n_max", True, False), ("dynamics.n_trunc", 16.0, False),
    # unknown keys at every level
    ("bogus", 1, False), ("drive.bogus", 1, False), ("spectrum.params.bogus", 1.0, False),
    ("geometry.cloud.bogus", "x", False),
]


def with_key(raw, key, value):
    raw = copy.deepcopy(raw)
    *sections, name = key.split(".")
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    return raw


def read_key(cfg, key):
    for name in key.split("."):
        cfg = cfg[name]
    return cfg


@pytest.mark.parametrize("key,value,taken", EDGES,
                         ids=[f"{key}={value!r}" for key, value, _ in EDGES])
def test_edges(key, value, taken):
    raw = with_key(BASE, key, value)
    if taken:
        assert read_key(resolve_config(raw), key) == value
    else:
        # parse_scales words its own refusals
        want = "scales" if key == "geometry.scales" else f"config invalid at {key}: "
        with pytest.raises(ConfigError, match=want):
            resolve_config(raw)


@pytest.mark.parametrize("steps", [65, 3001])
def test_odd_steps_per_period_names_the_next_even(steps):
    # each half-period takes half of a period's steps
    raw = with_key(BASE, "dynamics.steps_per_period", steps)
    with pytest.raises(ConfigError, match=r"at dynamics\.steps_per_period: want an even "
                                          rf"integer.*the next even value is {steps + 1}$"):
        resolve_config(raw)
    raw = with_key(BASE, "dynamics.steps_per_period", steps + 1)
    assert resolve_config(raw)["dynamics"]["steps_per_period"] == steps + 1


def test_shortest_explicit_spectrum():
    assert resolve_config({"spectrum": EXPLICIT})["spectrum"] == EXPLICIT
    short = with_key({"spectrum": EXPLICIT}, "spectrum.params.values", [1.0, 2.0])
    with pytest.raises(ConfigError, match=r"at spectrum\.params\.values: .*\(at least 3\)"):
        resolve_config(short)


@pytest.mark.parametrize("missing", ["spectrum", "spectrum.family", "spectrum.n_max"])
def test_missing_required_key(missing):
    raw = copy.deepcopy(BASE)
    *sections, name = missing.split(".")
    del (read_key(raw, ".".join(sections)) if sections else raw)[name]
    with pytest.raises(ConfigError, match=f"config invalid at {missing}: the key is required"):
        resolve_config(raw)


def test_defaults_fill_every_section():
    cfg = resolve_config(BASE)
    assert cfg["spectrum"] == BASE["spectrum"]
    assert cfg["geometry"]["cloud"] == {"kind": "section4", "n_max": 48, "laws": "thm44"}
    assert cfg["expectations"] == {}
    assert resolve_config({"spectrum": {"family": "power", "n_max": 8}})["spectrum"] == {
        "family": "power", "n_max": 8, "params": {}}


def test_file_cloud_needs_path():
    raw = with_key(with_key(BASE, "geometry.s_list", [0]), "geometry.cloud", {"kind": "file"})
    with pytest.raises(ConfigError, match=r"config invalid at geometry\.cloud\.path: "
                                          r"the key is required"):
        resolve_config(raw)
    raw["geometry"]["cloud"]["path"] = "cloud.csv"
    assert resolve_config(raw)["geometry"]["cloud"]["path"] == "cloud.csv"


def test_file_cloud_hash_reads_the_cloud_not_its_path(tmp_path):
    raw = with_key(with_key(BASE, "geometry.s_list", [0]), "geometry.cloud", {"kind": "file"})
    body = "point_id,tag,mode_index,sign,logmag\n0,,1,1,-2.5\n1,,2,-1,-3\n"

    def hashed(name, text):
        (tmp_path / name).write_text(text)
        raw["geometry"]["cloud"]["path"] = str(tmp_path / name)
        return config_hash(resolve_config(raw))

    first = hashed("a.csv", body)
    assert hashed("b.csv", body) == first  # one cloud at two paths
    assert hashed("a.csv", body.replace("-3", "-4")) != first  # an edited cloud


@pytest.mark.parametrize("section,text,key", [
    ("drive", '{"tau": NaN}', "drive.tau"),
    ("dynamics", '{"L": Infinity}', "dynamics.L"),
    ("spectrum", '{"family": "linear", "n_max": 40.0}', "spectrum.n_max"),
])
def test_refused_before_any_command(tmp_path, capsys, section, text, key):
    # each of these once passed the config check and failed later in the
    # numerics, or with a TypeError
    body = {"spectrum": '{"family": "linear", "n_max": 40}', section: text}
    path = tmp_path / "c.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in body.items()) + "}")
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "gap-check"]) == 1
    assert f"config error: config invalid at {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_truncation_bound_is_two_below_n_max():
    # floquet's shift images reach mode n_trunc + 2, so a given n_trunc
    # past spectrum.n_max - 2 is refused, naming the smallest invalid
    # value, and the default 16 is lowered to the bound
    assert resolve_config(with_key(BASE, "dynamics.n_trunc", 14))["dynamics"]["n_trunc"] == 14
    with pytest.raises(ConfigError, match=r"^config invalid at dynamics\.n_trunc: want at most "
                                          r"spectrum\.n_max - 2 = 14, .*got 15; the smallest "
                                          r"invalid value is 15$"):
        resolve_config(with_key(BASE, "dynamics.n_trunc", 15))
    assert resolve_config(BASE)["dynamics"]["n_trunc"] == 14
    for n_max in (18, 40):
        raw = with_key(BASE, "spectrum.n_max", n_max)
        assert resolve_config(raw)["dynamics"]["n_trunc"] == 16


@st.composite
def small_configs(draw):
    """Raw configs over small key ranges: every family at n_max 3-16, each
    cloud kind, and some dynamics and geometry keys given, some refused."""
    family = draw(st.sampled_from(["linear", "power", "quadratic", "explicit"]))
    n_max = draw(st.integers(3, 16))
    spectrum = {"family": family, "n_max": n_max}
    if family == "explicit":
        spectrum["params"] = {"values": [1.0 + 0.5 * m for m in range(n_max)]}
    raw = {"spectrum": spectrum}
    optional = {
        "dynamics": {"n_trunc": st.integers(4, 14), "n0": st.integers(1, 3),
                     "kick_max_level": st.integers(1, 3), "kappa": st.sampled_from([0.04, 0.5]),
                     "steps_per_period": st.sampled_from([64, 65, 4096])},
        "geometry": {"s_list": st.sampled_from([[0], [0.0, 1.0]]),
                     "scales": st.sampled_from(["1e-1:1e-3:4", [1.0, 0.5, 0.25, 0.125]]),
                     "include_doubling": st.booleans(),
                     "cloud": st.sampled_from([{"kind": "section4", "n_max": 3},
                                               {"kind": "bad_cubes"},
                                               {"kind": "file", "path": "cloud.csv"}])},
    }
    for section, keys in optional.items():
        given = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
        if given:
            raw[section] = {key: draw(keys[key]) for key in given}
    return raw


@given(small_configs())
@example({"spectrum": {"family": "linear", "n_max": 3}})  # no truncation fits
@example({"spectrum": {"family": "quadratic", "n_max": 5}})
@example({"spectrum": {"family": "explicit", "n_max": 4, "params": {"values": [1, 2, 3, 4]}},
          "geometry": {"cloud": {"kind": "bad_cubes"}}})  # refused: the orbits exit
@example({"spectrum": {"family": "linear", "n_max": 5},
          "dynamics": {"kick_max_level": 1}, "geometry": {"cloud": {"kind": "bad_cubes"}}})
@example({"spectrum": {"family": "linear", "n_max": 16},
          "dynamics": {"kick_max_level": 1}, "geometry": {"cloud": {"kind": "bad_cubes"}}})
@example({"spectrum": {"family": "linear", "n_max": 6}})
@settings(max_examples=200, deadline=None)
def test_resolve_is_idempotent(raw):
    # a resolved config is a config the resolver accepts, and it resolves
    # to itself: defaults lowered below a key's own floor or kept for keys
    # a cloud kind refuses once broke the second pass
    try:
        once = resolve_config(raw)
    except ConfigError:
        return
    assert resolve_config(copy.deepcopy(once)) == once


def bad_cubes_raw(family: str, n_max: int, level: int) -> dict:
    """The `cubes` benchmark config with one kick level, on a linear c = 1
    spectrum or the explicit list of the same values."""
    params = ({"c": 1.0} if family == "linear"
              else {"values": [float(m) for m in range(1, n_max + 1)]})
    return {"spectrum": {"family": family, "n_max": n_max, "params": params},
            "drive": {"tau": 0.5},
            "dynamics": {"L": 3.0, "n0": level, "kick_max_level": level, "kappa": 0.04},
            "geometry": {"cloud": {"kind": "bad_cubes"}}}


@pytest.mark.parametrize("family", ["linear", "explicit"])
def test_bad_cube_floor_is_the_shift_line_extent(family):
    # level K walks mode 1 to mode 4K + 2k + 1, k = ceil(sqrt K): the last
    # mode of an explicit line, and the first odd mode past a family line's
    # n_max.  At that floor the config resolves and the kick's walks fit;
    # one mode below, the config refuses and the walk leaves the line at
    # its last step.  Level 1's first-mode leftover exceeds its deposit
    # scale at every truncation, so its kick refuses after the walks.
    for level in range(1, 101):
        k = cube_width(level)
        floor = 4 * level + 2 * k + (1 if family == "explicit" else -1)
        scen = scenario_from_config(resolve_config(bad_cubes_raw(family, floor, level)))
        refused = (pytest.raises(SimulationError, match="^first-mode leftover exceeds")
                   if level == 1 else nullcontext())
        with refused:
            build_kick_operator(scen, poincare_predicted(scen.spectrum, scen.drive.half_period))
        with pytest.raises(ConfigError, match=f"kick_max_level {level} needs spectrum "
                                              f"n_max >= {floor} "):
            resolve_config(bad_cubes_raw(family, floor - 1, level))
        params = bad_cubes_raw(family, floor - 1, level)["spectrum"]["params"]
        short = make_spectrum(family, params, floor - 1)
        exit_text = (rf"^orbit exits the stored truncation at step {2 * level + k} "
                     rf"\(mode {4 * level + 2 * k - 1}\)$")
        with pytest.raises(FloquetError, match=exit_text):
            build_kick_operator(replace(scen, spectrum=short),
                                poincare_predicted(short, scen.drive.half_period))
