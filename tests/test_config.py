"""The config table's checks: each bounded key at its bound and just past
it, a bool where a number goes, unknown and missing keys, and the
non-finite and non-integral numbers a config once let through."""

import copy
import math

import pytest

from attractorlab import cli
from attractorlab.config import ConfigError, config_hash, resolve_config

BASE = {"spectrum": {"family": "linear", "n_max": 16, "params": {"c": 1.0}}}
EXPLICIT = {"family": "explicit", "n_max": 2, "params": {"values": [1.0, 2.0]}}

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
      for key, least in (("spectrum.n_max", 2), ("dynamics.n0", 1), ("dynamics.n_trunc", 4),
                         ("dynamics.kick_max_level", 1), ("dynamics.n_periods", 3),
                         ("dynamics.steps_per_period", 64), ("geometry.cloud.n_max", 3))
      for step in (0, -1)),
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
        # parse_scales words its own refusals, which `--scales` shares
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
    short = with_key({"spectrum": EXPLICIT}, "spectrum.params.values", [1.0])
    with pytest.raises(ConfigError, match=r"at spectrum\.params\.values: .*\(at least 2\)"):
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
