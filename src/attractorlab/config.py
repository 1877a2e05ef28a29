"""JSON experiment configuration: one table declares each key with its
default and its check, and a resolved config carries every default plus a
content hash for byte-reproducible runs.  No environment variables are
consulted: all state lives in the config."""

from __future__ import annotations

import copy
import hashlib
import json
import math

from .cutoffs import PeriodicDrive
from .simulate import Scenario
from .spectral import Spectrum, cube_width, make_spectrum

__all__ = ["ConfigError", "KEYS", "load_config", "resolve_config",
           "config_hash", "spectrum_from_config", "drive_from_config",
           "scenario_from_config",
           "parse_scales"]


class ConfigError(ValueError):
    """Invalid or unusable configuration."""


# Fewest scales the dimension fit takes (`geometry.fractal_dimension_estimate`).
MIN_SCALES = 4
# The default of a key the config must give.
REQUIRED = "required"


def _is_number(v) -> bool:
    """A finite JSON number: no bool, NaN or Infinity."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _number(lo=None, hi=None):
    """A finite number strictly between the bounds that are given."""
    want = "a finite number" + (f" > {lo}" if lo is not None else "") + (
        f" and < {hi}" if hi is not None else "")
    return lambda v: None if (_is_number(v) and (lo is None or v > lo)
                              and (hi is None or v < hi)) else want


def _integer(least: int):
    """A JSON integer, so neither 40.0 nor true, of at least `least`."""
    return lambda v: None if (isinstance(v, int) and not isinstance(v, bool)
                              and v >= least) else f"an integer >= {least}"


def _numbers(least: int):
    """A list of finite numbers, at least `least` of them."""
    return lambda v: None if (isinstance(v, list) and len(v) >= least
                              and all(map(_is_number, v))) else (
        f"a list of finite numbers (at least {least})")


def _scales(v) -> None:
    parse_scales(v)


# Every config key: its path -> (default, check).  A default is a value,
# REQUIRED, or None for an optional key that stays out when not given; a
# section (check `dict`) takes its children's defaults.  A check is a type,
# a tuple of the allowed strings, or a function that returns what it wants
# when the value fails.
KEYS = {
    "spectrum": (REQUIRED, dict),
    "spectrum.family": (REQUIRED, ("linear", "power", "quadratic", "explicit")),
    "spectrum.n_max": (REQUIRED, _integer(2)),
    "spectrum.params": ({}, dict),
    "spectrum.params.c": (None, _number()),
    "spectrum.params.kappa": (None, _number()),
    "spectrum.params.values": (None, _numbers(2)),
    "drive": ({}, dict),
    "drive.amplitude": (1.0, _number(0)),
    "drive.tau": (2.0, _number(0)),
    "drive.plateau_fraction": (0.75, _number(0.5, 1.0)),
    "dynamics": ({}, dict),
    "dynamics.L": (2.0, _number()),
    "dynamics.n0": (4, _integer(1)),
    "dynamics.kappa": (0.05, _number(0, 1)),
    "dynamics.beta_scale": (1.0, _number(0)),
    # capped at spectrum.n_max - 2 when not given (`_check_truncation`)
    "dynamics.n_trunc": (16, _integer(4)),
    "dynamics.kick_max_level": (16, _integer(1)),
    "dynamics.n_periods": (6, _integer(3)),
    "dynamics.steps_per_period": (4096, _integer(64)),
    "geometry": ({}, dict),
    "geometry.scales": ("1e-1:1e-3:8", _scales),
    "geometry.s_list": ([0.0, 1.0, 2.0], _numbers(1)),
    "geometry.cloud": ({}, dict),
    "geometry.cloud.kind": ("section4", ("bad_cubes", "section4", "file")),
    "geometry.cloud.path": (None, str),
    "geometry.cloud.n_max": (48, _integer(3)),
    "geometry.cloud.laws": ("thm44", ("thm44", "smooth")),
    "geometry.include_doubling": (False, bool),
    "output": ({}, dict),
    "output.dir": ("runs", str),
    "expectations": ({}, dict),
    "expectations.gap_check": (None, ("obstruction", "no_obstruction", "unbounded_gap")),
    "expectations.floquet": (None, ("pattern_ok", "pattern_broken")),
    "expectations.dimension": (None, ("diverging", "finite")),
    "expectations.simulate": (None, ("superexponential", "exponential_only")),
}


def _children(path: str) -> dict:
    """name -> (key path, default, check) of each key of the section at `path`."""
    return {key.rpartition(".")[2]: (key, default, check)
            for key, (default, check) in KEYS.items() if key.rpartition(".")[0] == path}


def _resolve(raw, path: str) -> dict:
    """The section at `path`: each key of `raw` checked, each missing one
    given its default.  Raises ConfigError naming the first key that fails."""
    keys = _children(path)
    for name in raw:
        if name not in keys:
            raise ConfigError(f"config invalid at {path + '.' if path else ''}{name}: "
                              "unknown key (Additional properties are not allowed)")
    out = {}
    for name, (key, default, check) in keys.items():
        if name in raw:
            value = raw[name]
        elif default == REQUIRED:
            raise ConfigError(f"config invalid at {key}: the key is required")
        elif default is None:
            continue
        else:
            value = default
        if isinstance(check, type):
            want = None if isinstance(value, check) else f"a {check.__name__}"
        elif isinstance(check, tuple):
            want = None if isinstance(value, str) and value in check else f"one of {check}"
        else:
            want = check(value)
        if want:
            raise ConfigError(f"config invalid at {key}: want {want}, got {value!r}")
        out[name] = _resolve(value, key) if check is dict else copy.deepcopy(value)
    return out


def resolve_config(raw: dict) -> dict:
    """Check `raw` against KEYS, then materialize defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config invalid at <root>: want a dict, got {raw!r}")
    resolved = _resolve(raw, "")
    _check_explicit(resolved["spectrum"])
    _check_truncation(resolved, "n_trunc" in raw.get("dynamics", {}))
    _check_steps(resolved["dynamics"])
    _check_cloud(resolved)
    return resolved


def _check_explicit(sec: dict) -> None:
    """Refuse an explicit spectrum whose n_max is not its number of values,
    which would otherwise run on the values alone."""
    if sec["family"] != "explicit":
        return
    count = len(sec["params"].get("values", ()))
    if count != sec["n_max"]:
        raise ConfigError(
            f"explicit spectrum lists {count} values but n_max is {sec['n_max']}; "
            "set n_max to the number of values")


def _check_truncation(resolved: dict, given: bool) -> None:
    """One truncation bound for both dynamics commands: `floquet` checks
    columns 1..n_trunc, whose shift images reach mode n_trunc + 2, and
    `simulate` runs n_trunc modes, so dynamics.n_trunc is at most
    spectrum.n_max - 2.  A given value above it is refused; the default
    is lowered to it."""
    bound = resolved["spectrum"]["n_max"] - 2
    dyn = resolved["dynamics"]
    if not given:
        dyn["n_trunc"] = min(dyn["n_trunc"], bound)
    elif dyn["n_trunc"] > bound:
        raise ConfigError(
            f"config invalid at dynamics.n_trunc: want at most spectrum.n_max - 2 = {bound}, "
            f"since floquet's shift images reach two modes past the truncation, got "
            f"{dyn['n_trunc']}; the smallest invalid value is {bound + 1}")


def _check_steps(dyn: dict) -> None:
    """Refuse an odd step count per period: `simulate` runs half of the
    steps in each half-period."""
    steps = dyn["steps_per_period"]
    if steps % 2:
        raise ConfigError(
            f"config invalid at dynamics.steps_per_period: want an even integer, since "
            f"each half-period takes half the steps, got {steps}; the next even value "
            f"is {steps + 1}")


def _bad_cube_min_n_max(kick_max_level: int, family: str) -> int:
    """Smallest spectral truncation that holds every bad-cube orbit: level
    K needs the first-mode orbit through 2K + ceil(sqrt K) periods, which
    reaches mode 4K + 2 ceil(sqrt K) - 1.  An explicit spectrum cannot
    extend, and its shift drops the last odd modes, so it needs two more."""
    k = kick_max_level
    need = 4 * k + 2 * cube_width(k) - 1
    return need + 2 if family == "explicit" else need


def _check_cloud(resolved: dict) -> None:
    """Refuse cloud configs that would fail late or mean nothing."""
    geo = resolved["geometry"]
    kind = geo["cloud"]["kind"]
    if kind == "bad_cubes":
        sec = resolved["spectrum"]
        n_max = sec["n_max"]
        k = resolved["dynamics"]["kick_max_level"]
        need = _bad_cube_min_n_max(k, sec["family"])
        if n_max < need:
            raise ConfigError(
                f"bad_cubes with kick_max_level {k} needs spectrum n_max >= {need} "
                f"(got {n_max}): the cube orbits exit a smaller truncation")
    if kind == "file" and "path" not in geo["cloud"]:
        raise ConfigError("config invalid at geometry.cloud.path: the key is required "
                          "when geometry.cloud.kind is \"file\"")
    if kind == "file" and any(s != 0 for s in geo["s_list"]):
        raise ConfigError(
            "file clouds carry no spectrum, so every Sobolev index s gives the s=0 "
            f"scan; set geometry.s_list to [0] (got {geo['s_list']})")


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return resolve_config(raw)


def config_hash(resolved: dict) -> str:
    """The scenario's hash: the resolved config, with a `kind: file` cloud's
    path replaced by the sha256 of the file's bytes, so the hash names the
    cloud and not where it was read from."""
    cloud = resolved["geometry"]["cloud"]
    if cloud["kind"] == "file":
        with open(cloud["path"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        resolved = {**resolved, "geometry": {**resolved["geometry"],
                                             "cloud": {**cloud, "path": digest}}}
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def spectrum_from_config(resolved: dict) -> Spectrum:
    sec = resolved["spectrum"]
    return make_spectrum(sec["family"], sec["params"], sec["n_max"])


def drive_from_config(resolved: dict) -> PeriodicDrive:
    """The drive of half-period tau."""
    drv = resolved["drive"]
    return PeriodicDrive(drv["amplitude"], drv["tau"], drv["plateau_fraction"])


def scenario_from_config(resolved: dict) -> Scenario:
    dyn = resolved["dynamics"]
    return Scenario(
        spectrum=spectrum_from_config(resolved),
        lipschitz_budget=dyn["L"],
        drive=drive_from_config(resolved),
        n_trunc=dyn["n_trunc"],
        kick_base_level=dyn["n0"],
        kick_max_level=dyn["kick_max_level"],
        kick_window=dyn["kappa"],
        steps_per_period=dyn["steps_per_period"],
    )


def parse_scales(spec) -> list[float]:
    """Geometric scale ladder, largest first: either a list of at least
    MIN_SCALES finite numbers or "a:b:n" with finite a, b and n >= MIN_SCALES.
    Every scale must be positive and distinct."""
    if isinstance(spec, list):
        want = _numbers(MIN_SCALES)(spec)
        if want:
            raise ConfigError(f"bad scales {spec!r}; want {want}")
        vals = [float(v) for v in spec]
    else:
        try:
            a, b, n = spec.split(":")
            a, b, n = float(a), float(b), int(n)
            if not (0 < a < math.inf and 0 < b < math.inf) or n < MIN_SCALES:
                raise ValueError
            ratio = (b / a) ** (1.0 / (n - 1))
            vals = [a * ratio**k for k in range(n)]
        except (ValueError, AttributeError) as exc:
            raise ConfigError(f"bad scales spec {spec!r}; want numbers or 'a:b:n' with "
                              f"finite a, b > 0 and n >= {MIN_SCALES}") from exc
    if any(v <= 0 for v in vals):
        raise ConfigError("scales must be positive")
    vals = sorted(vals, reverse=True)
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ConfigError(f"scale {a!r} is repeated in {spec!r}; every scale "
                              "must be distinct")
    return vals
