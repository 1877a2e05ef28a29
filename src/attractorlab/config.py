"""Schema-validated JSON experiment configuration with materialized defaults
and a content hash for byte-reproducible runs.  No environment variables are
consulted: all state lives in the config."""

from __future__ import annotations

import copy
import hashlib
import json

import jsonschema

from .cutoffs import PeriodicDrive, periodic_drive
from .simulate import Scenario
from .spectral import Spectrum, cube_width, make_spectrum

__all__ = ["ConfigError", "SCHEMA", "DEFAULTS", "load_config", "resolve_config",
           "config_hash", "spectrum_from_config", "drive_from_config",
           "scenario_from_config",
           "parse_scales"]


class ConfigError(ValueError):
    """Schema violation or unusable configuration."""


_NUM = {"type": "number"}
# Fewest scales the dimension fit takes (`geometry.fractal_dimension_estimate`).
MIN_SCALES = 4

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "n_max"],
            "properties": {
                "family": {"enum": ["linear", "power", "quadratic", "explicit"]},
                "n_max": {"type": "integer", "minimum": 2},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "c": _NUM,
                        "kappa": _NUM,
                        "values": {"type": "array", "items": _NUM, "minItems": 2},
                    },
                },
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "plateau_fraction": {"type": "number", "exclusiveMinimum": 0.5,
                                     "exclusiveMaximum": 1.0},
                "T_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "L": _NUM,
                "n0": {"type": "integer", "minimum": 1},
                "kappa": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "beta_scale": {"type": "number", "exclusiveMinimum": 0},
                "n_trunc": {"type": "integer", "minimum": 4},
                "kick_max_level": {"type": "integer", "minimum": 1},
                "n_periods": {"type": "integer", "minimum": 3},
                "steps_per_period": {"type": "integer", "minimum": 64},
            },
        },
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scales": {
                    "anyOf": [
                        {"type": "string"},
                        {"type": "array", "items": _NUM, "minItems": MIN_SCALES},
                    ]
                },
                "s_list": {"type": "array", "items": _NUM, "minItems": 1},
                "cloud": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["bad_cubes", "section4", "file"]},
                        "path": {"type": "string"},
                        "n_max": {"type": "integer", "minimum": 3},
                        "laws": {"enum": ["thm44", "smooth"]},
                    },
                },
                "include_doubling": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
            },
        },
        "expectations": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gap_check": {"enum": ["obstruction", "no_obstruction", "unbounded_gap"]},
                "floquet": {"enum": ["pattern_ok", "pattern_broken"]},
                "dimension": {"enum": ["diverging", "finite"]},
                "simulate": {"enum": ["superexponential", "exponential_only"]},
            },
        },
    },
    "required": ["spectrum"],
}

DEFAULTS = {
    "drive": {"amplitude": 1.0, "tau": 2.0, "plateau_fraction": 0.75, "T_scale": 1.0},
    "dynamics": {
        "L": 2.0,
        "n0": 4,
        "kappa": 0.05,
        "beta_scale": 1.0,
        "n_trunc": 16,
        "kick_max_level": 16,
        "n_periods": 6,
        "steps_per_period": 4096,
    },
    "geometry": {
        "scales": "1e-1:1e-3:8",
        "s_list": [0.0, 1.0, 2.0],
        "cloud": {"kind": "section4", "n_max": 48, "laws": "thm44"},
        "include_doubling": False,
    },
    "output": {"dir": "runs"},
    "expectations": {},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def resolve_config(raw: dict) -> dict:
    """Validate against the schema, then materialize defaults."""
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        need = f" (at least {exc.validator_value})" if exc.validator == "minItems" else ""
        raise ConfigError(f"config invalid at {path}: {exc.message}{need}") from exc
    resolved = _merge(DEFAULTS, raw)
    resolved.setdefault("spectrum", {}).setdefault("params", {})
    _check_explicit(resolved["spectrum"])
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
    kind = geo["cloud"].get("kind", "section4")
    if kind == "bad_cubes":
        sec = resolved["spectrum"]
        n_max = sec["n_max"]
        k = resolved["dynamics"]["kick_max_level"]
        need = _bad_cube_min_n_max(k, sec["family"])
        if n_max < need:
            raise ConfigError(
                f"bad_cubes with kick_max_level {k} needs spectrum n_max >= {need} "
                f"(got {n_max}): the cube orbits exit a smaller truncation")
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
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def spectrum_from_config(resolved: dict) -> Spectrum:
    sec = resolved["spectrum"]
    return make_spectrum(sec["family"], sec.get("params", {}), sec["n_max"])


def drive_from_config(resolved: dict) -> PeriodicDrive:
    """The drive of half-period tau * T_scale."""
    drv = resolved["drive"]
    return periodic_drive(drv["amplitude"], drv["tau"] * drv["T_scale"],
                          drv["plateau_fraction"])


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
    """Geometric scale ladder, largest first: either an explicit list or
    "a:b:n" with n >= MIN_SCALES (the schema holds a list to as many).  Every
    scale must be positive and distinct."""
    if isinstance(spec, (list, tuple)):
        vals = [float(v) for v in spec]
    else:
        try:
            a, b, n = spec.split(":")
            a, b, n = float(a), float(b), int(n)
            if a <= 0 or b <= 0 or n < MIN_SCALES:
                raise ValueError
            ratio = (b / a) ** (1.0 / (n - 1))
            vals = [a * ratio**k for k in range(n)]
        except (ValueError, AttributeError) as exc:
            raise ConfigError(f"bad scales spec {spec!r}; want numbers or 'a:b:n' with "
                              f"a, b > 0 and n >= {MIN_SCALES}") from exc
    if any(v <= 0 for v in vals):
        raise ConfigError("scales must be positive")
    vals = sorted(vals, reverse=True)
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ConfigError(f"scale {a!r} is repeated in {spec!r}; every scale "
                              "must be distinct")
    return vals
