"""Experiment configuration: defaults, presets, files, environment.

A configuration is a plain JSON object. Values are resolved in
increasing priority: built-in defaults, then the named preset, then the
configuration file, then DEEPESN_* environment variables, then
command-line flags. The resolved object is validated once, whatever
each value came from: `DEFAULTS` fixes the allowed keys and their
types, and the dataclasses built from it fix the ranges. It is what
every run and grid report echoes back.
"""

from __future__ import annotations

import copy
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict

from .errors import ConfigError
from .ip import IpConfig
from .reservoir import ReservoirConfig
from .selection import GridSpec, clip_radius_target

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "resolve_config",
    "build_reservoir_config",
    "build_ip_config",
    "build_grid_spec",
]

DEFAULTS = {
    "dataset": None,
    "seed": 0,
    "workers": 1,
    "washout": 0,
    "reservoir": {
        "n_layers": 1,
        "units_per_layer": 100,
        "leaky_rate": 1.0,
        "spectral_radius": 0.9,
        "input_scaling": 1.0,
        "connectivity": 0.01,
    },
    "ip": {"enabled": False, **asdict(IpConfig())},
    "readout": {"ridge": 1e-3, "threshold": 0.5, "tune_threshold": False},
    # JSON has lists, not tuples.
    "grid": {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in asdict(GridSpec()).items()
    },
}

# What a value may be, keyed by the type of its default in DEFAULTS:
# (accepted exact types, description). Booleans are not numbers here,
# and `dataset` is None until one is given.
_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    type(None): ((str, type(None)), "a string"),
}

# Ranges of the top-level and readout scalars that no dataclass checks:
# dotted key -> (lowest, highest) allowed value.
_BOUNDS = {
    "seed": (0, math.inf),
    "workers": (1, math.inf),
    "washout": (0, math.inf),
    "readout.ridge": (0.0, math.inf),
    "readout.threshold": (0.0, 1.0),
}

# Benchmark architectures: a deep stack and a single wide layer of the
# same total size, both sparse and both with adaptation enabled.
PRESETS = {
    "deepesn-paper": {
        "reservoir": {
            "n_layers": 30,
            "units_per_layer": 200,
            "connectivity": 0.01,
        },
        "ip": {"enabled": True, "target_std": 0.1},
    },
    "esn-paper": {
        "reservoir": {
            "n_layers": 1,
            "units_per_layer": 6000,
            "connectivity": 0.01,
        },
        "ip": {"enabled": True, "target_std": 0.1},
    },
}


def _merge(base: dict, override: dict) -> dict:
    """Merge one level of nested sections; scalars replace outright."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _env_int(env: dict, name: str):
    raw = env.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _check_types(value, default, key: str) -> None:
    """Reject keys DEFAULTS lacks and values of another type than its own."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be an object, got {value!r}")
        for name, item in value.items():
            dotted = f"{key}.{name}" if key else name
            if name not in default:
                raise ConfigError(f"{dotted} is not a known key")
            _check_types(item, default[name], dotted)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        for index, item in enumerate(value):
            _check_types(item, default[0], f"{key}[{index}]")
    else:
        accepted, description = _TYPES[type(default)]
        if type(value) not in accepted:
            raise ConfigError(f"{key} must be {description}, got {value!r}")


def _validate(config: dict) -> None:
    """Check a resolved configuration; errors name the offending key."""
    _check_types(config, DEFAULTS, "")
    for key, (low, high) in _BOUNDS.items():
        value = config
        for part in key.split("."):
            value = value[part]
        if not (low <= value <= high and math.isfinite(value)):
            upper = f"{high}]" if math.isfinite(high) else "inf)"
            raise ConfigError(f"{key} must be in [{low}, {upper}, got {value!r}")
    # The dataset fixes input_dim when a run starts; any valid one will do.
    build_reservoir_config(config, input_dim=1)
    build_ip_config(config)
    build_grid_spec(config)


def resolve_config(
    path=None,
    preset: str | None = None,
    env: dict | None = None,
    seed: int | None = None,
    workers: int | None = None,
    dataset: str | None = None,
) -> dict:
    """Produce the fully resolved and validated configuration dictionary.

    `path` points to an optional JSON file; `preset` overrides the
    file's own preset key. `seed`, `workers`, and `dataset` are flag
    values and take priority over everything, environment included.
    Raises ConfigError naming the dotted key of the first bad value.
    """
    file_config = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_config = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(file_config, dict):
            raise ConfigError(f"{path}: the top level must be an object")

    resolved = copy.deepcopy(DEFAULTS)
    preset_name = preset if preset is not None else file_config.get("preset")
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}"
            )
        resolved = _merge(resolved, PRESETS[preset_name])
    resolved = _merge(
        resolved, {k: v for k, v in file_config.items() if k != "preset"}
    )

    env = os.environ if env is None else env
    env_seed = _env_int(env, "DEEPESN_SEED")
    env_workers = _env_int(env, "DEEPESN_WORKERS")
    if env_seed is not None:
        resolved["seed"] = env_seed
    if env_workers is not None:
        resolved["workers"] = env_workers

    if seed is not None:
        resolved["seed"] = seed
    if workers is not None:
        resolved["workers"] = workers
    if dataset is not None:
        resolved["dataset"] = dataset
    _validate(resolved)
    return resolved


@contextmanager
def _section_errors(section: str):
    """Re-raise a dataclass ValueError as a ConfigError naming its key.

    Every check of ReservoirConfig, IpConfig, GridSpec and
    clip_radius_target starts its message with the name of the field,
    which is also the key of the value inside `section`.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


def build_reservoir_config(config: dict, input_dim: int) -> ReservoirConfig:
    """Turn the reservoir section into a validated ReservoirConfig."""
    r = config["reservoir"]
    with _section_errors("reservoir"):
        return ReservoirConfig(
            input_dim=input_dim,
            n_layers=r["n_layers"],
            units_per_layer=r["units_per_layer"],
            leaky_rate=r["leaky_rate"],
            spectral_radius_target=clip_radius_target(r["spectral_radius"]),
            input_scaling=r["input_scaling"],
            connectivity=r["connectivity"],
            seed=config["seed"],
        )


def build_ip_config(config: dict) -> IpConfig | None:
    """IpConfig from the ip section, or None when adaptation is off.

    The section's values are checked either way.
    """
    settings = dict(config["ip"])
    enabled = settings.pop("enabled")
    with _section_errors("ip"):
        ip = IpConfig(**settings)
    return ip if enabled else None


def build_grid_spec(config: dict) -> GridSpec:
    """GridSpec from the grid section."""
    with _section_errors("grid"):
        return GridSpec(**config["grid"])
